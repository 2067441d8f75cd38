import pytest

from sigmaample.ampleness import oracle_report
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import UnknownName
from sigmaample.intmat import IntegerMatrix, mat_pow, nilpotency_index
from sigmaample.lattice import validate
from sigmaample.schemefile import parse_scheme_file, serialize_scheme_file


def test_catalog_has_at_least_five_entries():
    assert len(catalog_names()) >= 5
    assert catalog_names() == sorted(catalog_names())


def test_unknown_entry():
    with pytest.raises(UnknownName):
        catalog_entry("not-a-scheme")


def test_every_entry_validates(entry):
    for action in entry.automorphisms.values():
        assert validate(entry.scheme, action).valid
    for oracle in entry.oracles.values():
        assert oracle_report(oracle, entry.scheme.rank).valid


def test_every_entry_round_trips(entry):
    text = serialize_scheme_file(entry)
    again = parse_scheme_file(text)
    assert again == entry
    assert serialize_scheme_file(again) == text


def test_wehler_data(wehler):
    comp = wehler.scheme.components[0]
    assert comp.top_form.value_at((0, 0)) == 2
    assert comp.top_form.value_at((1, 1)) == 2
    assert comp.top_form.value_at((0, 1)) == 4
    assert wehler.action("s1").matrix == IntegerMatrix.from_rows([[1, 4], [0, -1]])
    assert wehler.action("s2").matrix == IntegerMatrix.from_rows([[-1, 0], [4, 1]])
    assert (
        wehler.action("s1s2").matrix
        == wehler.action("s1").matrix * wehler.action("s2").matrix
    )
    assert wehler.scheme.euler_char == 2


def test_wehler_generators_are_involutions(wehler):
    for name in ("s1", "s2"):
        m = wehler.action(name).matrix
        assert mat_pow(m, 2) == IntegerMatrix.identity(2)


def test_abelian_square_shear_re_derivation(abelian):
    # the shear matrix must be unipotent with two nonzero nilpotent steps and
    # must preserve the product form; both checked exactly here
    shear = abelian.action("shear").matrix
    assert nilpotency_index(shear) == 2
    assert validate(abelian.scheme, abelian.action("shear")).valid
    assert shear.determinant() == 1


def test_rank_one_entries_have_polyhedral_oracles():
    for name in ("p1", "p2", "pn"):
        sf = catalog_entry(name)
        assert sf.scheme.rank == 1
        assert sf.oracle().facets == ((1,),)


def test_component_dimensions():
    assert catalog_entry("p1").scheme.dim == 1
    assert catalog_entry("p2").scheme.dim == 2
    assert catalog_entry("pn").scheme.dim == 3
    assert catalog_entry("wehler_k3").scheme.dim == 2
    assert catalog_entry("abelian_square").scheme.dim == 2
