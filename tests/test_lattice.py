import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from sigmaample import cli, engine, intmat, intpoly, lattice
from sigmaample.ampleness import PolyhedralCone
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import RankMismatch
from sigmaample.intmat import IntegerMatrix
from sigmaample.lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
    apply,
    intersect,
    validate,
)
from sigmaample.numpoly import NumericalPolynomial

import reference_lattice as ref
import reference_numpoly as rn
from conftest import linear_combination, perfbench_deck, random_divisors, run_bounded


def test_intersection_numbers_wehler(wehler):
    comp = wehler.scheme.components[0]
    h1, h2 = wehler.divisor("H1"), wehler.divisor("H2")
    assert intersect(comp, [h1, h1]) == 2
    assert intersect(comp, [h2, h2]) == 2
    assert intersect(comp, [h1, h2]) == 4
    assert intersect(comp, [h1, DivisorClass.of(0, 0)]) == 0


def test_intersect_arity_checked(wehler):
    comp = wehler.scheme.components[0]
    with pytest.raises(RankMismatch):
        intersect(comp, [wehler.divisor("H1")])


def test_evaluate_checks_arity_and_vector_length(wehler):
    form = wehler.scheme.components[0].top_form
    with pytest.raises(RankMismatch, match="form of arity 2 applied to 3 vectors"):
        form.evaluate([(1, 0)] * 3)
    with pytest.raises(RankMismatch, match="vector length 3 vs rank 2"):
        form.evaluate([(1, 0), (1, 0, 0)])


def test_apply_examples(wehler, abelian):
    s1 = wehler.action("s1")
    assert apply(s1, wehler.divisor("H1")) == DivisorClass.of(1, 0)
    assert apply(wehler.action("id"), wehler.divisor("H2")) == wehler.divisor("H2")
    shear = abelian.action("shear")
    assert apply(shear, DivisorClass.of(1, 1, 1)) == DivisorClass.of(3, 3, -1)


def test_apply_rank_checked(wehler):
    with pytest.raises(RankMismatch):
        apply(wehler.action("s1"), DivisorClass.of(1, 0, 0))


def test_validate_wehler_actions(wehler):
    for name in ("s1", "s2", "s1s2", "id"):
        checks = validate(wehler.scheme, wehler.action(name))
        assert all(c.passed for c in checks), checks
    # explicit quadratic form check for s1: transpose * Q * s1 == Q
    q = IntegerMatrix([[2, 4], [4, 2]])
    s1 = wehler.action("s1").matrix
    assert s1.transpose() * q * s1 == q


def test_validate_rejects_doubling(wehler):
    doubling = AutomorphismAction("double", IntegerMatrix([[2, 0], [0, 2]]))
    checks = validate(wehler.scheme, doubling)
    assert not all(c.passed for c in checks)
    unimodular = [c for c in checks if c.name == "unimodular"]
    assert unimodular and not unimodular[0].passed
    assert "det=4" in unimodular[0].detail


def test_validate_lists_failed_basis_tuples(wehler):
    # a shear that is unimodular but not an isometry of the form
    bad = AutomorphismAction("bad", IntegerMatrix([[1, 1], [0, 1]]))
    checks = validate(wehler.scheme, bad)
    assert not all(c.passed for c in checks)
    failed = [c for c in checks if not c.passed and c.name.startswith("top_form_invariance")]
    assert failed
    assert all("basis tuple" in c.detail for c in failed)


def test_validate_checks_todd_when_asserted(wehler):
    names = {c.name for c in validate(wehler.scheme, wehler.action("s1"))}
    assert any(n.startswith("todd[0]") for n in names)


def test_symmetric_form_requires_sorted_indices():
    with pytest.raises(ValueError):
        SymmetricForm(2, 2, (((1, 0), 1),))


def test_symmetric_form_evaluation_is_symmetric(abelian):
    comp = abelian.scheme.components[0]
    divisors = random_divisors(3, 5, seed=3)
    for a, b in zip(divisors, divisors[1:]):
        assert intersect(comp, [a, b]) == intersect(comp, [b, a])


def _reference_evaluate(form, vectors):
    """The product loop ``evaluate`` used to run: every index tuple, each
    looked up sorted in the value table."""
    values = ref.rational_values(form)
    total = Fraction(0)
    for combo in product(range(form.rank), repeat=form.arity):
        term = values.get(tuple(sorted(combo)), 0)
        for v, i in zip(vectors, combo):
            term = term * v[i]
        total = total + term
    return total


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_poly = st.lists(small_fraction, max_size=3).map(rn.strip)


@st.composite
def forms_and_vectors(draw, coordinate):
    rank = draw(st.integers(1, 6))
    arity = draw(st.integers(0, 3))
    table = {
        index: draw(small_fraction)
        for index in combinations_with_replacement(range(rank), arity)
        if draw(st.booleans())
    }
    vectors = [draw(st.lists(coordinate, min_size=rank, max_size=rank)) for _ in range(arity)]
    return SymmetricForm.of(rank, arity, table.items()), vectors


@settings(max_examples=80, deadline=None)
@given(forms_and_vectors(small_fraction))
def test_evaluate_matches_product_loop(case):
    form, vectors = case
    assert form.evaluate(vectors) == _reference_evaluate(form, vectors)


@settings(max_examples=60, deadline=None)
@given(forms_and_vectors(small_poly))
def test_evaluate_on_polynomials_samples_rational_evaluation(case):
    form, vectors = case
    poly = ref.evaluate_on_polynomials(form, vectors)
    for m in range(4):
        at_m = [[rn.evaluate(p, m) for p in v] for v in vectors]
        assert rn.evaluate(poly, m) == _reference_evaluate(form, at_m)


def test_evaluate_refuses_polynomial_coordinates():
    # forms see only rationals; on the reference's polynomial route an entry
    # that cancels is dropped whatever the order of the vectors
    form = SymmetricForm.of(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1}.items())
    p = NumericalPolynomial([1, 1])
    with pytest.raises(TypeError):
        form.evaluate([(p, p), (1, 0)])
    q = rn.strip((1, 1))
    first = ref.evaluate_on_polynomials(form, [(1, -1), (q, q)])
    second = ref.evaluate_on_polynomials(form, [(q, q), (1, -1)])
    assert first == second == ()


def test_form_invariance_under_validated_actions(entry):
    for action in entry.automorphisms.values():
        assert all(c.passed for c in validate(entry.scheme, action))
        for comp in entry.scheme.components:
            for ds in permutations(random_divisors(entry.scheme.rank, comp.dim, seed=7)):
                images = [apply(action, d) for d in ds]
                assert intersect(comp, list(images)) == intersect(comp, list(ds))


def test_apply_is_linear(entry):
    for action in entry.automorphisms.values():
        a, b = random_divisors(entry.scheme.rank, 2, seed=11)
        for c, e in ((1, 1), (Fraction(1, 2), Fraction(-5, 3))):
            assert apply(action, linear_combination((c, a), (e, b))) == linear_combination(
                (c, apply(action, a)), (e, apply(action, b))
            )


def test_component_requires_matching_todd():
    top = SymmetricForm.of(1, 1, {(0,): 1}.items())
    wrong_top = SymmetricForm.of(1, 1, {(0,): 2}.items())
    todd = (SymmetricForm.of(1, 0, {(): 1}.items()), wrong_top)
    with pytest.raises(ValueError):
        ComponentDescriptor("C", 1, top, todd)


def test_scheme_rejects_rank_mismatch():
    top = SymmetricForm.of(2, 1, {(0,): 1}.items())
    comp = ComponentDescriptor("C", 1, top)
    with pytest.raises(ValueError):
        SchemeDescriptor(3, (comp,))


def test_divisor_class_stored_form():
    # integer numerators over one positive denominator, in lowest terms
    d = DivisorClass((2, -4, 6), 4)
    assert (d.numerators, d.denominator) == ((1, -2, 3), 2)
    assert d == DivisorClass.of(Fraction(1, 2), -1, Fraction(3, 2))
    assert d.coords == (Fraction(1, 2), -1, Fraction(3, 2))
    assert d.rank == 3
    assert DivisorClass((0, 0), 5) == DivisorClass((0, 0))
    assert DivisorClass.of(Fraction(1, 6), Fraction(-3, 4)).denominator == 12
    assert DivisorClass.of() == DivisorClass(())
    assert repr(d) == "DivisorClass(numerators=(1, -2, 3), denominator=2)"
    assert d.__reduce__() == (DivisorClass, ((1, -2, 3), 2))
    for numerators, denominator in (((Fraction(1, 2), 0), 1), ((1, 0.5), 1), ((1, 0), 2.0)):
        with pytest.raises(TypeError):
            DivisorClass(numerators, denominator)
    for denominator in (0, -2):
        with pytest.raises(ValueError):
            DivisorClass((1, 0), denominator)


def test_symmetric_form_stored_form():
    # integer numerators over one positive denominator, zeros dropped, in
    # lowest terms
    form = SymmetricForm.of(2, 1, (((0,), Fraction(2, 4)), ((1,), Fraction(1, 3))))
    assert (form.numerators, form.denominator) == ((((0,), 3), ((1,), 2)), 6)
    assert form == SymmetricForm(2, 1, (((0,), 3), ((1,), 2)), 6)
    assert form == SymmetricForm(2, 1, (((1,), 14), ((0,), 21)), 42)
    assert SymmetricForm.of(2, 1, (((0,), 0), ((1,), 5))).numerators == (((1,), 5),)
    zero = SymmetricForm(2, 2, (((0, 1), 0),), 7)
    assert (zero.numerators, zero.denominator) == ((), 1)
    assert zero == SymmetricForm.of(2, 2, ())
    assert repr(form) == (
        "SymmetricForm(rank=2, arity=1, numerators=(((0,), 3), ((1,), 2)), denominator=6)"
    )
    assert form.__reduce__() == (SymmetricForm, (2, 1, (((0,), 3), ((1,), 2)), 6))
    assert pickle.loads(pickle.dumps(form)) == form
    for value in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            SymmetricForm(2, 1, (((0,), value),))
    for denominator in (0, -1):
        with pytest.raises(ValueError):
            SymmetricForm(2, 1, (((0,), 1),), denominator)


def test_filled_form_is_over_both_denominators(abelian):
    comp = abelian.scheme.components[0]
    a = DivisorClass.of(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
    half = SymmetricForm.of(3, 2, (((0, 1), Fraction(1, 2)), ((2, 2), 1)))
    assert half.filled(a) == SymmetricForm(3, 1, (((0,), 2), ((1,), 3), ((2,), 6)), 12)
    for form in (comp.top_form, half):
        filled = form.filled(a)
        assert filled.arity == 1
        for d in random_divisors(3, 4, seed=5):
            assert filled.evaluate([d.coords]) == form.evaluate([a.coords, d.coords])
    with pytest.raises(RankMismatch):
        half.filled(DivisorClass.of(1, 0))


def test_floats_are_rejected_everywhere(wehler):
    with pytest.raises(TypeError):
        DivisorClass.of(1.5, 0)
    with pytest.raises(TypeError):
        DivisorClass((0.5, 0))
    with pytest.raises(TypeError):
        SymmetricForm.of(1, 1, {(0,): 1.0}.items())
    # a float or str entry of a multi-index or a facet is not truncated or parsed
    with pytest.raises(TypeError):
        SymmetricForm.of(2, 1, {(1.9,): 1}.items())
    for facet in ((1, 0.5), (True, "3")):
        with pytest.raises(TypeError):
            PolyhedralCone(2, (facet,))
    with pytest.raises(TypeError):
        SchemeDescriptor(wehler.scheme.rank, wehler.scheme.components, euler_char=0.1)
    with pytest.raises(TypeError):
        IntegerMatrix([[1.0]])
    with pytest.raises(TypeError):
        NumericalPolynomial([0.1])
    # a float tolerance is refused before any work, on either branch
    s1s2 = wehler.action("s1s2")
    for matrix in (s1s2.matrix, IntegerMatrix.identity(2)):
        with pytest.raises(TypeError):
            engine.classify(matrix, eps=0.001)
    with pytest.raises(TypeError):
        intmat.spectral_radius(s1s2.matrix, 0.001)
    for action in (s1s2, wehler.action("id")):
        with pytest.raises(TypeError):
            engine.growth_report(
                wehler.scheme, action, wehler.oracle(), wehler.divisor("H1plusH2"), 4, 0.001
            )
    # a str or Decimal rational is not parsed: exponent notation would build a
    # 664386-bit denominator from '1e-200000'
    scheme, top = wehler.scheme, wehler.scheme.components[0].top_form
    p = NumericalPolynomial([-2, 0, 1])
    chain = intpoly.sturm_chain(p)
    for leak in (
        lambda: DivisorClass.of("1/2", " 3 "),
        lambda: DivisorClass.of(Decimal("0.5"), 1),
        lambda: SymmetricForm.of(1, 1, [((0,), "2/4")]),
        lambda: SchemeDescriptor(scheme.rank, scheme.components, euler_char="1e3"),
        lambda: intmat.exact_eps("1e-200000"),
        lambda: engine.classify(s1s2.matrix, "1/1000"),
        lambda: intpoly.RationalInterval(0.5, 1.25),
        lambda: intpoly.largest_real_root_interval(p, 0.1, 2.5),
        lambda: intpoly.sign_variations(chain, 0.5),
    ):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            leak()
    # a count is an integer, never a float that would be stored as 2.0
    for leak in (
        lambda: SchemeDescriptor(2.0, scheme.components),
        lambda: ComponentDescriptor("X", 2.0, top),
        lambda: SymmetricForm(2.0, 1, ()),
        lambda: SymmetricForm(2, 1.0, ()),
        lambda: PolyhedralCone(2.0, ((1, 0),)),
    ):
        with pytest.raises(TypeError):
            leak()
    # bool and Fraction still pass, with the values they had
    assert DivisorClass.of(True, 0) == DivisorClass((1, 0))
    assert DivisorClass.of(Fraction(1, 2), 3) == DivisorClass((1, 6), 2)
    assert SymmetricForm.of(1, 1, [((0,), Fraction(2, 4))]) == SymmetricForm(1, 1, (((0,), 1),), 2)
    one = SchemeDescriptor(True, (ComponentDescriptor("X", True, SymmetricForm(True, 1, ())),), 3)
    assert (one.rank, one.components[0].dim, one.euler_char) == (1, 1, Fraction(3))
    assert type(one.rank) is type(one.components[0].dim) is int
    assert intmat.exact_eps(True) == 1 and intmat.exact_eps(Fraction(1, 3)) == Fraction(1, 3)
    assert intpoly.RationalInterval(False, Fraction(5, 4)).hi == Fraction(5, 4)


_IMPORTS = (
    "from math import factorial\n"
    "from sigmaample.intmat import IntegerMatrix\n"
    "from sigmaample.lattice import (\n"
    "    AutomorphismAction, ComponentDescriptor, SchemeDescriptor, SymmetricForm, validate,\n"
    ")\n"
)


def test_entry_with_twelve_distinct_indices():
    # 12! orderings of one entry: the form must not list them
    code = _IMPORTS + (
        "form = SymmetricForm(12, 12, ((tuple(range(12)), 1),))\n"
        "assert form.evaluate([tuple(range(1, 13))] * 12) == factorial(12) ** 2\n"
        "scheme = SchemeDescriptor(12, (ComponentDescriptor('X', 12, form),))\n"
        "checks = validate(scheme, AutomorphismAction('id', IntegerMatrix.identity(12)))\n"
        "assert all(c.passed for c in checks), checks\n"
    )
    done = run_bounded("-c", code)
    assert (done.returncode, done.stderr) == (0, "")


def test_validate_does_not_recurse_once_per_slot():
    # arity 2000 is past the default recursion limit of 1000
    code = _IMPORTS + (
        "form = SymmetricForm(1, 2000, (((0,) * 2000, 3),))\n"
        "scheme = SchemeDescriptor(1, (ComponentDescriptor('X', 2000, form),))\n"
        "for sign in (1, -1):\n"
        "    checks = validate(scheme, AutomorphismAction('a', IntegerMatrix([[sign]])))\n"
        "    assert all(c.passed for c in checks), checks\n"
        "assert form.evaluate([(2,)] * 2000) == 3 * 2 ** 2000\n"
    )
    done = run_bounded("-c", code)
    assert (done.returncode, done.stderr) == (0, "")


def test_forms_see_only_integers_on_the_unipotent_deck(tmp_path, monkeypatch, capsys):
    """Every slot of the benchmark's unipotent deck (seed 7), run in process:
    the kernel is handed only integer tables and vectors, also while the
    conditions, constraints and self-intersection polynomials are built."""
    queries = perfbench_deck("unipotent", 7, tmp_path)
    seen = set()
    original = lattice._contract

    def spy(table, v):
        seen.update(map(type, v), map(type, table.values()))
        return original(table, v)

    monkeypatch.setattr(lattice, "_contract", spy)
    commands = set()
    for query in queries:
        assert cli.main(["--format", "structured", *query["argv"]]) == 0
        commands.add(query["argv"][0])
    capsys.readouterr()
    assert commands == {"sigma-ample", "gkdim", "chi", "growth"}
    assert seen == {int}


def _signature(form: SymmetricForm) -> tuple[int, int]:
    """The numbers of positive and of negative eigenvalues of a bilinear
    form's Gram matrix G, counted exactly: G is symmetric, so det(xI - G) and
    det(xI + G) are real-rooted, and by Descartes' rule the sign variations
    of their coefficients count their positive roots."""
    gram = [[0] * form.rank for _ in range(form.rank)]
    for (i, j), value in form.numerators:
        gram[i][j] = gram[j][i] = value

    def positive_roots(rows) -> int:
        signs = [c > 0 for c in intmat.char_poly(IntegerMatrix(rows)).numerators if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return positive_roots(gram), positive_roots([[-x for x in row] for row in gram])


def test_hodge_index_on_every_surface_form(tmp_path):
    """Every surface's intersection form has exactly one positive eigenvalue,
    on the catalog and on the benchmark's seed-7 salem and unipotent decks."""
    signatures = {
        name: [_signature(c.top_form) for c in catalog_entry(name).scheme.components if c.dim == 2]
        for name in catalog_names()
    }
    assert signatures == {
        "abelian_square": [(1, 2)], "p1": [], "p2": [(1, 0)], "pn": [], "wehler_k3": [(1, 1)],
    }
    surfaces = 0
    for kind in ("salem", "unipotent"):
        for path in {q["input"] for q in perfbench_deck(kind, 7, tmp_path)}:
            scheme = cli.load_input(path).scheme
            for comp in scheme.components:
                if comp.dim == 2:
                    assert _signature(comp.top_form) == (1, scheme.rank - 1), path
                    surfaces += 1
    assert surfaces == 63
