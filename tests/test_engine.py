from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sigmaample import engine, intmat
from sigmaample.ampleness import is_ample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import MissingToddData, NotAmple, NotQuasiUnipotent, NotUnipotent
from sigmaample.intmat import IntegerMatrix, mat_pow, quasi_unipotence
from sigmaample.lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
)
from sigmaample.numpoly import ZERO, binomial_basis

from conftest import delta_symbolic, power_symbolic, random_divisors, unimodular_matrices


# --- classification ---------------------------------------------------------


def test_classify_identity(wehler):
    cls = engine.classify(wehler.action("id").matrix)
    assert cls.quasi_unipotent
    assert cls.unipotent_power == 1
    assert cls.jordan_index == 0


def test_classify_wehler_composite(wehler):
    cls = engine.classify(wehler.action("s1s2").matrix)
    assert not cls.quasi_unipotent
    assert (cls.unipotent_power, cls.jordan_index) == (None, None)
    assert cls.radius.lo > 1
    assert cls.radius.width <= Fraction(1, 1000)
    # encloses 7 + 4 sqrt(3)
    assert (cls.radius.hi - 7) ** 2 >= 48
    assert cls.radius.lo <= 7 or (cls.radius.lo - 7) ** 2 <= 48


def test_classify_shear(abelian):
    cls = engine.classify(abelian.action("shear").matrix)
    assert cls.quasi_unipotent
    assert cls.unipotent_power == 1
    assert cls.jordan_index == 2


def test_classify_swap(abelian):
    cls = engine.classify(abelian.action("swap").matrix)
    assert (cls.unipotent_power, cls.jordan_index) == (2, 0)


# --- symbolic partial sums ---------------------------------------------------


def test_delta_symbolic_identity_action():
    family = delta_symbolic(IntegerMatrix.identity(2), DivisorClass.of(3, -1))
    m = binomial_basis(1)
    assert family == (3 * m, -1 * m)


def test_delta_symbolic_single_jordan_block():
    p = IntegerMatrix.from_rows([[1, 1], [0, 1]])
    family = delta_symbolic(p, DivisorClass.of(0, 1))
    assert family == (binomial_basis(2), binomial_basis(1))


def test_delta_symbolic_requires_unipotent(wehler):
    with pytest.raises(NotUnipotent):
        delta_symbolic(wehler.action("s1").matrix, wehler.divisor("H1"))


def test_delta_symbolic_agrees_with_direct_sum(abelian):
    shear = abelian.action("shear").matrix
    d = abelian.divisor("D111")
    family = delta_symbolic(shear, d)
    direct2 = engine.partial_sum(shear, d, 2)
    assert direct2 == DivisorClass.of(4, 4, 0)
    for m in range(0, 26):
        at = DivisorClass.of(*(p.evaluate(m) for p in family))
        assert at == engine.partial_sum(shear, d, m)


def test_power_symbolic_reproduces_matrix_powers(abelian):
    shear = abelian.action("shear").matrix
    d = abelian.divisor("diag")
    family = power_symbolic(shear, d)
    for m in range(0, 12):
        expected = DivisorClass(mat_pow(shear, m).column_action(d.coords))
        assert DivisorClass.of(*(p.evaluate(m) for p in family)) == expected


# --- sigma-ampleness ----------------------------------------------------------


def test_sigma_ample_involution(wehler):
    verdict = engine.is_sigma_ample(
        wehler.scheme, wehler.action("s1"), wehler.oracle(), wehler.divisor("H1")
    )
    assert verdict.sigma_ample
    assert verdict.unipotent_power == 2
    assert verdict.witness == 1
    assert verdict.reason is None


def test_sigma_ample_fails_for_composite(wehler):
    verdict = engine.is_sigma_ample(
        wehler.scheme, wehler.action("s1s2"), wehler.oracle(), wehler.divisor("H1")
    )
    assert not verdict.sigma_ample
    assert verdict.reason == "not-quasi-unipotent"


def test_sigma_ample_negative_class(wehler):
    verdict = engine.is_sigma_ample(
        wehler.scheme, wehler.action("id"), wehler.oracle(), wehler.divisor("minusH1")
    )
    assert not verdict.sigma_ample
    assert verdict.reason == "no-ample-partial-sum"


def test_sigma_ample_zero_class(wehler):
    verdict = engine.is_sigma_ample(
        wehler.scheme, wehler.action("id"), wehler.oracle(), DivisorClass.of(0, 0)
    )
    assert not verdict.sigma_ample
    assert verdict.reason == "no-ample-partial-sum"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verdict_family_is_the_reduced_partial_sums(data):
    sf = catalog_entry(data.draw(st.sampled_from(catalog_names())))
    action = sf.action(data.draw(st.sampled_from(sorted(sf.automorphisms))))
    coords = data.draw(
        st.lists(
            st.fractions(-6, 6, max_denominator=3),
            min_size=sf.scheme.rank,
            max_size=sf.scheme.rank,
        )
    )
    divisor = DivisorClass.of(*coords)
    verdict = engine.is_sigma_ample(sf.scheme, action, sf.oracle(), divisor)
    q = quasi_unipotence(action.matrix)
    if q is None:
        assert (verdict.unipotent_power, verdict.family) == (None, ())
        return
    assert verdict.unipotent_power == q
    reduced_matrix = mat_pow(action.matrix, q)
    reduced_divisor = engine.partial_sum(action.matrix, divisor, q)
    for m in range(6):
        expected = engine.partial_sum(reduced_matrix, reduced_divisor, m)
        assert DivisorClass.of(*(p.evaluate(m) for p in verdict.family)) == expected


# --- GK dimension --------------------------------------------------------------


def test_gk_dimension_rank_one_models():
    from sigmaample.catalog import catalog_entry

    assert engine.gk_profile(*_std(catalog_entry("p2"))).gk_dimension == 3
    assert engine.gk_profile(*_std(catalog_entry("p1"))).gk_dimension == 2
    assert engine.gk_profile(*_std(catalog_entry("pn"))).gk_dimension == 4


def _std(sf):
    return sf.scheme, sf.action("id"), sf.oracle(), sf.divisor("D")


def test_gk_dimension_wehler_involution(wehler):
    gk = engine.gk_profile(
        wehler.scheme, wehler.action("s1"), wehler.oracle(), wehler.divisor("H1")
    ).gk_dimension
    assert gk == 3


def test_gk_profile_abelian_shear(abelian):
    profile = engine.gk_profile(
        abelian.scheme, abelian.action("shear"), abelian.oracle(), abelian.divisor("D111")
    )
    assert profile.gk_dimension == 5
    poly = profile.components[0].polynomial
    assert poly.degree == 4
    assert poly.leading == Fraction(2, 3)


def test_gk_requires_quasi_unipotent(wehler):
    with pytest.raises(NotQuasiUnipotent):
        engine.gk_profile(
            wehler.scheme, wehler.action("s1s2"), wehler.oracle(), wehler.divisor("H1")
        )


def test_gk_rejects_hopeless_class(wehler):
    with pytest.raises(NotAmple):
        engine.gk_profile(
            wehler.scheme, wehler.action("id"), wehler.oracle(), wehler.divisor("minusH1")
        )
    with pytest.raises(NotAmple):
        engine.gk_profile(
            wehler.scheme, wehler.action("id"), wehler.oracle(), DivisorClass.of(0, 0)
        )


def test_gk_accepts_sigma_ample_but_not_ample_class(abelian):
    # fiber1 is nef, not ample; its partial sums under the shear become ample
    verdict = engine.is_sigma_ample(
        abelian.scheme, abelian.action("shear"), abelian.oracle(), abelian.divisor("fiber1")
    )
    assert verdict.sigma_ample
    gk = engine.gk_profile(
        abelian.scheme, abelian.action("shear"), abelian.oracle(), abelian.divisor("fiber1")
    ).gk_dimension
    assert gk == 5


def test_gk_profile_of_ample_class_runs_no_witness_search(abelian, monkeypatch):
    from sigmaample import ampleness

    searches = []
    search = ampleness.exists_common_positive
    monkeypatch.setattr(
        ampleness, "exists_common_positive", lambda ps: searches.append(ps) or search(ps)
    )
    args = abelian.scheme, abelian.action("shear"), abelian.oracle()
    assert engine.gk_profile(*args, abelian.divisor("D111")).gk_dimension == 5
    assert searches == []
    # a class that is only sigma-ample needs its witness
    assert engine.gk_profile(*args, abelian.divisor("fiber1")).gk_dimension == 5
    assert len(searches) == 1


def test_gk_profile_error_order(wehler):
    from sigmaample.errors import InvalidSchemeData, RankMismatch

    wrong_rank = DivisorClass.of(-1, 0, 0)
    bogus = AutomorphismAction("bogus", IntegerMatrix.from_rows([[1, 1], [0, 1]]))
    cases = [
        (bogus, InvalidSchemeData),
        (wehler.action("s1s2"), NotQuasiUnipotent),
        (wehler.action("id"), RankMismatch),
    ]
    for action, error in cases:
        with pytest.raises(error):
            engine.gk_profile(wehler.scheme, action, wehler.oracle(), wrong_rank)


def _components_at_direct_power(sf, action, divisor, power):
    """Self-intersection polynomials of the partial sums taken at the given
    step, built from the matrix power and the summed divisor directly."""
    family = delta_symbolic(
        mat_pow(action.matrix, power), engine.partial_sum(action.matrix, divisor, power)
    )
    return [ZERO + comp.top_form.evaluate([family] * comp.dim) for comp in sf.scheme.components]


def test_gk_profile_of_sigma_ample_class_matches_direct_power():
    checked = 0
    for name in catalog_names():
        sf = catalog_entry(name)
        oracle = sf.oracle()
        divisors = list(sf.divisors.values()) + random_divisors(sf.scheme.rank, 30)
        for action in sf.automorphisms.values():
            if quasi_unipotence(action.matrix) is None:
                continue
            for divisor in divisors:
                verdict = engine.is_sigma_ample(sf.scheme, action, oracle, divisor)
                if is_ample(oracle, divisor) or not verdict.sigma_ample:
                    continue
                profile = engine.gk_profile(sf.scheme, action, oracle, divisor)
                power = verdict.unipotent_power * verdict.witness
                assert profile.reduced_power == power
                assert [c.polynomial for c in profile.components] == _components_at_direct_power(
                    sf, action, divisor, power
                )
                checked += 1
    assert checked >= 10


# --- Euler characteristics ------------------------------------------------------


def test_chi_series_wehler(wehler):
    series = engine.euler_char_series(
        wehler.scheme, wehler.action("id"), wehler.divisor("H1"), 4
    )
    # chi(m H1) = m^2 + 2
    assert series == [3, 6, 11, 18]


def test_chi_series_degree_one_on_line():
    from sigmaample.catalog import catalog_entry

    p1 = catalog_entry("p1")
    series = engine.euler_char_series(p1.scheme, p1.action("id"), p1.divisor("D"), 5)
    assert series[-1] == 6  # chi(O(5)) = 5 + 1


def test_chi_series_zero_class_gives_constant(entry):
    if not entry.scheme.has_todd:
        pytest.skip("entry without Todd data")
    zero = DivisorClass((0,) * entry.scheme.rank)
    series = engine.euler_char_series(entry.scheme, entry.action("id"), zero, 3)
    constant = sum(
        (c.todd[0].value_at(()) for c in entry.scheme.components), Fraction(0)
    )
    assert series == [constant] * 3
    if entry.scheme.euler_char is not None:
        assert constant == entry.scheme.euler_char


def test_chi_series_requires_todd(wehler):
    comp = wehler.scheme.components[0]
    stripped = SchemeDescriptor(
        2, (ComponentDescriptor(comp.name, comp.dim, comp.top_form, None),)
    )
    with pytest.raises(MissingToddData):
        engine.euler_char_series(stripped, wehler.action("id"), wehler.divisor("H1"), 2)


def test_chi_series_works_for_non_quasi_unipotent(wehler):
    series = engine.euler_char_series(
        wehler.scheme, wehler.action("s1s2"), wehler.divisor("H1plusH2"), 3
    )
    assert all(v > 0 for v in series)
    assert series[0] == 8  # (H1+H2)^2 / 2 + 2


# --- growth -----------------------------------------------------------------------


def test_growth_polynomial_branch(wehler):
    report = engine.growth_report(
        wehler.scheme, wehler.action("s1"), wehler.oracle(), wehler.divisor("H1")
    )
    assert report.radius is None
    assert report.gk_dimension == 3
    assert report.hilbert_degree == 2


def test_growth_p2_identity():
    from sigmaample.catalog import catalog_entry

    p2 = catalog_entry("p2")
    report = engine.growth_report(*_std(p2))
    assert report == engine.GrowthReport(3, None, (), None)


def test_growth_exponential_branch(wehler):
    report = engine.growth_report(
        wehler.scheme,
        wehler.action("s1s2"),
        wehler.oracle(),
        wehler.divisor("H1plusH2"),
        m_max=12,
    )
    assert (report.gk_dimension, report.hilbert_degree) == (None, None)
    assert len(report.ratio_samples) == 12
    assert report.threshold_exceeded
    # consecutive ratios approach the spectral radius
    last = report.ratio_samples[-1]
    target = Fraction(139282, 10000)
    assert abs(last - target) <= Fraction(2, 100) * target


def _count_reduction_work(monkeypatch):
    """Clear the reduction and square caches and count the matrix powers,
    the Jordan-index computations and the squares M * M formed from here on,
    wherever they are called from. ``calls["squares"]`` counts the products
    of a matrix object with itself, ``calls["squared"]`` the distinct
    matrices squared."""
    intmat.unipotent_reduction.cache_clear()
    intmat._square.cache_clear()
    calls = {"mat_pow": 0, "nilpotency_index": 0, "squares": 0, "squared": 0}
    for name in ("mat_pow", "nilpotency_index"):

        def counted(*args, _name=name, _original=getattr(intmat, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (intmat, engine):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    squared = set()

    def product(left, right, _original=IntegerMatrix.__mul__):
        if left is right:
            squared.add(left)
            calls["squares"] += 1
            calls["squared"] = len(squared)
        return _original(left, right)

    monkeypatch.setattr(IntegerMatrix, "__mul__", product)
    return calls


def test_growth_reduces_a_quasi_unipotent_action_once(abelian, monkeypatch):
    calls = _count_reduction_work(monkeypatch)
    report = engine.growth_report(
        abelian.scheme, abelian.action("shear"), abelian.oracle(), abelian.divisor("D111")
    )
    assert report == engine.GrowthReport(5, None, (), None)
    # q = 1; the one square is (M - I)^2 in the Jordan index
    assert calls == {"mat_pow": 1, "nilpotency_index": 1, "squares": 1, "squared": 1}


def test_sigma_ample_batch_reduces_each_action_once(wehler, monkeypatch):
    calls = _count_reduction_work(monkeypatch)
    verdicts = [
        engine.is_sigma_ample(wehler.scheme, wehler.action(a), wehler.oracle(), wehler.divisor(d))
        for a in ("s1", "s2")
        for d in ("H1", "H2", "H1plusH2", "minusH1")
    ]
    assert {v.unipotent_power for v in verdicts} == {2}
    assert calls == {"mat_pow": 2, "nilpotency_index": 2, "squares": 2, "squared": 2}


def test_sigma_ample_batch_forms_each_square_once(wehler, monkeypatch):
    """M^q and the q-fold partial sum of every divisor read the same squares:
    four divisors over one action with q = 2 square the matrix once, not
    once for M^2 and once more per divisor."""
    calls = _count_reduction_work(monkeypatch)
    verdicts = [
        engine.is_sigma_ample(wehler.scheme, wehler.action("s1"), wehler.oracle(), wehler.divisor(d))
        for d in ("H1", "H2", "H1plusH2", "minusH1")
    ]
    assert {v.unipotent_power for v in verdicts} == {2}
    assert calls == {"mat_pow": 1, "nilpotency_index": 1, "squares": 1, "squared": 1}


def test_partial_sums_at_many_indices_form_each_square_once(abelian, monkeypatch):
    calls = _count_reduction_work(monkeypatch)
    shear = abelian.action("shear").matrix
    for m in (5, 17, 40, 64):
        for name in ("D111", "minusD"):
            engine.partial_sum(shear, abelian.divisor(name), m)
    # the squares M^(2^j), j = 1 .. 6, read by m = 64
    assert calls["squares"] == calls["squared"] == 6


def test_growth_requires_ample(wehler):
    with pytest.raises(NotAmple):
        engine.growth_report(
            wehler.scheme, wehler.action("s1s2"), wehler.oracle(), wehler.divisor("minusH1")
        )


# --- misc -------------------------------------------------------------------------


def test_partial_sum_accumulates(abelian):
    shear = abelian.action("shear").matrix
    d = abelian.divisor("D111")
    assert engine.partial_sum(shear, d, 0) == DivisorClass.of(0, 0, 0)
    assert engine.partial_sum(shear, d, 1) == d
    assert engine.partial_sum(shear, d, 2) == DivisorClass.of(4, 4, 0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        unimodular_matrices(n, ops=2 * n),
        st.lists(st.fractions(-9, 9, max_denominator=12), min_size=n, max_size=n),
    )),
    st.integers(0, 40),
)
def test_partial_sum_matches_fraction_accumulation(matrix_and_coords, m):
    matrix, coords = matrix_and_coords
    divisor = DivisorClass(tuple(coords))
    total, current = DivisorClass((0,) * divisor.rank), divisor
    for _ in range(m):
        total = total + current
        current = DivisorClass(matrix.column_action(current.coords))
    assert engine.partial_sum(matrix, divisor, m) == total


def test_invalid_action_rejected(wehler):
    from sigmaample.errors import InvalidSchemeData

    bogus = AutomorphismAction("bogus", IntegerMatrix.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(InvalidSchemeData):
        engine.is_sigma_ample(wehler.scheme, bogus, wehler.oracle(), wehler.divisor("H1"))


def _mixed_dimension_scheme():
    # disjoint union of a curve (coordinate 0) and a surface (coordinate 1)
    from sigmaample.ampleness import PolyhedralCone
    from sigmaample.lattice import SymmetricForm

    curve_form = SymmetricForm.from_dict(2, 1, {(0,): 1})
    surface_form = SymmetricForm.from_dict(2, 2, {(1, 1): 2})
    curve = ComponentDescriptor(
        "C", 1, curve_form, (SymmetricForm.from_dict(2, 0, {(): 1}), curve_form)
    )
    surface = ComponentDescriptor(
        "S",
        2,
        surface_form,
        (
            SymmetricForm.from_dict(2, 0, {(): 1}),
            SymmetricForm.from_dict(2, 1, {(1,): 1}),
            surface_form,
        ),
    )
    scheme = SchemeDescriptor(2, (curve, surface))
    oracle = PolyhedralCone(2, ((1, 0), (0, 1)))
    ident = AutomorphismAction("id", IntegerMatrix.identity(2), todd_invariant=True)
    return scheme, ident, oracle


def test_multi_component_scheme_takes_max_degree():
    scheme, ident, oracle = _mixed_dimension_scheme()
    d = DivisorClass.of(1, 1)
    profile = engine.gk_profile(scheme, ident, oracle, d)
    degrees = {c.name: c.polynomial.degree for c in profile.components}
    assert degrees == {"C": 1, "S": 2}
    assert profile.gk_dimension == 3


def test_multi_component_chi_sums_components():
    scheme, ident, oracle = _mixed_dimension_scheme()
    series = engine.euler_char_series(scheme, ident, DivisorClass.of(1, 1), 4)
    # (1 + m) from the curve plus (1 + m + m^2) from the surface
    assert series == [m * m + 2 * m + 2 for m in range(1, 5)]
    report = engine.growth_report(scheme, ident, oracle, DivisorClass.of(1, 1))
    assert report == engine.GrowthReport(3, None, (), None)
