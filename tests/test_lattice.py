from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from sigmaample import engine, intmat
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
from sigmaample.numpoly import ZERO, NumericalPolynomial

from conftest import random_divisors, run_bounded


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
        report = validate(wehler.scheme, wehler.action(name))
        assert report.valid, report.failures
    # explicit quadratic form check for s1: transpose * Q * s1 == Q
    q = IntegerMatrix.from_rows([[2, 4], [4, 2]])
    s1 = wehler.action("s1").matrix
    assert s1.transpose() * q * s1 == q


def test_validate_rejects_doubling(wehler):
    doubling = AutomorphismAction("double", IntegerMatrix.from_rows([[2, 0], [0, 2]]))
    report = validate(wehler.scheme, doubling)
    assert not report.valid
    unimodular = [c for c in report.checks if c.name == "unimodular"]
    assert unimodular and not unimodular[0].passed
    assert "det=4" in unimodular[0].detail


def test_validate_lists_failed_basis_tuples(wehler):
    # a shear that is unimodular but not an isometry of the form
    bad = AutomorphismAction("bad", IntegerMatrix.from_rows([[1, 1], [0, 1]]))
    report = validate(wehler.scheme, bad)
    assert not report.valid
    failed = [c for c in report.failures if c.name.startswith("top_form_invariance")]
    assert failed
    assert all("basis tuple" in c.detail for c in failed)


def test_validate_checks_todd_when_asserted(wehler):
    report = validate(wehler.scheme, wehler.action("s1"))
    names = {c.name for c in report.checks}
    assert any(n.startswith("todd[0]") for n in names)


def test_symmetric_form_requires_sorted_indices():
    with pytest.raises(ValueError):
        SymmetricForm(2, 2, (((1, 0), Fraction(1)),))


def test_symmetric_form_evaluation_is_symmetric(abelian):
    comp = abelian.scheme.components[0]
    divisors = random_divisors(3, 5, seed=3)
    for a, b in zip(divisors, divisors[1:]):
        assert intersect(comp, [a, b]) == intersect(comp, [b, a])


def _reference_evaluate(form, vectors):
    """The product loop ``evaluate`` used to run: every index tuple, each
    looked up sorted in the value table."""
    total = Fraction(0)
    for combo in product(range(form.rank), repeat=form.arity):
        term = form.value_at(combo)
        for v, i in zip(vectors, combo):
            term = term * v[i]
        total = total + term
    return total


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_poly = st.lists(small_fraction, max_size=3).map(lambda cs: NumericalPolynomial(tuple(cs)))


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
    return SymmetricForm.from_dict(rank, arity, table), vectors


@settings(max_examples=80, deadline=None)
@given(forms_and_vectors(small_fraction))
def test_evaluate_matches_product_loop(case):
    form, vectors = case
    assert form.evaluate(vectors) == _reference_evaluate(form, vectors)


@settings(max_examples=60, deadline=None)
@given(forms_and_vectors(small_poly))
def test_evaluate_on_polynomials_samples_rational_evaluation(case):
    form, vectors = case
    poly = ZERO + form.evaluate(vectors)
    for m in range(4):
        at_m = [[p.evaluate(m) for p in v] for v in vectors]
        assert poly.evaluate(m) == _reference_evaluate(form, at_m)


def test_evaluate_drops_cancelled_polynomial_entries_in_either_order():
    # the zero polynomial is falsy, so a polynomial entry that cancels is
    # dropped like a rational one and the order of the vectors does not matter
    form = SymmetricForm.from_dict(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    p = NumericalPolynomial.of(1, 1)
    first = form.evaluate([(1, -1), (p, p)])
    second = form.evaluate([(p, p), (1, -1)])
    assert first == second == 0
    assert type(first) is type(second) is Fraction
    assert not ZERO and NumericalPolynomial.of(0, 1)


def test_form_invariance_under_validated_actions(entry):
    for action in entry.automorphisms.values():
        assert validate(entry.scheme, action).valid
        for comp in entry.scheme.components:
            for ds in permutations(random_divisors(entry.scheme.rank, comp.dim, seed=7)):
                images = [apply(action, d) for d in ds]
                assert intersect(comp, list(images)) == intersect(comp, list(ds))


def test_apply_is_linear(entry):
    for action in entry.automorphisms.values():
        a, b = random_divisors(entry.scheme.rank, 2, seed=11)
        assert apply(action, a + b) == apply(action, a) + apply(action, b)


def test_component_requires_matching_todd():
    top = SymmetricForm.from_dict(1, 1, {(0,): 1})
    wrong_top = SymmetricForm.from_dict(1, 1, {(0,): 2})
    todd = (SymmetricForm.from_dict(1, 0, {(): 1}), wrong_top)
    with pytest.raises(ValueError):
        ComponentDescriptor("C", 1, top, todd)


def test_scheme_rejects_rank_mismatch():
    top = SymmetricForm.from_dict(2, 1, {(0,): 1})
    comp = ComponentDescriptor("C", 1, top)
    with pytest.raises(ValueError):
        SchemeDescriptor(3, (comp,))


def test_divisor_class_algebra():
    d = DivisorClass.of(1, -2)
    e = DivisorClass.of(3, 5)
    assert (d + e).coords == (4, 3)
    assert (d - e).coords == (-2, -7)
    assert (3 * d).coords == (3, -6)
    assert (Fraction(1, 2) * d).coords == (Fraction(1, 2), -1)
    assert (-d).coords == (-1, 2)
    assert DivisorClass.of(Fraction(1, 2)).coords[0].denominator == 2


def test_floats_are_rejected_everywhere(wehler):
    with pytest.raises(TypeError):
        DivisorClass.of(1.5, 0)
    with pytest.raises(TypeError):
        0.5 * DivisorClass.of(1, 0)
    with pytest.raises(TypeError):
        SymmetricForm.from_dict(1, 1, {(0,): 1.0})
    with pytest.raises(TypeError):
        IntegerMatrix.from_rows([[1.0]])
    with pytest.raises(TypeError):
        NumericalPolynomial.of(0.1)
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
        "assert validate(scheme, AutomorphismAction('id', IntegerMatrix.identity(12))).valid\n"
    )
    done = run_bounded("-c", code)
    assert (done.returncode, done.stderr) == (0, "")


def test_validate_does_not_recurse_once_per_slot():
    # arity 2000 is past the default recursion limit of 1000
    code = _IMPORTS + (
        "form = SymmetricForm(1, 2000, (((0,) * 2000, 3),))\n"
        "scheme = SchemeDescriptor(1, (ComponentDescriptor('X', 2000, form),))\n"
        "for sign in (1, -1):\n"
        "    report = validate(scheme, AutomorphismAction('a', IntegerMatrix.from_rows([[sign]])))\n"
        "    assert report.valid, report\n"
        "assert form.evaluate([(2,)] * 2000) == 3 * 2 ** 2000\n"
    )
    done = run_bounded("-c", code)
    assert (done.returncode, done.stderr) == (0, "")
