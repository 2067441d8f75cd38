"""The integer multilinear kernel against the Fraction references.

``SymmetricForm.evaluate`` fills one slot at a time of a table of integer
numerators over one denominator; ``validate`` fills the slots with the integer columns
of the matrix, sharing filled prefixes; ``nilpotent_steps`` (the conftest
helper; the engine's family builder steps the same way and is checked
against ``reference_intmat.delta_symbolic`` in ``test_intmat_reference``) and
``euler_char_series`` iterate on integer numerators. Each is compared with
the routine it replaced (kept in ``reference_lattice``, which lists every
index ordering): the values, the whole tuple of checks (failing-tuple
order and detail strings included), the step lists and the Euler
characteristics of fractional classes. The family's integer vectors are
sampled against the reference's polynomial family, and the polynomials in m
that the package sums from a form's table on those vectors (the oracle
constraints, the GK self-intersections) are compared with the reference's
route, which contracts forms with polynomial coordinates.
"""
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from hypothesis import assume, given, settings, strategies as st

import reference_lattice as ref
import reference_numpoly as rn
from conftest import (
    family_at,
    linear_combination,
    nilpotent_steps,
    unimodular_matrices,
    unipotent_matrices,
)
from reference_intmat import inverse_unimodular
from sigmaample import engine
from sigmaample.ampleness import PolyhedralCone, SurfacePositiveCone, symbolic_constraints
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.intmat import IntegerMatrix, UnipotentReduction, nilpotency_index
from sigmaample.lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
    validate,
)
from sigmaample.numpoly import symmetric_binomial_sum

integral_values = st.integers(-4, 4)
rational_values = st.one_of(
    integral_values, st.fractions(min_value=-4, max_value=4, max_denominator=12)
)


@st.composite
def forms(draw, rank, arity, values=rational_values):
    table = {
        index: draw(values)
        for index in combinations_with_replacement(range(rank), arity)
        if draw(st.booleans())
    }
    return SymmetricForm.of(rank, arity, table.items())


def _pullback(form, matrix):
    """The form F(M -, ..., M -), by the reference kernel on basis images."""
    columns = [tuple(Fraction(c) for c in col) for col in zip(*matrix.rows)]
    return SymmetricForm.of(form.rank, form.arity, (
        (index, ref.evaluate(form, [columns[i] for i in index]))
        for index in combinations_with_replacement(range(form.rank), form.arity)
    ))


def _symmetrized(form, involution):
    """F + F o M, which an involution M preserves."""
    pulled = _pullback(form, involution)
    table = ref.rational_values(form)
    for index, value in ref.rational_values(pulled).items():
        table[index] = table.get(index, 0) + value
    return SymmetricForm.of(form.rank, form.arity, table.items())


@st.composite
def involutions(draw, n):
    """P S P^-1 for a signed permutation involution S and unimodular P."""
    order = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        sign = draw(st.sampled_from((1, -1)))
        if i + 1 < n and draw(st.booleans()):
            a, b = order[i], order[i + 1]
            rows[a][b] = rows[b][a] = sign
            i += 2
        else:
            rows[order[i]][order[i]] = sign
            i += 1
    p = draw(unimodular_matrices(n, ops=n, magnitude=2))
    return p * IntegerMatrix(rows) * inverse_unimodular(p)


def _matrices(n):
    return st.one_of(
        unimodular_matrices(n, ops=2 * n, magnitude=2),
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        ).map(IntegerMatrix),
    )


@st.composite
def schemes_and_actions(draw):
    """A scheme of one or two components of dimension 1-4 (Todd data or
    not) and an action that preserves every form, only some of them, or
    none (a raw matrix, or an identity of the wrong size)."""
    n = draw(st.integers(1, 4))
    invariant = draw(st.booleans())
    matrix = draw(involutions(n) if invariant else _matrices(n))

    def form(arity, values):
        f = draw(forms(n, arity, values))
        return _symmetrized(f, matrix) if invariant and draw(st.integers(0, 4)) else f

    components = []
    for c in range(draw(st.integers(1, 2))):
        dim = draw(st.integers(1, 4))
        top = form(dim, integral_values)
        todd = None
        if draw(st.booleans()):
            todd = tuple(form(j, rational_values) for j in range(dim)) + (top,)
        components.append(ComponentDescriptor(f"c{c}", dim, top, todd))
    if draw(st.integers(0, 9)) == 0:
        matrix = IntegerMatrix.identity(n + 1)
    scheme = SchemeDescriptor(n, tuple(components))
    return scheme, AutomorphismAction("a", matrix, draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(schemes_and_actions())
def test_validate_matches_reference_report(case):
    scheme, action = case
    assert validate(scheme, action) == ref.validate(scheme, action)


def test_validate_matches_reference_on_catalog():
    for name in catalog_names():
        sf = catalog_entry(name)
        for action in sf.automorphisms.values():
            for asserted in (False, True):
                a = AutomorphismAction(action.name, action.matrix, asserted)
                assert validate(sf.scheme, a) == ref.validate(sf.scheme, a)


@st.composite
def forms_and_vectors(draw, coordinate):
    """A form of arity 0-5 and its vectors, drawn from a pool of one to
    ``arity`` vectors: a pool of one gives the diagonal T(v, ..., v), a
    larger one repeated and distinct vectors mixed."""
    arity = draw(st.integers(0, 5))
    rank = draw(st.integers(1, 5 if arity <= 3 else 4))
    form = draw(forms(rank, arity))
    pool = [
        draw(st.lists(coordinate, min_size=rank, max_size=rank))
        for _ in range(draw(st.integers(1, max(arity, 1))))
    ]
    vectors = [draw(st.sampled_from(pool)) for _ in range(arity)]
    return form, vectors


coordinates = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@settings(max_examples=150, deadline=None)
@given(forms_and_vectors(coordinates))
def test_evaluate_matches_reference(case):
    form, vectors = case
    got = form.evaluate(vectors)
    assert got == ref.evaluate(form, vectors)
    assert type(got) is Fraction


@settings(max_examples=60, deadline=None)
@given(forms_and_vectors(
    st.lists(coordinates, max_size=3).map(rn.strip)
))
def test_evaluate_on_polynomials_matches_reference(case):
    """The reference's contraction route on polynomial coordinates against
    its route over every index ordering."""
    form, vectors = case
    got = ref.evaluate_on_polynomials(form, vectors)
    assert got == ref._lift(ref.evaluate(form, vectors))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rank: st.tuples(
    st.integers(0, 3).flatmap(lambda arity: forms(rank, arity, integral_values)),
    st.lists(
        st.lists(st.integers(-5, 5), min_size=rank, max_size=rank).map(
            lambda cs: DivisorClass(tuple(cs))
        ),
        min_size=3,
        max_size=3,
    ),
)))
def test_evaluate_on_divisor_classes_is_a_fraction(case):
    """Integral forms on class coordinates still give a Fraction, so a
    division such as chi's ``value / j!`` stays exact."""
    form, divisors = case
    value = form.evaluate([d.coords for d in divisors[: form.arity]])
    assert type(value) is Fraction
    assert type(value / 6) is Fraction


def fractional_classes(n):
    return st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=n, max_size=n
    ).map(lambda cs: DivisorClass.of(*cs))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(unipotent_matrices(n), fractional_classes(n))))
def test_nilpotent_steps_match_reference(case):
    matrix, divisor = case
    assert nilpotent_steps(matrix, divisor) == ref.nilpotent_steps(matrix, divisor)


@st.composite
def unipotent_cases(draw):
    """A unipotent action at rank 2-10, a class with fractional coordinates,
    an integral surface form T and threefold form, and both oracle kinds: a
    cone of 1-3 facets, and the surface cone of T with a fractional
    reference class A and up to two obstructions C, each signed so that
    (A.C) > 0."""
    n = draw(st.integers(2, 10))
    surface = draw(forms(n, 2, integral_values))
    reference = draw(fractional_classes(n))
    assume(surface.evaluate([reference.coords] * 2) > 0)
    obstructions = []
    for c in draw(st.lists(fractional_classes(n), max_size=2)):
        pairing = surface.evaluate([reference.coords, c.coords])
        assume(pairing != 0)
        obstructions.append(linear_combination((1 if pairing > 0 else -1, c)))
    facets = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(tuple)
    oracles = (
        PolyhedralCone(n, tuple(draw(st.lists(facets, min_size=1, max_size=3)))),
        SurfacePositiveCone(
            ComponentDescriptor("S", 2, surface), reference, tuple(obstructions)
        ),
    )
    forms_ = (surface, draw(forms(n, 3, integral_values)))
    return draw(unipotent_matrices(n)), draw(fractional_classes(n)), oracles, forms_


@settings(max_examples=40, deadline=None)
@given(unipotent_cases())
def test_constraints_and_gk_polynomials_match_reference(case):
    """The family's integer vectors sample the reference's family, and both
    oracles' constraints and the self-intersection polynomials at steps 1,
    2 and 5, as ``gk_profile`` sums them, are each a form's table on those
    vectors summed over products of binomials. The reference builds the
    family as polynomials from ``Fraction`` steps and contracts forms with
    them."""
    matrix, divisor, oracles, forms_ = case
    reduction = UnipotentReduction(1, matrix, nilpotency_index(matrix))
    reduced, vectors = engine._nilpotent_steps(matrix, reduction, divisor)
    denom = reduced.denominator
    family = ref.family_at_step(matrix, divisor, 1)
    # the family has degree below len(vectors), so these points fix it
    for m in range(len(vectors)):
        at_m = DivisorClass.of(*(rn.evaluate(p, m) for p in family))
        assert family_at((denom, vectors), m) == at_m
    for oracle in oracles:
        got = [p.coeffs for p in symbolic_constraints(oracle, denom, vectors)]
        assert got == ref.symbolic_constraints(oracle, family)
    for w in (1, 2, 5):
        at_w = ref.family_at_step(matrix, divisor, w)
        for form in forms_:
            got = symmetric_binomial_sum(form.step_table(vectors), denom**form.arity, w)
            assert got.coeffs == ref.evaluate_on_polynomials(form, [at_w] * form.arity)


TODD_ENTRIES = [
    catalog_entry(name) for name in catalog_names() if catalog_entry(name).scheme.has_todd
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TODD_ENTRIES).flatmap(lambda sf: st.tuples(
    st.just(sf),
    st.sampled_from(sorted(sf.automorphisms)),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        min_size=sf.scheme.rank,
        max_size=sf.scheme.rank,
    ).map(lambda cs: DivisorClass.of(*cs)),
)))
def test_euler_char_series_matches_reference_on_fraction_partial_sums(case):
    sf, name, divisor = case
    action = sf.action(name)
    series = engine.euler_char_series(sf.scheme, action, divisor, 5)
    expected = [
        sum(
            (
                ref.evaluate(form, [engine.partial_sum(action.matrix, divisor, m).coords] * j)
                / factorial(j)
                for comp in sf.scheme.components
                for j, form in enumerate(comp.todd)
            ),
            Fraction(0),
        )
        for m in range(1, 6)
    ]
    assert series == expected
    assert all(type(v) is Fraction for v in series)
