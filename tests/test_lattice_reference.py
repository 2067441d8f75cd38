"""The integer multilinear kernel against the Fraction references.

``SymmetricForm.evaluate`` fills one slot at a time of a table with integral
values held as ``int``; ``validate`` fills the slots with the integer columns
of the matrix, sharing filled prefixes; ``nilpotent_steps`` and
``euler_char_series`` iterate on integer numerators. Each is compared with
the routine it replaced (kept in ``reference_lattice``, which lists every
index ordering): the values, the whole ``ValidationReport`` (failing-tuple
order and detail strings included), the step lists and the Euler
characteristics of fractional classes.
"""
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from hypothesis import given, settings, strategies as st

import reference_lattice as ref
from conftest import nilpotent_steps, unimodular_matrices
from sigmaample import engine
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.intmat import IntegerMatrix
from sigmaample.lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
    validate,
)
from sigmaample.numpoly import ZERO, NumericalPolynomial

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
    return SymmetricForm.from_dict(rank, arity, table)


def _pullback(form, matrix):
    """The form F(M -, ..., M -), by the reference kernel on basis images."""
    columns = [tuple(Fraction(c) for c in col) for col in zip(*matrix.rows)]
    return SymmetricForm.from_dict(form.rank, form.arity, {
        index: ref.evaluate(form, [columns[i] for i in index])
        for index in combinations_with_replacement(range(form.rank), form.arity)
    })


def _symmetrized(form, involution):
    """F + F o M, which an involution M preserves."""
    pulled = _pullback(form, involution)
    table = dict(form.values)
    for index, value in pulled.values:
        table[index] = table.get(index, 0) + value
    return SymmetricForm.from_dict(form.rank, form.arity, table)


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
    return p * IntegerMatrix.from_rows(rows) * p.inverse_unimodular()


def _matrices(n):
    return st.one_of(
        unimodular_matrices(n, ops=2 * n, magnitude=2),
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
        ).map(IntegerMatrix.from_rows),
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
    st.lists(coordinates, max_size=3).map(lambda cs: NumericalPolynomial(tuple(cs)))
))
def test_evaluate_on_polynomials_matches_reference(case):
    form, vectors = case
    got = form.evaluate(vectors)
    assert ZERO + got == ZERO + ref.evaluate(form, vectors)
    # cancelled entries are dropped, polynomial ones too: a zero result is
    # Fraction(0) and a nonzero one of positive arity a polynomial
    assert type(got) is (NumericalPolynomial if form.arity and got else Fraction)


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


@st.composite
def unipotent_matrices(draw, n):
    """P T P^-1 for an upper unitriangular T and unimodular P."""
    rows = [
        [int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(n)]
        for i in range(n)
    ]
    p = draw(unimodular_matrices(n, ops=n, magnitude=2))
    return p * IntegerMatrix.from_rows(rows) * p.inverse_unimodular()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    unipotent_matrices(n),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=n, max_size=n
    ).map(lambda cs: DivisorClass(tuple(cs))),
)))
def test_nilpotent_steps_match_reference(case):
    matrix, divisor = case
    assert nilpotent_steps(matrix, divisor) == ref.nilpotent_steps(matrix, divisor)


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
    ).map(lambda cs: DivisorClass(tuple(cs))),
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
