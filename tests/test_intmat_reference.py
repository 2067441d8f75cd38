"""The integer matrix kernels against the routines they replaced.

Products and matrix-vector products run ``sum(map(mul, ...))`` and build
their results without re-checking the entries, ``char_poly`` runs its
Berkowitz inner loop over sliced rows, the squares M^(2^j) are formed once
per matrix and shared by ``mat_pow`` and ``partial_sum``, and the reduced
family is summed on integer numerators. Each is compared with the version
kept in ``reference_intmat`` at ranks 1-20 with entries up to 2^64.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_intmat as ref
import reference_numpoly as rn
from conftest import family_at, linear_combination, random_divisors, reduced_steps, unimodular_matrices
from sigmaample import engine, intmat
from sigmaample.ampleness import is_ample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import NotUnipotent
from sigmaample.intmat import IntegerMatrix, char_poly, mat_pow, nilpotency_index
from sigmaample.lattice import DivisorClass

BIG = 2**64
entries = st.integers(-BIG, BIG)
sizes = st.integers(1, 20)


def square_rows(n: int, values=entries):
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


matrices = sizes.flatmap(square_rows).map(IntegerMatrix)
pairs = sizes.flatmap(lambda n: st.tuples(square_rows(n), square_rows(n))).map(
    lambda rows: tuple(map(IntegerMatrix, rows))
)
fractions = st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG)


def _assert_built(matrix: IntegerMatrix) -> None:
    """Equal to, and hashed like, the checked matrix of the same rows."""
    checked = IntegerMatrix(matrix.rows)
    assert matrix == checked and checked == matrix
    assert hash(matrix) == hash(checked)
    assert type(matrix.rows) is tuple
    assert all(type(row) is tuple and all(type(c) is int for c in row) for row in matrix.rows)


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_product_matches_reference(pair):
    a, b = pair
    product = a * b
    assert product == ref.mul(a, b)
    _assert_built(product)


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_difference_equals_checked_matrix(pair):
    a, b = pair
    built = a - b
    assert built == IntegerMatrix(
        [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]
    )
    _assert_built(built)


def test_built_matrices_keep_the_size_check():
    with pytest.raises(ValueError, match="size mismatch"):
        IntegerMatrix.identity(2) * IntegerMatrix.identity(3)
    with pytest.raises(ValueError, match="size mismatch"):
        IntegerMatrix.identity(2) - IntegerMatrix.identity(3)


def test_public_constructor_still_checks_every_entry():
    with pytest.raises(TypeError):
        IntegerMatrix(((1, Fraction(1, 2)), (0, 1)))
    with pytest.raises(ValueError):
        IntegerMatrix(((1, 2), (3,)))
    # a bool entry is rebuilt as an int, as before
    assert type(IntegerMatrix(((True,),)).rows[0][0]) is int


@settings(max_examples=60, deadline=None)
@given(sizes.flatmap(lambda n: st.tuples(square_rows(n), st.lists(entries, min_size=n, max_size=n))))
def test_column_action_on_integers_matches_reference(case):
    rows, vector = case
    m = IntegerMatrix(rows)
    image = m.column_action(vector)
    assert image == ref.column_action(m, vector)
    assert all(type(c) is int for c in image)


@settings(max_examples=60, deadline=None)
@given(
    sizes.flatmap(lambda n: st.tuples(square_rows(n), st.lists(fractions, min_size=n, max_size=n)))
)
def test_column_action_on_fractions_matches_reference(case):
    rows, vector = case
    m = IntegerMatrix(rows)
    image = m.column_action(vector)
    expected = ref.column_action(m, vector)
    assert image == expected
    assert [type(c) for c in image] == [type(c) for c in expected]


def test_column_action_keeps_the_length_check():
    with pytest.raises(ValueError, match="vector length"):
        IntegerMatrix.identity(3).column_action((1, 2))


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_char_poly_matches_reference(m):
    assert char_poly.__wrapped__(m) == ref.char_poly(m)


@settings(max_examples=40, deadline=None)
@given(sizes.flatmap(lambda n: unimodular_matrices(n, ops=10)), st.integers(0, 40))
def test_mat_pow_matches_reference(m, exponent):
    intmat._square.cache_clear()
    assert mat_pow(m, exponent) == ref.mat_pow(m, exponent)
    # a second power reads the squares the first one formed
    assert mat_pow(m, exponent + 3) == ref.mat_pow(m, exponent + 3)


@settings(max_examples=40, deadline=None)
@given(
    sizes.flatmap(
        lambda n: st.tuples(
            square_rows(n, st.integers(-(2**16), 2**16)),
            st.lists(fractions, min_size=n, max_size=n),
        )
    ),
    st.lists(st.integers(0, 70), min_size=1, max_size=4),
)
def test_partial_sum_matches_reference(case, indices):
    rows, coords = case
    m, d = IntegerMatrix(rows), DivisorClass.of(*coords)
    for index in indices:
        assert engine.partial_sum(m, d, index) == ref.partial_sum(m, d, index)


def _unipotent(n: int):
    """Unitriangular matrices conjugated by unimodular ones."""

    def build(case):
        upper, conjugator = case
        rows = [[1 if i == j else (upper[i][j] if j > i else 0) for j in range(n)] for i in range(n)]
        u = IntegerMatrix(rows)
        return conjugator * u * ref.inverse_unimodular(conjugator)

    return st.tuples(square_rows(n, st.integers(-3, 3)), unimodular_matrices(n, ops=4)).map(build)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(_unipotent), st.lists(fractions, min_size=12, max_size=12))
def test_jordan_index_and_family_match_reference(u, coords):
    assert nilpotency_index(u) == ref.nilpotency_index(u)
    d = DivisorClass.of(*coords[: u.size])
    # the reference's family has degree at most k + 1, so m = 0 .. k + 2 fix it
    family, expected = reduced_steps(u, d), ref.delta_symbolic(u, d)
    for m in range(nilpotency_index(u) + 3):
        assert family_at(family, m) == DivisorClass.of(*(rn.evaluate(p, m) for p in expected))
    # every eigenvalue of 2u is 2: both refuse it
    doubled = IntegerMatrix([[2 * c for c in row] for row in u.rows])
    for index in (nilpotency_index, ref.nilpotency_index):
        with pytest.raises(NotUnipotent):
            index(doubled)


def test_is_ample_matches_reference_on_catalog():
    checked = 0
    for name in catalog_names():
        sf = catalog_entry(name)
        divisors = list(sf.divisors.values()) + random_divisors(sf.scheme.rank, 40)
        halves = [linear_combination((c, d)) for c in (Fraction(1, 2), Fraction(-5, 3)) for d in divisors]
        for oracle in sf.oracles.values():
            for d in divisors + halves:
                assert is_ample(oracle, d) == ref.is_ample(oracle, d), (name, d)
                checked += 1
    assert checked > 500
