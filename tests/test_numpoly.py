from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sigmaample.numpoly import (
    NumericalPolynomial,
    binomial_basis,
    binomial_coefficients,
    cauchy_bound,
    exists_common_positive,
)

import reference_numpoly as rn


def from_binomial_coefficients(bs) -> NumericalPolynomial:
    out = ()
    for i, b in enumerate(bs):
        out = rn.add(out, rn.scale(rn.binomial(i), b))
    return rn.as_polynomial(out)


def is_integer_valued(p: NumericalPolynomial) -> bool:
    """True iff p maps every integer to an integer: every binomial-basis
    coefficient (the finite-difference table at 0) is an integer."""
    return all(b.denominator == 1 for b in binomial_coefficients(p))


def test_binomial_basis_small_cases():
    assert binomial_basis(0) == NumericalPolynomial([1])
    assert binomial_basis(1) == NumericalPolynomial([0, 1])
    assert binomial_basis(2).evaluate(4) == 6
    # the falling factorial m(m-1)(m-2) over 3!
    assert (binomial_basis(3).numerators, binomial_basis(3).denominator) == ((0, 2, -3, 1), 6)


def test_binomial_basis_matches_comb():
    from math import comb

    for i in range(6):
        p = binomial_basis(i)
        for m in range(0, 12):
            assert p.evaluate(m) == comb(m, i)


def test_constructor_takes_integers_over_a_positive_denominator():
    for bad in ([0.5], [Fraction(1, 2)], [1, Fraction(3)]):
        with pytest.raises(TypeError):
            NumericalPolynomial(bad)
    with pytest.raises(TypeError):
        NumericalPolynomial([1], Fraction(2))
    for den in (0, -3):
        with pytest.raises(ValueError):
            NumericalPolynomial([1, 2], den)


def test_polynomial_is_a_value_without_arithmetic():
    m = binomial_basis(1)
    for other in (m, 3, Fraction(1, 2)):
        for operation in (
            lambda: m + other,
            lambda: m - other,
            lambda: m * other,
            lambda: other * m,
        ):
            with pytest.raises(TypeError):
                operation()
    with pytest.raises(TypeError):
        -m


def test_cauchy_bound_examples():
    assert cauchy_bound(NumericalPolynomial(())) == 1
    assert cauchy_bound(NumericalPolynomial([-7])) == 1
    assert cauchy_bound(NumericalPolynomial([1, -14, 1])) == 15
    assert cauchy_bound(NumericalPolynomial([-1, 0, 4])) == 2
    assert cauchy_bound(binomial_basis(3)) == 4


def test_exists_common_positive_examples():
    m = binomial_basis(1)
    window = [NumericalPolynomial([-3, 1]), NumericalPolynomial([10, -1])]  # m - 3, 10 - m
    assert exists_common_positive(window) == 4
    assert exists_common_positive([NumericalPolynomial([-1]), m]) is None
    assert exists_common_positive([m]) == 1
    with pytest.raises(ValueError):
        exists_common_positive([])


def test_exists_common_positive_zero_polynomial_blocks():
    assert exists_common_positive([NumericalPolynomial(()), binomial_basis(1)]) is None


small_poly = st.lists(
    st.integers(-12, 12), min_size=0, max_size=4
).map(lambda bs: from_binomial_coefficients(bs))


@settings(max_examples=60)
@given(small_poly)
def test_integer_combinations_of_binomials_are_integer_valued(p):
    assert is_integer_valued(p)
    for m in range(-20, 21):
        assert p.evaluate(m).denominator == 1


@settings(max_examples=60)
@given(small_poly)
def test_binomial_coefficient_round_trip(p):
    assert from_binomial_coefficients(binomial_coefficients(p)) == p


@settings(max_examples=40, deadline=None)
@given(st.lists(small_poly, min_size=1, max_size=3))
def test_exists_common_positive_matches_brute_force(ps):
    witness = exists_common_positive(ps)
    bound = max(cauchy_bound(p) for p in ps)
    scan_limit = 10 * bound
    brute = None
    for m in range(1, scan_limit + 1):
        if all(p.evaluate(m) > 0 for p in ps):
            brute = m
            break
    if witness is None:
        assert brute is None
    else:
        assert witness == brute


def test_chi_style_rational_coefficients_allowed():
    # polynomials integer-valued on integers may carry non-integer monomials
    p = NumericalPolynomial([2, 3, 1], 2)
    assert is_integer_valued(p)
    assert not is_integer_valued(NumericalPolynomial([1], 2))
