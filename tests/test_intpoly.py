from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sigmaample.intpoly import (
    RationalInterval,
    cauchy_root_bound,
    largest_real_root_interval,
    sign_variations,
    sqrt_enclosure,
    square_free_part,
    sturm_chain,
    zeros_inside_unit_disk,
)
from sigmaample.numpoly import NumericalPolynomial


def count_real_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def test_normalization_strips_trailing_zeros():
    assert NumericalPolynomial.of(1, 2, 0, 0).coeffs == (1, 2)
    assert NumericalPolynomial.of(0, 0).coeffs == ()
    assert NumericalPolynomial.of().is_zero


def test_degree_and_leading():
    assert NumericalPolynomial.of().degree is None
    assert NumericalPolynomial.of(5).degree == 0
    assert NumericalPolynomial.of(1, -14, 1).degree == 2
    assert NumericalPolynomial.of(1, -14, 1).leading == 1


def test_arithmetic():
    p = NumericalPolynomial.of(1, 1)  # 1 + x
    q = NumericalPolynomial.of(-1, 1)  # -1 + x
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).is_zero
    assert p.evaluate(3) == 4
    assert (p * q).evaluate(Fraction(1, 2)) == Fraction(-3, 4)


def test_format():
    assert NumericalPolynomial.of(1, -2, 1).format() == "x^2-2x+1"
    assert NumericalPolynomial.of(1, 0, 1).format() == "x^2+1"
    assert NumericalPolynomial.of(1, -14, 1).format() == "x^2-14x+1"
    assert NumericalPolynomial.of(0, 1).format() == "x"
    assert NumericalPolynomial.of(-3).format() == "-3"
    assert NumericalPolynomial.of().format() == "0"


def test_interval_invariants():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.lo <= Fraction(2, 5) <= iv.hi
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))


def test_square_free_part():
    # (x - 1)^2 (x + 2) -> (x - 1)(x + 2) up to sign normalization
    x_minus_1 = NumericalPolynomial.of(-1, 1)
    p = x_minus_1 * x_minus_1 * NumericalPolynomial.of(2, 1)
    assert square_free_part(p) == [-2, 1, 1]


def test_sturm_counts_roots_of_quadratic():
    # x^2 - 3x + 1 has roots (3 +- sqrt(5))/2, about 0.382 and 2.618
    p = NumericalPolynomial.of(1, -3, 1)
    chain = sturm_chain(p)
    assert count_real_roots(chain, Fraction(0), Fraction(3)) == 2
    assert count_real_roots(chain, Fraction(1), Fraction(3)) == 1
    assert count_real_roots(chain, Fraction(3), Fraction(10)) == 0


def test_sturm_chain_with_degree_gap_under_negative_leading_coefficient():
    # 3x^4 + x: the rational chain is p, p', -3x/4, then -rem(p', -3x/4) = -1;
    # the last pseudo-remainder carries lc^(2+1) = (-1)^3, whose sign the
    # integer chain must take out
    p = NumericalPolynomial.of(0, 1, 0, 0, 3)
    chain = sturm_chain(p)
    assert chain == [[0, 1, 0, 0, 3], [1, 0, 0, 12], [0, -1], [-1]]
    # roots 0 and -(1/3)^(1/3), about -0.693
    assert count_real_roots(chain, Fraction(-1), Fraction(1)) == 2
    assert count_real_roots(chain, Fraction(-1, 2), Fraction(1)) == 1


def test_largest_real_root_golden_ratio_like():
    # largest root of x^2 - 3x + 1 is (3 + sqrt(5))/2
    p = NumericalPolynomial.of(1, -3, 1)
    iv = largest_real_root_interval(p, Fraction(1, 10**6), cauchy_root_bound(p.coeffs) + 1)
    assert iv.width <= Fraction(1, 10**6)
    # exact containment: r satisfies 2r - 3 = sqrt(5), so (2x-3)^2 <= 5 at lo
    lo, hi = iv.lo, iv.hi
    assert (2 * lo - 3) ** 2 <= 5 <= (2 * hi - 3) ** 2


def test_largest_real_root_with_repeated_roots():
    # y^4: only root 0, with multiplicity
    p = NumericalPolynomial.of(0, 0, 0, 0, 1)
    iv = largest_real_root_interval(p, Fraction(1, 100), Fraction(2))
    assert iv.lo <= 0 <= iv.hi
    assert iv.width <= Fraction(1, 100)


def test_no_real_roots_raises():
    with pytest.raises(ValueError):
        largest_real_root_interval(NumericalPolynomial.of(1, 0, 1), Fraction(1, 10), Fraction(3))


def test_cauchy_bound_dominates_roots():
    p = NumericalPolynomial.of(-6, 11, -6, 1)  # roots 1, 2, 3
    assert cauchy_root_bound(p.coeffs) >= 3


def test_sqrt_enclosure():
    iv = RationalInterval(Fraction(2), Fraction(2))
    enc = sqrt_enclosure(iv, 10**6)
    assert enc.lo**2 <= 2 <= enc.hi**2
    assert enc.width <= Fraction(3, 10**6)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_square_free_divides_original(coeffs):
    p = NumericalPolynomial(tuple(coeffs))
    if p.is_zero:
        return
    sqf = NumericalPolynomial(tuple(square_free_part(p)))
    # every rational evaluation of p vanishing forces sqf to vanish at roots;
    # cheap structural check: deg sqf <= deg p and sqf has no repeated roots
    assert sqf.degree <= max(p.degree, 0)
    chain = sturm_chain(sqf)
    bound = cauchy_root_bound(sqf.coeffs) if sqf.degree >= 1 else Fraction(1)
    # distinct real roots of sqf equal distinct real roots of p
    chain_p = sturm_chain(p)
    bound_p = cauchy_root_bound(p.coeffs) if p.degree >= 1 else Fraction(1)
    b = max(bound, bound_p) + 1
    assert count_real_roots(chain, -b, b) == count_real_roots(chain_p, -b, b)


# --- Schur-Cohn count of zeros in the unit disk ----------------------------


@settings(max_examples=400, deadline=None)
@example([3, -7, 2])  # (2x - 1)(x - 3): one zero inside
@example([0, 0, 1])  # x^2: a double zero at the centre
@example([4, 0, 0, 1, 0, 0, 0, 0, 5])
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=9).filter(any))
def test_zeros_inside_unit_disk_matches_numpy(coeffs):
    while not coeffs[-1]:
        coeffs = coeffs[:-1]
    roots = np.roots(coeffs[::-1]) if len(coeffs) > 1 else np.array([])
    assume(all(abs(abs(z) - 1) > 1e-6 for z in roots))
    count = zeros_inside_unit_disk(coeffs)
    if count is not None:
        assert count == sum(1 for z in roots if abs(z) < 1)


def test_zeros_inside_unit_disk_regular_and_singular_cases():
    assert zeros_inside_unit_disk([3, -7, 2]) == 1
    assert zeros_inside_unit_disk([1, 0, 0, 0, 4]) == 4  # 4x^4 + 1: moduli 1/sqrt 2
    assert zeros_inside_unit_disk([4, 0, 0, 0, 1]) == 0  # x^4 + 4: moduli sqrt 2
    assert zeros_inside_unit_disk([5]) == 0
    # a zero on the circle makes the recursion singular
    assert zeros_inside_unit_disk([3, -4, 1]) is None  # (x - 1)(x - 3)
    assert zeros_inside_unit_disk([1, 0, 1]) is None  # x^2 + 1
    assert zeros_inside_unit_disk([0, 0]) is None
