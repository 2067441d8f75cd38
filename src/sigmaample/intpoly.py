"""Exact real-root isolation for univariate polynomials.

Coefficient lists are dense and stored lowest degree first. Everything in
here is exact: the Sturm-chain machinery works on ``Fraction`` lists so no
floating point enters any decision. The polynomial type itself is
``numpoly.NumericalPolynomial``, which builds on the list helpers below.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .numpoly import NumericalPolynomial


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


# ---------------------------------------------------------------------------
# Coefficient-list helpers.  Lists are lowest degree first and kept stripped
# of trailing zeros.


def _strip(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _derivative(cs: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(i) * cs[i] for i in range(1, len(cs))]


def _horner(cs: Sequence, x):
    """Value of the coefficient list at x, in the arithmetic of its inputs:
    plain ``int`` for integer lists at integer points, else ``Fraction``."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    """Quotient and remainder over the rationals; den must be nonzero."""
    num = list(num)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + len(den) - 1] / lead
        if factor:
            q[shift] = factor
            for i, d in enumerate(den):
                num[shift + i] -= factor * d
    return _strip(q), _strip(num[: len(den) - 1])


def _monic(cs: Sequence[Fraction]) -> list[Fraction]:
    lead = cs[-1]
    return [c / lead for c in cs]


def _gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
    return _monic(a) if a else a


def square_free_part(p: NumericalPolynomial) -> NumericalPolynomial:
    """p divided by gcd(p, p'), returned with integer primitive coefficients."""
    from .numpoly import NumericalPolynomial  # numpoly imports this module

    if p.is_zero:
        raise ValueError("zero polynomial has no square-free part")
    cs = p.coeffs
    g = _gcd(cs, _derivative(cs))
    q, r = _divmod(cs, g)
    assert not r
    denom = lcm(*(c.denominator for c in q)) if q else 1
    ints = [int(c * denom) for c in q]
    content = 0
    for c in ints:
        content = gcd(content, c)
    if content > 1:
        ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return NumericalPolynomial(tuple(ints))


def cauchy_root_bound(coeffs: Sequence) -> Fraction:
    """1 + max|a_i| / |a_lead|; every root modulus is at most this."""
    cs = _strip([Fraction(c) for c in coeffs])
    if not cs:
        raise ValueError("zero polynomial has unbounded roots")
    if len(cs) == 1:
        return Fraction(0)
    lead = abs(cs[-1])
    return 1 + max(abs(c) for c in cs[:-1]) / lead


def sturm_chain(p: NumericalPolynomial) -> list[list[Fraction]]:
    """Sturm chain of the square-free part of p."""
    chain = [list(square_free_part(p).coeffs)]
    d = _derivative(chain[0])
    if d:
        chain.append(d)
        while True:
            _, r = _divmod(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def sign_variations(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for cs in chain:
        v = _horner(cs, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def largest_real_root_interval(p: NumericalPolynomial, width: Fraction) -> RationalInterval:
    """Interval of width <= ``width`` around the largest real root of p.

    Raises ValueError if p has no real root.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    chain = sturm_chain(p)
    bound = cauchy_root_bound(p.coeffs)
    lo, hi = -bound - 1, bound + 1
    if count_real_roots(chain, lo, hi) == 0:
        raise ValueError("polynomial has no real roots")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if count_real_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def sqrt_enclosure(interval: RationalInterval, slack_denom: int) -> RationalInterval:
    """Rational enclosure of the square roots of a nonnegative interval.

    Endpoint error beyond the exact square roots is at most 2/slack_denom.
    """
    if interval.lo < 0:
        raise ValueError("interval must be nonnegative")
    m = slack_denom
    a, b = interval.lo, interval.hi
    lo = Fraction(isqrt((a.numerator * m * m) // a.denominator), m)
    hi_scaled = b.numerator * m * m
    hi_int = -(-hi_scaled // b.denominator)  # ceil
    hi = Fraction(isqrt(hi_int) + 1, m)
    return RationalInterval(lo, hi)
