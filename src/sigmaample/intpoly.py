"""Exact real-root isolation for univariate polynomials.

Coefficient lists are dense and stored lowest degree first. Everything in
here is exact integer arithmetic: the square-free part comes from a
primitive polynomial remainder sequence and an exact integer quotient, a
Sturm chain is a list of primitive integer polynomials, each a positive
multiple of the classical rational member, and a chain is evaluated at a
rational a/b homogenised, b^d p(a/b), so neither floating point nor a
``Fraction`` enters any sign count. The zeros inside the unit disk are
counted by the Schur-Cohn recursion on integer lists in the same way. The
polynomial type itself is ``numpoly.NumericalPolynomial``, which builds on
the list helpers below.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import TYPE_CHECKING, Sequence

from .record import Record

if TYPE_CHECKING:
    from .numpoly import NumericalPolynomial


class RationalInterval(Record):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        super().__init__(lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# Coefficient-list helpers.  Lists are lowest degree first and kept stripped
# of trailing zeros.


def _strip(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _horner(cs: Sequence, x):
    """Value of the coefficient list at x, in the arithmetic of its inputs:
    plain ``int`` for integer lists at integer points, else ``Fraction``."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _primitive(cs: Sequence[int]) -> list[int]:
    """The integer list divided by its content (a positive gcd)."""
    content = gcd(*cs)
    return [c // content for c in cs] if content > 1 else list(cs)


def _prem(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Pseudo-remainder lc(den)^(delta+1) * num mod den, delta = deg num - deg den,
    in integers; den must be nonzero."""
    rem = list(num)
    lead, top = den[-1], len(den) - 1
    for shift in range(len(num) - len(den), -1, -1):
        factor = rem[shift + top]
        rem = [lead * c for c in rem]
        if factor:
            for i, d in enumerate(den):
                rem[shift + i] -= factor * d
    return _strip(rem[:top])


def _divide_exact(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """num / den when den divides num with an integer quotient, else None.

    When den is primitive, a quotient over the rationals is an integer one
    (Gauss's lemma), so None then means den does not divide num at all.
    """
    rem = list(num)
    lead, top = den[-1], len(den) - 1
    quotient = [0] * max(0, len(num) - top)
    for shift in range(len(num) - len(den), -1, -1):
        factor, inexact = divmod(rem[shift + top], lead)
        if inexact:
            return None
        if factor:
            quotient[shift] = factor
            for i, d in enumerate(den):
                rem[shift + i] -= factor * d
    return quotient if not any(rem[:top]) else None


def _greatest_common_divisor(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A primitive gcd of two integer lists, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def square_free_part(p: NumericalPolynomial) -> list[int]:
    """p divided by gcd(p, p'), as a primitive integer list with a positive
    leading coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial has no square-free part")
    cs = _primitive(p.numerators)
    # cs and the gcd are primitive, so the quotient is too (Gauss's lemma)
    q = _divide_exact(cs, _greatest_common_divisor(cs, [i * cs[i] for i in range(1, len(cs))]))
    if q[-1] < 0:
        q = [-c for c in q]
    return q


def cauchy_root_bound(coeffs: Sequence) -> Fraction:
    """1 + max|a_i| / |a_lead|; every root modulus is at most this."""
    cs = _strip(list(coeffs))
    if not cs:
        raise ValueError("zero polynomial has unbounded roots")
    if len(cs) == 1:
        return Fraction(0)
    return 1 + Fraction(max(abs(c) for c in cs[:-1])) / Fraction(abs(cs[-1]))


def sturm_chain(p: NumericalPolynomial) -> list[list[int]]:
    """Sturm chain of the square-free part of p, as primitive integer lists.

    Each member after the derivative is the negated pseudo-remainder of the
    two before it, with the sign of lc^(delta+1) taken out and divided by its
    content: a positive multiple of the rational Sturm member, so every sign
    count is the same.
    """
    first = square_free_part(p)
    chain = [first]
    d = _primitive([i * first[i] for i in range(1, len(first))])
    if d:
        chain.append(d)
        while True:
            num, den = chain[-2], chain[-1]
            r = _prem(num, den)
            if not r:
                break
            if den[-1] > 0 or (len(num) - len(den)) % 2:
                r = [-c for c in r]
            chain.append(_primitive(r))
    return chain


def sign_variations(chain: Sequence[Sequence[int]], x) -> int:
    """Sign changes along the integer chain at the rational x = a/b (b > 0),
    each member of degree d evaluated as b^d p(a/b) in integers."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    powers = [1]
    for _ in range(max(len(cs) for cs in chain)):
        powers.append(powers[-1] * b)
    changes, last = 0, 0
    for cs in chain:
        top = len(cs) - 1
        v = 0
        for i in range(top, -1, -1):
            v = v * a + cs[i] * powers[top - i]
        if v:
            sign = 1 if v > 0 else -1
            if sign == -last:
                changes += 1
            last = sign
    return changes


def root_cells(p: NumericalPolynomial, top: int) -> list[int]:
    """The integers k, 0 <= k < top, such that the nonzero polynomial has a
    real root in (k, k+1], in increasing order.

    The distinct real roots in (lo, hi] number V(lo) - V(hi), V counting the
    sign changes of the Sturm chain at a point (a root of the square-free
    part is counted at the root itself, since the chain's first two members
    agree in sign just after it); the count is bisected over the integers.
    """
    chain = sturm_chain(p)
    cells: list[int] = []
    # (lo, V(lo), hi, V(hi)); the left half is popped first, so cells come
    # out in increasing order
    stack = [(0, sign_variations(chain, 0), top, sign_variations(chain, top))]
    while stack:
        lo, at_lo, hi, at_hi = stack.pop()
        if at_lo == at_hi:
            continue
        if hi - lo == 1:
            cells.append(lo)
            continue
        mid = (lo + hi) // 2
        at_mid = sign_variations(chain, mid)
        stack.append((mid, at_mid, hi, at_hi))
        stack.append((lo, at_lo, mid, at_mid))
    return cells


def largest_real_root_interval(
    p: NumericalPolynomial, width: Fraction, start: Fraction
) -> RationalInterval:
    """Interval of width <= ``width`` around the largest real root of p,
    bisected from [-start, start], which must hold every real root of p.

    Each step asks whether the largest root lies above the midpoint, so two
    polynomials with the same largest real root get the same interval from
    the same start. The ends are integers lo and hi over one denominator
    den, the start's denominator times 2^j after j steps, so the midpoint is
    lo + hi over 2 den and a ``Fraction`` is built only for each sign count
    and for the returned ends. Raises ValueError if p has no real root.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    start = Fraction(start)
    chain = sturm_chain(p)
    hi, den = start.numerator, start.denominator
    lo = -hi
    at_hi = sign_variations(chain, start)
    if sign_variations(chain, -start) == at_hi:
        raise ValueError("polynomial has no real roots")
    # hi - lo > width, over the common denominator
    while (hi - lo) * width.denominator > width.numerator * den:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        at_mid = sign_variations(chain, Fraction(mid, den))
        if at_mid > at_hi:
            lo = mid
        else:
            hi, at_hi = mid, at_mid
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def zeros_inside_unit_disk(coeffs: Sequence[int]) -> int | None:
    """Number of zeros of the integer polynomial in the open unit disk, or
    None when the Schur-Cohn recursion is singular.

    The recursion (Henrici, Applied and Computational Complex Analysis,
    vol. 1, section 6.8) maps f of degree d to T f = f(0) f - a_d f*, with
    f*(z) = z^d f(1/z), and divides out the content. On the unit circle
    |f*| = |f|, so by Rouche T f has as many zeros inside as f when
    delta = T f(0) = f(0)^2 - a_d^2 is positive, and as many as f*, d minus
    those of f, when it is negative. Unrolled down to a constant, the count
    is the sum of deg T^(k-1) f - deg T^k f over the steps k at which the
    product of the signs of delta_1 .. delta_k is negative. A zero delta,
    which every zero on the circle eventually forces, is singular.
    """
    f = _primitive(_strip(list(coeffs)))
    if not f:
        return None
    count, sign = 0, 1
    while len(f) > 1:
        a0, top = f[0], f[-1]
        delta = a0 * a0 - top * top
        if not delta:
            return None
        g = _strip([a0 * c - top * d for c, d in zip(f, reversed(f))])
        if delta < 0:
            sign = -sign
        if sign < 0:
            count += len(f) - len(g)
        f = _primitive(g)
    return count


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
