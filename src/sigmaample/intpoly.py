"""Exact real-root isolation for univariate polynomials.

Coefficient lists are dense and stored lowest degree first. Everything in
here is exact integer arithmetic: the square-free part comes from a
primitive polynomial remainder sequence and an exact integer quotient, a
Sturm chain is a list of primitive integer polynomials, each a positive
multiple of the classical rational member, and a chain is evaluated at a
rational a/b homogenised, b^d p(a/b), so neither floating point nor a
``Fraction`` enters any sign count. The zeros outside the unit circle are
counted in the same way, by a Routh-Hurwitz count on the Cayley transform
whose Cauchy index comes from the remainder sequence Sturm chains use. One
dyadic bisection loop, ``_bisect``, halves a rational interval on integer
ends over a power-of-two denominator, asking one question per midpoint; the
spectral radius in ``intmat`` and ``largest_real_root_interval`` both run
on it. The polynomial type itself is ``numpoly.NumericalPolynomial``, which
builds on the list helpers below; a caller's rational passes ``_rational``.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Sequence

from .record import Record

if TYPE_CHECKING:
    from .numpoly import NumericalPolynomial


def _rational(value) -> int | Fraction:
    """A ``Fraction`` as it is, else ``operator.index(value)``: never a float, str or Decimal."""
    if isinstance(value, Fraction):
        return value
    if not hasattr(type(value), "__index__"):
        raise TypeError(f"an int or a Fraction is required, not {type(value).__name__}")
    return operator.index(value)


class RationalInterval(Record):
    """Closed interval [lo, hi] with ``Fraction`` ends, given as int or ``Fraction``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        lo, hi = Fraction(_rational(lo)), Fraction(_rational(hi))
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
    cs = _strip([_rational(c) for c in coeffs])
    if not cs:
        raise ValueError("zero polynomial has unbounded roots")
    if len(cs) == 1:
        return Fraction(0)
    return 1 + Fraction(max(abs(c) for c in cs[:-1])) / abs(cs[-1])


def _remainder_sequence(f0: list[int], f1: list[int]) -> list[list[int]]:
    """f0, f1 and, until a remainder vanishes, the negated pseudo-remainder
    of the two members before, with the sign of lc^(delta+1) taken out and
    divided by its content: each member a positive multiple of the rational
    Sturm member, so every sign count is the same. Just [f0] when f1 is zero.
    """
    chain = [f0]
    if f1:
        chain.append(f1)
        while True:
            num, den = chain[-2], chain[-1]
            r = _prem(num, den)
            if not r:
                break
            if den[-1] > 0 or (len(num) - len(den)) % 2:
                r = [-c for c in r]
            chain.append(_primitive(r))
    return chain


def sturm_chain(p: NumericalPolynomial) -> list[list[int]]:
    """Sturm chain of the square-free part of p, as primitive integer lists:
    the remainder sequence of that part and its derivative."""
    first = square_free_part(p)
    return _remainder_sequence(first, _primitive([i * first[i] for i in range(1, len(first))]))


def sign_variations(chain: Sequence[Sequence[int]], x) -> int:
    """Sign changes along the integer chain at the rational x = a/b (b > 0),
    each member of degree d evaluated as b^d p(a/b) in integers."""
    x = _rational(x)
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


def _bisect(above, lo: int, hi: int, den: int, width: Fraction) -> RationalInterval:
    """[lo/den, hi/den] halved until its width is at most ``width``: the
    upper half is kept when ``above(x)`` holds at the midpoint x, else the
    lower half.

    The ends stay integers over one denominator, which doubles with each
    step, so the midpoint is lo + hi over 2 den and a ``Fraction`` is built
    only for each question and for the returned ends. The ends are
    therefore consecutive multiples of (hi - lo)/(den 2^j) after j steps.
    """
    while (hi - lo) * width.denominator > width.numerator * den:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if above(Fraction(mid, den)):
            lo = mid
        else:
            hi = mid
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def largest_real_root_interval(
    p: NumericalPolynomial, width: Fraction, start: Fraction
) -> RationalInterval:
    """Interval of width <= ``width`` around the largest real root of p,
    bisected from [-start, start], which must hold every real root of p.

    Each step asks whether p has a real root above the midpoint, that is
    whether the Sturm count there exceeds the count at the start. Raises
    ValueError if p has no real root. Nothing in the package calls it: the
    spectral radius runs ``_bisect`` on the radius itself. It is kept as the
    public form of that loop for the benchmark's per-layer tracer
    (``perfbench/tracer.py``) and the tests that call it.
    """
    width, start = _rational(width), _rational(start)
    if width <= 0:
        raise ValueError("width must be positive")
    chain = sturm_chain(p)
    at_start = sign_variations(chain, start)
    if sign_variations(chain, -start) == at_start:
        raise ValueError("polynomial has no real roots")
    return _bisect(
        lambda x: sign_variations(chain, x) > at_start,
        -start.numerator, start.numerator, start.denominator, width,
    )


def _taylor_shift(cs: Sequence[int], t: int) -> list[int]:
    """The coefficient list of p(x + t), by repeated synthetic division."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += t * cs[j + 1]
    return cs


def _variations_at_infinity(chain: Sequence[Sequence[int]], sign: int) -> int:
    """Sign changes along the chain at +infinity (sign 1) or -infinity
    (sign -1), read from leading coefficients and degrees."""
    signs = [(1 if cs[-1] > 0 else -1) * sign ** (len(cs) - 1) for cs in chain]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def zeros_outside_unit_circle(coeffs: Sequence[int]) -> int:
    """Number of zeros, with multiplicity, of the nonzero integer polynomial
    f of modulus above 1. f must have no zero of modulus 1; that is not
    checked, and the answer is meaningless for such an f.

    The Cayley transform z = (1 + w)/(1 - w) sends the outside of the unit
    circle to the right half-plane, so the count is the number n_R of zeros
    with positive real part of g(w) = (1 - w)^n f((1 + w)/(1 - w)): f(x - 1),
    coefficient k times 2^k, reversed to degree n, shifted to p(x + 1), odd
    coefficients negated. g has degree n, since f(-1) is not 0. With
    g(iy) = U(y) + i V(y), the Routh-Hurwitz theorem (Gantmacher, The Theory
    of Matrices, vol. 2, ch. XV) gives n_L - n_R from the Cauchy index of
    V/U (n even) or U/V (n odd) over the real line: the sign changes at
    -infinity minus those at +infinity along the remainder sequence of
    (U, V) or (V, U). No zero of g lies on the imaginary axis, so U and V
    have no common real root and no case is singular.
    """
    f = _strip(list(coeffs))
    if not f:
        raise ValueError("zero polynomial has no zero count")
    n = len(f) - 1
    g = [c << k for k, c in enumerate(_taylor_shift(f, -1))]
    g = [-c if k % 2 else c for k, c in enumerate(_taylor_shift(g[::-1], 1))]
    # i^k is 1, i, -1, -i as k is 0, 1, 2, 3 mod 4
    u = _primitive(_strip([c * (1, 0, -1, 0)[k % 4] for k, c in enumerate(g)]))
    v = _primitive(_strip([c * (0, 1, 0, -1)[k % 4] for k, c in enumerate(g)]))
    chain = _remainder_sequence(v, u) if n % 2 else _remainder_sequence(u, v)
    index = _variations_at_infinity(chain, -1) - _variations_at_infinity(chain, 1)
    # n_L - n_R is index for odd n and -index for even n, and n_L + n_R = n
    return (n - index if n % 2 else n + index) // 2
