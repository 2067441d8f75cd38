"""The slow, trusted polynomial routines, kept as references for the tests.

These are the implementations ``numpoly`` used before its kernel went to
integer numerators over one denominator: dense ``Fraction`` coefficient
lists (lowest degree first, stripped of trailing zeros) for the arithmetic,
and the scan of every m up to the largest Cauchy bound for the common
positive witness. The test references build their polynomials in m here
too (``binomial`` for C(m, i), with ``add``, ``mul`` and ``scale``). They
share nothing with the package but the coefficient tuples they are given,
so the property tests compare two independent routes to each answer;
``as_polynomial`` makes the package's value from a tuple, for the
comparisons that need one.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm
from typing import Sequence

from sigmaample.numpoly import NumericalPolynomial

Coeffs = tuple  # of Fraction, lowest degree first, no trailing zeros


def strip(cs: Sequence) -> Coeffs:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return strip(out)


def neg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def scale(a: Coeffs, c) -> Coeffs:
    return strip([Fraction(c) * x for x in a])


def binomial(i: int) -> Coeffs:
    """m -> C(m, i), the product of (m - j) / (j + 1) over j < i."""
    out = (Fraction(1),)
    for j in range(i):
        out = mul(out, (Fraction(-j, j + 1), Fraction(1, j + 1)))
    return out


def as_polynomial(a: Sequence) -> NumericalPolynomial:
    """The package's ``NumericalPolynomial`` with the coefficients a."""
    cs = [Fraction(c) for c in a]
    den = lcm(*(c.denominator for c in cs))
    return NumericalPolynomial([int(c * den) for c in cs], den)


def evaluate(a: Coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def degree(a: Coeffs) -> int | None:
    return len(a) - 1 if a else None


def leading(a: Coeffs) -> Fraction:
    return a[-1] if a else Fraction(0)


def cauchy_bound(a: Coeffs) -> int:
    """Integer B >= 1 at or above every real root: ceil(1 + max|a_i| / |a_n|)."""
    if len(a) <= 1:
        return 1
    return max(1, ceil(1 + max(abs(c) for c in a[:-1]) / abs(a[-1])))


def exists_common_positive(ps: Sequence[Coeffs]) -> int | None:
    """Minimal m >= 1 with p(m) > 0 for every coefficient tuple p, or None:
    every m up to the largest Cauchy bound is tested, beyond which each
    polynomial keeps the sign of its leading coefficient."""
    if not ps:
        raise ValueError("need at least one polynomial")
    bound = max(cauchy_bound(p) for p in ps)
    for m in range(1, bound + 1):
        if all(p and evaluate(p, m) > 0 for p in ps):
            return m
    if all(leading(p) > 0 for p in ps):
        witness = bound + 1
        assert all(evaluate(p, witness) > 0 for p in ps)
        return witness
    return None
