"""Numerical polynomials: rational-coefficient polynomials in one variable m
that take integer values at integers.

This is the package's one polynomial type: it also carries the integer
characteristic polynomials whose roots ``intpoly`` isolates. The internal
representation is the monomial basis with exact ``Fraction`` coefficients;
the binomial basis C(m, i) is available as a constructor and a converter,
since polynomials built from lattice data are naturally integer combinations
of binomials. Sign analysis over the positive integers is exact: beyond the
Cauchy root bound the sign of a polynomial equals the sign of its leading
coefficient, so scans terminate with certainty.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm
from typing import Sequence

from .intpoly import _horner, _strip, cauchy_root_bound
from .record import Record


class NumericalPolynomial(Record):
    """Polynomial in m, monomial coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        for c in coeffs:
            if isinstance(c, float):
                raise TypeError("exact coefficients required, not float")
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(_strip(cs)))

    @classmethod
    def of(cls, *coeffs) -> "NumericalPolynomial":
        return cls(tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (minus infinity)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def evaluate(self, m) -> Fraction:
        return _horner(self.coeffs, m)

    def __add__(self, other) -> "NumericalPolynomial":
        """Sum with a polynomial or an exact scalar (taken as a constant)."""
        if not isinstance(other, NumericalPolynomial):
            other = NumericalPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return NumericalPolynomial(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "NumericalPolynomial":
        return NumericalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "NumericalPolynomial") -> "NumericalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NumericalPolynomial):
            if self.is_zero or other.is_zero:
                return NumericalPolynomial(())
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return NumericalPolynomial(tuple(out))
        if isinstance(other, float):
            raise TypeError("exact scalar required, not float")
        return NumericalPolynomial(tuple(Fraction(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def format(self, var: str = "x") -> str:
        """Canonical text like ``x^2-14x+1`` (descending powers, no spaces)."""
        if self.is_zero:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            a = abs(c)
            if power == 0:
                body = str(a)
            else:
                body = ("" if a == 1 else str(a)) + var + ("" if power == 1 else f"^{power}")
            parts.append(sign + body)
        return "".join(parts)


ZERO = NumericalPolynomial(())
ONE = NumericalPolynomial.of(1)


@lru_cache(maxsize=None)
def binomial_basis(i: int) -> NumericalPolynomial:
    """The polynomial m -> C(m, i) = m(m-1)...(m-i+1) / i!."""
    if i < 0:
        raise ValueError("binomial index must be nonnegative")
    poly = ONE
    for j in range(i):
        poly = poly * NumericalPolynomial.of(Fraction(-j, j + 1), Fraction(1, j + 1))
    return poly


def binomial_coefficients(p: NumericalPolynomial) -> tuple[Fraction, ...]:
    """Coefficients b_i with p = sum b_i C(m, i): the forward differences of
    p(0), ..., p(deg p) at 0."""
    values = [p.evaluate(m) for m in range(len(p.coeffs))]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(out)


def cauchy_bound(p: NumericalPolynomial) -> int:
    """Integer B >= 1 such that every real root of p is at most B."""
    if p.is_zero:
        return 1
    return max(1, ceil(cauchy_root_bound(p.coeffs)))


def _int_scaled(p: NumericalPolynomial) -> list[int]:
    """Integer coefficient list with the same signs as p at every point."""
    if p.is_zero:
        return []
    scale = lcm(*(c.denominator for c in p.coeffs))
    return [int(c * scale) for c in p.coeffs]


def exists_common_positive(ps: Sequence[NumericalPolynomial]) -> int | None:
    """Minimal m >= 1 with p(m) > 0 for every p, or None if no m works.

    Exact: scan up to the largest Cauchy bound, beyond which each polynomial
    keeps the sign of its leading coefficient.
    """
    if not ps:
        raise ValueError("need at least one polynomial")
    bound = max(cauchy_bound(p) for p in ps)
    scaled = [_int_scaled(p) for p in ps]
    for m in range(1, bound + 1):
        if all(cs and _horner(cs, m) > 0 for cs in scaled):
            return m
    if all(p.leading > 0 for p in ps):
        witness = bound + 1
        assert all(_horner(cs, witness) > 0 for cs in scaled)
        return witness
    return None
