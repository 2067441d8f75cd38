"""Numerical polynomials: rational-coefficient polynomials in one variable m
that take integer values at integers.

This is the package's one polynomial type: it also carries the integer
characteristic polynomials whose roots ``intpoly`` isolates. A polynomial is
stored in the monomial basis as integer numerators over one positive
denominator, in lowest terms, so sums, products and evaluations run on
``int``; the exact ``Fraction`` coefficients are derived from them. The
binomial basis C(m, i) is available as a constructor and a converter, since
polynomials built from lattice data are naturally integer combinations of
binomials. Sign analysis over the positive integers is exact and its cost
depends on the degrees, not on the size of the coefficients: the set of m
where every polynomial of a list is positive can change only next to a real
root of one of them, so only m = 1 and the integers just after each root are
tested, the roots being isolated to unit cells by integer Sturm counts.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm
from typing import Sequence

from .intpoly import _horner, cauchy_root_bound, root_cells
from .record import Record


class NumericalPolynomial(Record):
    """Polynomial in m, monomial coefficients lowest degree first.

    ``numerators`` (a tuple of ints without trailing zeros) over
    ``denominator`` (a positive int sharing no factor with all of them; 1 for
    the zero polynomial) are the stored form; ``coeffs``, the field, is the
    tuple of ``Fraction`` coefficients they give.
    """

    __slots__ = ("numerators", "denominator")
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        cs = []
        for c in coeffs:
            if type(c) is not int and type(c) is not Fraction:
                if isinstance(c, float):
                    raise TypeError("exact coefficients required, not float")
                c = Fraction(c)
            cs.append(c)
        # over the lcm of reduced denominators no prime divides every numerator
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", den if nums else 1)

    @classmethod
    def of(cls, *coeffs) -> "NumericalPolynomial":
        return cls(tuple(coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        """False for the zero polynomial only, as for a zero scalar."""
        return bool(self.numerators)

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (minus infinity)."""
        return len(self.numerators) - 1 if self.numerators else None

    @property
    def leading(self) -> Fraction:
        return Fraction(self.numerators[-1], self.denominator) if self.numerators else Fraction(0)

    def evaluate(self, m) -> Fraction:
        """The value at an int or ``Fraction`` m."""
        return Fraction(_horner(self.numerators, m), self.denominator)

    def __add__(self, other) -> "NumericalPolynomial":
        """Sum with a polynomial or an exact scalar (taken as a constant)."""
        if other.__class__ is not NumericalPolynomial:
            other = NumericalPolynomial((other,))
        a, da, b, db = self.numerators, self.denominator, other.numerators, other.denominator
        if da != db:
            den = lcm(da, db)
            a = [c * (den // da) for c in a]
            b = [c * (den // db) for c in b]
            da = den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _reduced(out, da)

    __radd__ = __add__

    def __neg__(self) -> "NumericalPolynomial":
        return _reduced([-c for c in self.numerators], self.denominator)

    def __sub__(self, other: "NumericalPolynomial") -> "NumericalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is NumericalPolynomial:
            a, b = self.numerators, other.numerators
            if not a or not b:
                return ZERO
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return _reduced(out, self.denominator * other.denominator)
        if type(other) is not int:
            if isinstance(other, float):
                raise TypeError("exact scalar required, not float")
            other = Fraction(other)
            if other.denominator != 1:
                return _reduced(
                    [c * other.numerator for c in self.numerators],
                    self.denominator * other.denominator,
                )
            other = other.numerator
        return _reduced([c * other for c in self.numerators], self.denominator)

    __rmul__ = __mul__

    def format(self, var: str = "x") -> str:
        """Canonical text like ``x^2-14x+1`` (descending powers, no spaces)."""
        if self.is_zero:
            return "0"
        parts = []
        coeffs = self.coeffs
        for power in range(self.degree, -1, -1):
            c = coeffs[power]
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


def _reduced(nums: list[int], den: int) -> NumericalPolynomial:
    """The polynomial nums / den (den > 0), stripped and in lowest terms."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    p = object.__new__(NumericalPolynomial)
    object.__setattr__(p, "numerators", tuple(nums))
    object.__setattr__(p, "denominator", den)
    return p


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
    values = [p.evaluate(m) for m in range(len(p.numerators))]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(out)


def cauchy_bound(p: NumericalPolynomial) -> int:
    """Integer B >= 1 such that every real root of p is at most B."""
    if p.is_zero:
        return 1
    return max(1, ceil(cauchy_root_bound(p.numerators)))


def _all_positive(numerator_lists: Sequence[Sequence[int]], m: int) -> bool:
    """Is every polynomial of the list positive at m? (Numerators over a
    positive denominator have the polynomial's sign.)"""
    return all(_horner(cs, m) > 0 for cs in numerator_lists)


def exists_common_positive(ps: Sequence[NumericalPolynomial]) -> int | None:
    """Minimal m >= 1 with p(m) > 0 for every p, or None if no m works.

    Exact. If m = 1 fails, a least m > 1 follows some p with p(m-1) <= 0 <
    p(m), so p has a real root r with m - 1 <= r < m, that is m = floor(r) + 1.
    Each root in a unit cell (k, k+1] gives the candidates k+1 and k+2; the
    cells come from Sturm counts bisected over the integers up to the Cauchy
    bound, beyond which every polynomial keeps the sign of its leading
    coefficient. The candidates, then bound + 1, are tested in increasing
    order by integer Horner, at most 2 + 2 * (sum of the degrees) of them.
    """
    if not ps:
        raise ValueError("need at least one polynomial")
    unique = {p.numerators: p for p in ps}
    if () in unique:
        return None
    if _all_positive(unique, 1):
        return 1
    candidates = set()
    bound = 1
    for p in unique.values():
        top = cauchy_bound(p)
        bound = max(bound, top)
        for k in root_cells(p, top):
            candidates.update((k + 1, k + 2))
    candidates.add(bound + 1)
    candidates.discard(1)
    for m in sorted(candidates):
        if _all_positive(unique, m):
            return m
    return None
