"""Numerical polynomials: rational-coefficient polynomials in one variable m
that take integer values at integers.

This is the package's one polynomial type, and it is a value without an
algebra: it is built (``intmat.char_poly``, ``binomial_basis``,
``symmetric_binomial_sum``), evaluated, root-isolated and printed, nothing
else. It also carries the integer characteristic polynomials whose roots
``intpoly`` isolates. A polynomial is stored in the monomial basis as integer
numerators over one positive denominator, in lowest terms, so evaluation runs
on ``int``; the exact ``Fraction`` coefficients are derived from them. The
polynomials built from lattice data are integer combinations of products of
binomials C(m, i), which ``symmetric_binomial_sum`` sums as integer
coefficient lists over one common denominator. Sign analysis over the positive
integers is exact and its cost depends on the degrees, not on the size of the
coefficients: the set of m where every polynomial of a list is positive can
change only next to a real root of one of them, so only m = 1 and the integers
just after each root are tested, the roots being isolated to unit cells by
integer Sturm counts.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial, gcd
from typing import Sequence

from .intpoly import _horner, cauchy_root_bound, root_cells
from .record import Record


class NumericalPolynomial(Record):
    """Polynomial in m: integer ``numerators``, monomial coefficients lowest
    degree first, over one positive ``denominator``.

    The constructor strips trailing zeros and reduces to lowest terms (the
    zero polynomial has denominator 1), so equal polynomials have equal
    fields. A float or ``Fraction`` entry is a ``TypeError``.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: Sequence[int], denominator: int = 1) -> None:
        nums = list(numerators)
        g = gcd(denominator, *nums)  # a TypeError unless every entry is an int
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        while nums and not nums[-1]:
            nums.pop()
        super().__init__(tuple(c // g for c in nums), denominator // g)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact monomial coefficients, lowest degree first."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

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


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficient list of the product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def binomial_basis(i: int) -> NumericalPolynomial:
    """The polynomial m -> C(m, i): the falling factorial m(m-1)...(m-i+1)
    over i!."""
    if i < 0:
        raise ValueError("binomial index must be nonnegative")
    nums = [1]
    for j in range(i):
        nums = _convolve(nums, (-j, 1))
    return NumericalPolynomial(nums, factorial(i))


def symmetric_binomial_sum(values: dict, denom: int, step: int = 1) -> NumericalPolynomial:
    """T(F, ..., F) in m for a symmetric r-form T (r >= 1), given its integer
    table ``values`` = {s: T(v_s1, ..., v_sr)} on non-decreasing tuples s and
    denom = d^r, for F(m) = sum_j C(step*m, j) v_j / d: the sum of values[s]
    * (r! / prod mult!) * prod_j C(step*m, s_j) / denom over one denominator."""
    r, top = len(next(iter(values), ())), max((s[-1] for s in values), default=0)
    common = factorial(top)  # a multiple of each denominator of C(m, j), j <= top
    bases = [binomial_basis(j) for j in range(top + 1)]
    groups: dict = {}
    for index, value in values.items():
        weight, run = value, 1  # value * r! / prod mult!; run: equal indices so far
        for p in range(1, r):
            run = run + 1 if index[p] == index[p - 1] else 1
            weight = weight * (p + 1) // run
        for j in index:
            weight *= common // bases[j].denominator
        acc = groups.setdefault(index[:-1], [0] * (top + 1))
        for e, c in enumerate(bases[index[-1]].numerators):
            acc[e] += weight * c
    # tuples sharing all but their last index share one product of binomials,
    # and C(step*m, j) has C(m, j)'s coefficient at m^e times step^e
    nums = [0] * (r * top + 1)
    for prefix, acc in groups.items():
        for j in prefix:
            acc = _convolve(acc, bases[j].numerators)
        for e, c in enumerate(acc):
            nums[e] += c * step**e
    return NumericalPolynomial(nums, denom * common**r)


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
