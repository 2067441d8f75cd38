"""The slow, trusted spectral routines, kept as references for the tests.

These are the implementations the package used before its spectral layer
went to integer arithmetic: quasi-unipotence by a totient-bounded matrix
power, Sturm chains and square-free parts over ``Fraction`` coefficient
lists, and the spectral radius from Berkowitz on the Kronecker square. They
share nothing with the package's own versions but ``IntegerMatrix``,
``char_poly``, ``mat_pow`` and the interval helpers, so the property tests
compare two independent routes to each answer.

``kronecker_spectral_radius`` is the package's integer route before the
Graeffe polynomial and its certificate: the integer Sturm bisection on the
Kronecker-square polynomial alone, fast enough for rank 8. It keeps the
Kronecker square as the decision polynomial for every matrix, so comparing
it with ``intmat.spectral_radius`` tests the route and its certificate.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from sigmaample.errors import NotInvertibleOverIntegers
from sigmaample.intmat import IntegerMatrix, _kronecker_square_char_poly, char_poly, mat_pow
from sigmaample.intpoly import RationalInterval, cauchy_root_bound, sqrt_enclosure
from sigmaample.intpoly import largest_real_root_interval as integer_largest_real_root_interval
from sigmaample.numpoly import NumericalPolynomial


# --- quasi-unipotence by the power test -----------------------------------


def _totient(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def _root_of_unity_order_lcm(rank: int) -> int:
    """lcm of all orders m with totient(m) <= rank.

    Any eigenvalue of an integer rank x rank matrix that is a root of unity
    has order in that set, since its cyclotomic minimal polynomial divides
    the characteristic polynomial. totient(m) >= sqrt(m/2) bounds the scan.
    """
    bound = 2 * rank * rank + 1
    orders = [m for m in range(1, bound + 1) if _totient(m) <= rank]
    return lcm(*orders)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _is_unipotent(matrix: IntegerMatrix) -> bool:
    n = matrix.size
    return mat_pow(matrix - IntegerMatrix.identity(n), n).is_zero


def quasi_unipotence(matrix: IntegerMatrix) -> int | None:
    """Minimal q >= 1 with matrix^q unipotent, or None when no power is.

    With L the lcm of all root-of-unity orders available at this rank, the
    matrix is quasi-unipotent iff matrix^L is unipotent, and the minimal q
    is then the smallest divisor d of L with matrix^d unipotent.
    """
    d = matrix.determinant()
    if d not in (1, -1):
        raise NotInvertibleOverIntegers(f"determinant is {d}, not +-1")
    order_lcm = _root_of_unity_order_lcm(matrix.size)
    if not _is_unipotent(mat_pow(matrix, order_lcm)):
        return None
    for q in _divisors(order_lcm):
        if _is_unipotent(mat_pow(matrix, q)):
            return q
    raise AssertionError("unreachable: the full power is unipotent")


# --- Fraction Sturm machinery ----------------------------------------------


def _strip(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _derivative(cs: Sequence[Fraction]) -> list[Fraction]:
    return [Fraction(i) * cs[i] for i in range(1, len(cs))]


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
        v = 0
        for c in reversed(cs):
            v = v * x + c
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def largest_real_root_interval(p: NumericalPolynomial, width: Fraction) -> RationalInterval:
    chain = sturm_chain(p)
    bound = cauchy_root_bound(p.coeffs)
    lo, hi = -bound - 1, bound + 1
    if sign_variations(chain, lo) - sign_variations(chain, hi) == 0:
        raise ValueError("polynomial has no real roots")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if sign_variations(chain, mid) - sign_variations(chain, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


# --- spectral radius from the Kronecker square -----------------------------


def kronecker(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    na, nb = a.size, b.size
    rows = []
    for i in range(na):
        for p in range(nb):
            rows.append(
                tuple(a.rows[i][j] * b.rows[p][q] for j in range(na) for q in range(nb))
            )
    return IntegerMatrix(tuple(rows))


def spectral_radius(matrix: IntegerMatrix, eps: Fraction) -> RationalInterval:
    """Berkowitz on M (x) M, then Fraction Sturm bisection and the
    integer-square-root enclosure."""
    eps = Fraction(eps)
    squared = char_poly(kronecker(matrix, matrix))
    width = eps * eps / 4 if eps < 1 else Fraction(1, 4)
    slack = max(8, int(8 / eps) + 1)
    while True:
        iv = largest_real_root_interval(squared, width)
        clipped = RationalInterval(max(iv.lo, Fraction(0)), max(iv.hi, Fraction(0)))
        enclosure = sqrt_enclosure(clipped, slack)
        if enclosure.width <= eps:
            return enclosure
        width /= 16
        slack *= 4


def kronecker_spectral_radius(matrix: IntegerMatrix, eps: Fraction) -> RationalInterval:
    """The integer Sturm bisection on det(xI - M (x) M), built from the power
    sums of M, from its Cauchy bound, then the integer-square-root enclosure."""
    eps = Fraction(eps)
    squared = NumericalPolynomial(tuple(_kronecker_square_char_poly(char_poly(matrix).numerators)))
    width = eps * eps / 4 if eps < 1 else Fraction(1, 4)
    slack = max(8, int(8 / eps) + 1)
    start = cauchy_root_bound(squared.numerators) + 1
    iv = integer_largest_real_root_interval(squared, width, start)
    clipped = RationalInterval(max(iv.lo, Fraction(0)), max(iv.hi, Fraction(0)))
    return sqrt_enclosure(clipped, slack)
