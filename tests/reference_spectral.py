"""The slow, trusted spectral routines, kept as references for the tests.

These are the implementations the package used before its spectral layer
went to integer arithmetic: quasi-unipotence by a totient-bounded matrix
power, Sturm chains and square-free parts over ``Fraction`` coefficient
lists, and the spectral radius from Berkowitz on the Kronecker square. They
share nothing with the package's own versions but ``IntegerMatrix``,
``char_poly``, ``mat_pow`` and the interval helpers, so the property tests
compare two independent routes to each answer.

Both radius routines bisect the radius rho itself over [0, S], S the Cauchy
bound of det(xI - M) rounded up to an odd integer, with ``Fraction``
midpoints, and at each midpoint x ask whether the Kronecker-square
polynomial has a real root above x^2. ``spectral_radius`` asks it of
Berkowitz on the explicit n^2 x n^2 matrix M (x) M with ``Fraction`` Sturm
chains; ``kronecker_spectral_radius``, fast enough for rank 8, asks it of
the power-sum polynomial with the package's integer Sturm chain. Neither
uses the characteristic polynomial's own Sturm chain or its certificate, so
comparing them with ``intmat.spectral_radius`` tests that route.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from sigmaample.errors import NotInvertibleOverIntegers
from sigmaample.intmat import IntegerMatrix, _kronecker_square_char_poly, char_poly, mat_pow
from sigmaample.intpoly import RationalInterval
from sigmaample.intpoly import sign_variations as integer_sign_variations
from sigmaample.intpoly import sturm_chain as integer_sturm_chain
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


def _radius_by_bisection(matrix: IntegerMatrix, eps: Fraction, above) -> RationalInterval:
    """rho bisected over [0, S] with ``Fraction`` midpoints, S = 1 + max|c_i|
    over det(xI - M) = x^n + ... + c_0, rounded up to an odd integer;
    ``above(x, top)`` says whether rho > x, given S."""
    coeffs = char_poly(matrix).coeffs
    top = int(1 + max(abs(c) for c in coeffs[:-1])) | 1
    lo, hi = Fraction(0), Fraction(top)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if above(mid, top):
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


def spectral_radius(matrix: IntegerMatrix, eps: Fraction) -> RationalInterval:
    """Berkowitz on M (x) M, then ``Fraction`` Sturm counts at x^2 and S^2."""
    chain = sturm_chain(char_poly(kronecker(matrix, matrix)))
    return _radius_by_bisection(
        matrix, Fraction(eps),
        lambda x, top: sign_variations(chain, x * x) > sign_variations(chain, Fraction(top * top)),
    )


def kronecker_spectral_radius(matrix: IntegerMatrix, eps: Fraction) -> RationalInterval:
    """Integer Sturm counts at x^2 and S^2 on det(xI - M (x) M), built from
    the power sums of M."""
    squared = _kronecker_square_char_poly(char_poly(matrix).numerators)
    chain = integer_sturm_chain(NumericalPolynomial(tuple(squared)))
    return _radius_by_bisection(
        matrix, Fraction(eps),
        lambda x, top: integer_sign_variations(chain, x * x) > integer_sign_variations(chain, top * top),
    )
