"""Exact integer matrix arithmetic and spectral analysis.

All decisions here are exact. Every matrix invariant comes from the
characteristic polynomial, computed by the division-free Berkowitz
recursion: the determinant is its constant term up to sign, inverses of
determinant +-1 follow from Cayley-Hamilton, and quasi-unipotence is read
off it by trial division with cyclotomic polynomials (Kronecker's theorem),
so no matrix is raised to a large power. Spectral radii come from integer
Sturm isolation on the characteristic polynomial of the Kronecker square
M (x) M, whose real roots include every squared eigenvalue modulus; that
polynomial is built from the power sums of M by Newton's identities, never
from the n^2 x n^2 matrix itself.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import NotInvertibleOverIntegers, NotUnipotent
from .intpoly import (
    RationalInterval,
    _divide_exact,
    largest_real_root_interval,
    sqrt_enclosure,
)
from .numpoly import NumericalPolynomial
from .record import Record


class IntegerMatrix(Record):
    """Square matrix of arbitrary-precision integers, immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        for row in rows:
            for c in row:
                if not isinstance(c, int):
                    raise TypeError(f"integer entry expected, got {type(c).__name__}")
        rows = tuple(tuple(int(c) for c in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for row in self.rows for c in row)

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_size(other)
        return IntegerMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_size(other)
        return IntegerMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_size(other)
        n = self.size
        cols = tuple(zip(*other.rows))
        return IntegerMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def _check_size(self, other: "IntegerMatrix") -> None:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")

    def column_action(self, coords: Sequence) -> tuple:
        """Matrix times column vector; accepts int or Fraction entries."""
        if len(coords) != self.size:
            raise ValueError(f"vector length {len(coords)} does not match size {self.size}")
        return tuple(sum(a * c for a, c in zip(row, coords)) for row in self.rows)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.rows)))

    def determinant(self) -> int:
        """(-1)^n times the constant term of the characteristic polynomial."""
        return (-1) ** self.size * int(char_poly(self).coeffs[0])

    def inverse_unimodular(self) -> "IntegerMatrix":
        """Exact integer inverse by Cayley-Hamilton; requires determinant +-1.

        With det(xI - M) = x^n + c_(n-1) x^(n-1) + ... + c_0 and c_0 = +-1,
        M^-1 = -c_0 (M^(n-1) + c_(n-1) M^(n-2) + ... + c_1 I).
        """
        coeffs = [int(c) for c in char_poly(self).coeffs]
        d = (-1) ** self.size * coeffs[0]
        if d not in (1, -1):
            raise NotInvertibleOverIntegers(f"determinant is {d}, not +-1")
        acc = IntegerMatrix.identity(self.size)
        for c in reversed(coeffs[1:-1]):
            rows = [list(row) for row in (acc * self).rows]
            for i, row in enumerate(rows):
                row[i] += c
            acc = IntegerMatrix.from_rows(rows)
        return acc if coeffs[0] == -1 else -acc


def mat_pow(matrix: IntegerMatrix, exponent: int) -> IntegerMatrix:
    """Exact matrix power by repeated squaring; negative powers via the inverse."""
    if exponent < 0:
        base = matrix.inverse_unimodular()
        exponent = -exponent
    else:
        base = matrix
    result = IntegerMatrix.identity(matrix.size)
    while exponent:
        if exponent & 1:
            result = result * base
        base_needed = exponent > 1
        if base_needed:
            base = base * base
        exponent >>= 1
    return result


def char_poly(matrix: IntegerMatrix) -> NumericalPolynomial:
    """Characteristic polynomial det(xI - M) by the Berkowitz recursion.

    Division-free: every intermediate value is an integer.
    """
    n = matrix.size
    a = matrix.rows
    # coefficients of det(xI - leading principal submatrix), highest first
    coeffs = [1]
    for t in range(n):
        row = a[t][:t]
        col = [a[i][t] for i in range(t)]
        diag = a[t][t]
        # first column of the Toeplitz transform:
        # 1, -a_tt, -(R S), -(R A S), ..., -(R A^(t-1) S)
        q = [1, -diag]
        vec = col
        for _ in range(t):
            q.append(-sum(r * v for r, v in zip(row, vec)))
            vec = [sum(a[i][j] * vec[j] for j in range(t)) for i in range(t)]
        new = [0] * (t + 2)
        for i in range(t + 2):
            acc = 0
            for j in range(max(0, i - len(q) + 1), min(i, t) + 1):
                acc += q[i - j] * coeffs[j]
            new[i] = acc
        coeffs = new
    return NumericalPolynomial(tuple(reversed(coeffs)))


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
def _cyclotomic(m: int) -> tuple[int, ...]:
    """The m-th cyclotomic polynomial, lowest degree first: x^m - 1 divided
    by the cyclotomic polynomials of the proper divisors of m."""
    cs = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            cs = _divide_exact(cs, _cyclotomic(d))
    return tuple(cs)


def _is_unipotent(matrix: IntegerMatrix) -> bool:
    n = matrix.size
    return mat_pow(matrix - IntegerMatrix.identity(n), n).is_zero


@lru_cache(maxsize=4096)
def quasi_unipotence(matrix: IntegerMatrix) -> int | None:
    """Minimal q >= 1 with matrix^q unipotent, or None when no power is.

    By Kronecker's theorem the matrix is quasi-unipotent iff its monic
    integer characteristic polynomial is a product of cyclotomic
    polynomials. Each Phi_m with totient(m) <= rank (so m <= 2 rank^2) is
    divided out as often as it divides; the quotient reaches 1 iff every
    eigenvalue is a root of unity, and q is then the lcm of the orders m
    found, since M^d is unipotent iff lambda^d = 1 for every eigenvalue.
    (M^q - I)^rank = 0 is checked before q is returned. Requires
    determinant +-1.
    """
    n = matrix.size
    rest = [int(c) for c in char_poly(matrix).coeffs]
    d = (-1) ** n * rest[0]
    if d not in (1, -1):
        raise NotInvertibleOverIntegers(f"determinant is {d}, not +-1")
    q = 1
    for m in range(1, 2 * n * n + 2):
        if len(rest) == 1:
            break
        if _totient(m) >= len(rest):
            continue
        quotient = _divide_exact(rest, _cyclotomic(m))
        while quotient is not None:
            rest, q = quotient, lcm(q, m)
            quotient = _divide_exact(rest, _cyclotomic(m))
    if len(rest) > 1:
        return None
    if not _is_unipotent(mat_pow(matrix, q)):
        raise AssertionError(f"cyclotomic characteristic polynomial but M^{q} is not unipotent")
    return q


def nilpotency_index(matrix: IntegerMatrix) -> int:
    """Least k >= 0 with (M - I)^(k+1) = 0; M must be unipotent."""
    n = matrix.size
    nil = matrix - IntegerMatrix.identity(n)
    power = IntegerMatrix.identity(n)
    for k in range(n):
        power = power * nil
        if power.is_zero:
            return k
    raise NotUnipotent("matrix is not unipotent")


def _kronecker_square_char_poly(coeffs: list[int]) -> list[int]:
    """det(xI - M (x) M) from det(xI - M), both lowest degree first.

    Newton's identities turn the monic coefficients into the power sums
    s_k = tr M^k for k <= n^2; the power sums of M (x) M are s_k^2, and
    Newton's identities run backwards (every division by k exact) turn them
    into the coefficients of the degree-n^2 polynomial.
    """
    n = len(coeffs) - 1
    size = n * n
    e = coeffs[::-1]  # e[k]: coefficient of x^(n-k)
    s = [0] * (size + 1)
    for k in range(1, size + 1):
        acc = k * e[k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += e[i] * s[k - i]
        s[k] = -acc
    squares = [v * v for v in s]
    out = [1] + [0] * size
    for k in range(1, size + 1):
        acc = squares[k]
        for i in range(1, k):
            acc += out[i] * squares[k - i]
        out[k] = -(acc // k)
    return out[::-1]


def spectral_radius(matrix: IntegerMatrix, eps: Fraction) -> RationalInterval:
    """Exact rational interval of width <= eps containing the spectral radius.

    The characteristic polynomial of the Kronecker square M (x) M has the
    pairwise eigenvalue products as roots, so its largest real root is the
    squared spectral radius; it is computed from the power sums of M, not
    from the n^2 x n^2 matrix. Integer Sturm isolation plus an
    integer-square-root enclosure then brackets the radius itself.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    coeffs = [int(c) for c in char_poly(matrix).coeffs]
    squared = NumericalPolynomial(tuple(_kronecker_square_char_poly(coeffs)))
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
