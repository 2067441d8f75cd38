"""Exact integer matrix arithmetic and spectral analysis.

All decisions here are exact. Every matrix invariant comes from the
characteristic polynomial, computed by the division-free Berkowitz
recursion: the determinant is its constant term up to sign, inverses of
determinant +-1 follow from Cayley-Hamilton, and quasi-unipotence is read
off it by trial division with cyclotomic polynomials (Kronecker's theorem),
so no matrix is raised to a large power. Spectral radii come from integer
Sturm bisection on the degree-n Graeffe polynomial G(y) = p(sqrt y)
p(-sqrt y) of the characteristic polynomial p, whose real roots above 0 are
the squared real eigenvalues. Its answer is certified exactly per matrix:
a Schur-Cohn count of the roots of p inside a circle just below the
bisection's lower end and a Sturm count of the real roots outside it must
agree, so that the radius is attained at a real eigenvalue. When they do
not, the same bisection runs on the characteristic polynomial of the
Kronecker square M (x) M, whose real roots include every squared eigenvalue
modulus; that polynomial is built from the power sums of M by Newton's
identities, never from the n^2 x n^2 matrix itself, and its Cauchy bound
starts both bisections. The characteristic polynomial, the squares
M^(2^j) that matrix powers and partial sums by doubling read, and the
reduction of a quasi-unipotent matrix to its unipotent power (q, M^q and the
Jordan index of M^q) are each computed once per matrix in a process.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .errors import NotInvertibleOverIntegers, NotUnipotent
from .intpoly import (
    RationalInterval,
    _divide_exact,
    cauchy_root_bound,
    largest_real_root_interval,
    sign_variations,
    sqrt_enclosure,
    sturm_chain,
    zeros_inside_unit_disk,
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
        super().__init__(rows)

    @classmethod
    def _built(cls, rows: tuple[tuple[int, ...], ...]) -> "IntegerMatrix":
        """A matrix from rows that this class's own operators built: square,
        of the operands' size and with ``int`` entries by construction, so
        none of them is checked again."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        return matrix

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
        return IntegerMatrix._built(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_size(other)
        return IntegerMatrix._built(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._built(tuple(tuple(-a for a in row) for row in self.rows))

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_size(other)
        cols = tuple(zip(*other.rows))
        return IntegerMatrix._built(
            tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows)
        )

    def _check_size(self, other: "IntegerMatrix") -> None:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")

    def column_action(self, coords: Sequence) -> tuple:
        """Matrix times column vector; accepts int or Fraction entries."""
        if len(coords) != self.size:
            raise ValueError(f"vector length {len(coords)} does not match size {self.size}")
        return tuple([sum(map(mul, row, coords)) for row in self.rows])

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.rows)))

    def determinant(self) -> int:
        """(-1)^n times the constant term of the characteristic polynomial."""
        return (-1) ** self.size * char_poly(self).numerators[0]

    def inverse_unimodular(self) -> "IntegerMatrix":
        """Exact integer inverse by Cayley-Hamilton; requires determinant +-1.

        With det(xI - M) = x^n + c_(n-1) x^(n-1) + ... + c_0 and c_0 = +-1,
        M^-1 = -c_0 (M^(n-1) + c_(n-1) M^(n-2) + ... + c_1 I).
        """
        coeffs = char_poly(self).numerators
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


@lru_cache(maxsize=4096)
def _square(matrix: IntegerMatrix) -> IntegerMatrix:
    """M * M, formed once per matrix in a process, so that the squares
    M^(2^j) of a matrix are too, however many powers and partial sums by
    doubling read them."""
    return matrix * matrix


def mat_pow(matrix: IntegerMatrix, exponent: int) -> IntegerMatrix:
    """Exact matrix power by repeated squaring; negative powers via the inverse."""
    if exponent < 0:
        base = matrix.inverse_unimodular()
        exponent = -exponent
    else:
        base = matrix
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = _square(base)
    return IntegerMatrix.identity(matrix.size) if result is None else result


@lru_cache(maxsize=4096)
def char_poly(matrix: IntegerMatrix) -> NumericalPolynomial:
    """Characteristic polynomial det(xI - M) by the Berkowitz recursion.

    Division-free: every intermediate value is an integer. Computed once per
    matrix in a process; the determinant, the inverse, quasi-unipotence and
    the spectral radius all read it.
    """
    a = matrix.rows
    # coefficients of det(xI - leading principal submatrix), highest first
    coeffs = [1]
    for t, current in enumerate(a):
        block = [r[:t] for r in a[:t]]
        row = current[:t]
        # first column of the Toeplitz transform:
        # 1, -a_tt, -(R S), -(R A S), ..., -(R A^(t-1) S)
        q = [1, -current[t]]
        vec = [r[t] for r in a[:t]]
        for k in range(t):
            if k:
                vec = [sum(map(mul, r, vec)) for r in block]
            q.append(-sum(map(mul, row, vec)))
        # the Toeplitz product: new[i] = sum over j <= min(i, t) of q[i - j] coeffs[j]
        rq = q[::-1]
        coeffs = [sum(map(mul, rq[t + 1 - i :], coeffs)) for i in range(t + 2)]
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


def quasi_unipotence(matrix: IntegerMatrix) -> int | None:
    """Minimal q >= 1 with matrix^q unipotent, or None when no power is.

    By Kronecker's theorem the matrix is quasi-unipotent iff its monic
    integer characteristic polynomial is a product of cyclotomic
    polynomials. Each Phi_m with totient(m) <= rank (so m <= 2 rank^2) is
    divided out as often as it divides; the quotient reaches 1 iff every
    eigenvalue is a root of unity, and q is then the lcm of the orders m
    found, since M^d is unipotent iff lambda^d = 1 for every eigenvalue.
    ``unipotent_reduction`` checks that M^q is unipotent and keeps one
    result per matrix. Requires determinant +-1.
    """
    n = matrix.size
    rest = char_poly(matrix).numerators
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
    return None if len(rest) > 1 else q


def nilpotency_index(matrix: IntegerMatrix) -> int:
    """Least k >= 0 with (M - I)^(k+1) = 0; M must be unipotent."""
    n = matrix.size
    nil = matrix - IntegerMatrix.identity(n)
    power, k = nil, 0
    while not power.is_zero:
        k += 1
        if k == n:
            raise NotUnipotent("matrix is not unipotent")
        power = power * nil
    return k


class UnipotentReduction(Record):
    """The minimal q >= 1 with M^q unipotent, the unipotent power M^q, and
    its Jordan index: the least k with (M^q - I)^(k+1) = 0."""

    __slots__ = ("power", "matrix", "jordan_index")


@lru_cache(maxsize=4096)
def unipotent_reduction(matrix: IntegerMatrix) -> UnipotentReduction | None:
    """The reduction of a quasi-unipotent matrix to its unipotent power, or
    None when no power is unipotent. Computed once per matrix in a process;
    finding the Jordan index proves M^q unipotent."""
    q = quasi_unipotence(matrix)
    if q is None:
        return None
    reduced = mat_pow(matrix, q)
    try:
        k = nilpotency_index(reduced)
    except NotUnipotent:
        raise AssertionError(
            f"cyclotomic characteristic polynomial but M^{q} is not unipotent"
        ) from None
    return UnipotentReduction(q, reduced, k)


def _kronecker_square_char_poly(coeffs: Sequence[int]) -> list[int]:
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


def exact_eps(eps) -> Fraction:
    """A tolerance as a positive ``Fraction``; a float is refused, since its
    binary value would enter the decision."""
    if isinstance(eps, float):
        raise TypeError("exact eps required, not float")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def _graeffe(coeffs: Sequence[int]) -> NumericalPolynomial:
    """G(y) = p(sqrt y) p(-sqrt y) = E(y)^2 - y O(y)^2 for p(x) = E(x^2) +
    x O(x^2), lowest degree first: the polynomial of the same degree whose
    roots are the squared roots of p."""
    even, odd = coeffs[0::2], coeffs[1::2]
    out = [0] * len(coeffs)
    for i, a in enumerate(even):
        for j, b in enumerate(even):
            out[i + j] += a * b
    for i, a in enumerate(odd):
        for j, b in enumerate(odd):
            out[i + j + 1] -= a * b
    return NumericalPolynomial(tuple(out))


def _real_roots_dominate(p: NumericalPolynomial, lo: Fraction) -> bool:
    """Whether every root of p of modulus above r is real, where
    r = isqrt(floor(lo 4^16)) / 2^16, so that r^2 <= lo.

    The Schur-Cohn count of the zeros of b^n p((a/b) z) in the unit disk
    gives the roots of modulus below r = a/b; a regular count also proves
    that none has modulus r. A Sturm chain on p counts the distinct real
    roots beyond -r and r. The two agree only when all roots of modulus
    above r are real and simple. False when lo <= 0 or the Schur-Cohn
    recursion is singular.
    """
    if lo <= 0:
        return False
    a, b = isqrt(lo.numerator * 4**16 // lo.denominator), 2**16
    coeffs = p.numerators
    n = len(coeffs) - 1
    inside = zeros_inside_unit_disk([c * a**i * b ** (n - i) for i, c in enumerate(coeffs)])
    if inside is None:
        return False
    chain = sturm_chain(p)
    r, far = Fraction(a, b), cauchy_root_bound(coeffs) + 1
    real_beyond = (
        sign_variations(chain, -far) - sign_variations(chain, -r)
        + sign_variations(chain, r) - sign_variations(chain, far)
    )
    return real_beyond == n - inside


def spectral_radius(matrix: IntegerMatrix, eps: Fraction) -> RationalInterval:
    """Exact rational interval of width <= eps containing the spectral radius.

    The squared radius rho^2 is the largest real root of the characteristic
    polynomial K of the Kronecker square M (x) M, whose roots are the
    pairwise eigenvalue products. When rho is attained at a real eigenvalue,
    rho^2 is also the largest real root of the degree-n Graeffe polynomial
    G(y) = p(sqrt y) p(-sqrt y) of p = det(xI - M), and the integer Sturm
    bisection on G, started from K's Cauchy bound, makes every decision that
    the bisection on K makes. That hypothesis is then certified exactly from
    the lower end of G's interval (``_real_roots_dominate``). If G has no
    real root, its interval does not lie above 0 or the certificate fails,
    the same bisection runs on the square-free part of K (built from the
    power sums of M, not from the n^2 x n^2 matrix). Either way an
    integer-square-root enclosure then brackets the radius itself, and the
    bytes are those of the Kronecker route.
    """
    eps = exact_eps(eps)
    p = char_poly(matrix)
    kronecker = _kronecker_square_char_poly(p.numerators)
    start = cauchy_root_bound(kronecker) + 1
    # sqrt(b) - sqrt(a) <= sqrt(b - a) <= eps/2 (1/2 when eps >= 1), and the
    # integer square roots move the two ends by less than 4/slack <= eps/2
    width = eps * eps / 4 if eps < 1 else Fraction(1, 4)
    slack = max(8, int(8 / eps) + 1)
    try:
        iv = largest_real_root_interval(_graeffe(p.numerators), width, start)
    except ValueError:  # no eigenvalue is real or purely imaginary
        iv = None
    if iv is None or not _real_roots_dominate(p, iv.lo):
        iv = largest_real_root_interval(NumericalPolynomial(tuple(kronecker)), width, start)
    clipped = RationalInterval(max(iv.lo, Fraction(0)), max(iv.hi, Fraction(0)))
    enclosure = sqrt_enclosure(clipped, slack)
    if enclosure.width > eps:
        raise AssertionError(f"radius enclosure of width {enclosure.width} exceeds eps {eps}")
    return enclosure
