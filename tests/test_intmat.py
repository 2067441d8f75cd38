from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sigmaample import intmat
from sigmaample.engine import classify
from sigmaample.errors import NotInvertibleOverIntegers, NotUnipotent
from sigmaample.intmat import (
    IntegerMatrix,
    UnipotentReduction,
    _cyclotomic,
    _real_roots_dominate,
    char_poly,
    mat_pow,
    nilpotency_index,
    quasi_unipotence,
    spectral_radius,
    unipotent_reduction,
)
from sigmaample.intpoly import cauchy_root_bound
from sigmaample.numpoly import NumericalPolynomial

from conftest import unimodular_matrices
from reference_spectral import _divmod, kronecker_spectral_radius

S1 = IntegerMatrix.from_rows([[1, 4], [0, -1]])
S2 = IntegerMatrix.from_rows([[-1, 0], [4, 1]])
S1S2 = S1 * S2
SHEAR = IntegerMatrix.from_rows([[2, 0, 1], [2, 1, 0], [-1, 0, 0]])


# --- characteristic polynomial -------------------------------------------


def test_char_poly_identity():
    assert char_poly(IntegerMatrix.identity(2)) == NumericalPolynomial.of(1, -2, 1)


def test_char_poly_rotation():
    m = IntegerMatrix.from_rows([[0, 1], [-1, 0]])
    assert char_poly(m) == NumericalPolynomial.of(1, 0, 1)


def test_char_poly_wehler_composite():
    # trace 14 and determinant 1 by direct 2x2 multiplication
    assert S1S2.rows == ((15, 4), (-4, -1))
    assert char_poly(S1S2) == NumericalPolynomial.of(1, -14, 1)


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_matches_sympy(rows):
    m = IntegerMatrix.from_rows(rows)
    ours = char_poly(m)
    x = sympy.symbols("x")
    theirs = sympy.Matrix(rows).charpoly(x).all_coeffs()  # highest degree first
    assert list(ours.coeffs) == [int(c) for c in reversed(theirs)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_matches_sympy(rows):
    assert IntegerMatrix.from_rows(rows).determinant() == sympy.Matrix(rows).det()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(unimodular_matrices))
def test_inverse_unimodular_matches_sympy(m):
    inv = m.inverse_unimodular()
    expected = sympy.Matrix([list(row) for row in m.rows]).inv()
    assert [list(row) for row in inv.rows] == expected.tolist()
    assert m * inv == IntegerMatrix.identity(m.size)
    assert inv * m == IntegerMatrix.identity(m.size)


@pytest.mark.parametrize(
    "rows", [[[2]], [[1, 1], [-1, 1]], [[2, 0, 0], [0, 1, 0], [0, 0, -1]], [[1, 2], [2, 4]]]
)
def test_inverse_requires_determinant_plus_minus_one(rows):
    with pytest.raises(NotInvertibleOverIntegers):
        IntegerMatrix.from_rows(rows).inverse_unimodular()


# --- quasi-unipotence ------------------------------------------------------


def test_quasi_unipotence_identity():
    assert quasi_unipotence(IntegerMatrix.identity(3)) == 1


def test_quasi_unipotence_involution():
    assert mat_pow(S1, 2) == IntegerMatrix.identity(2)
    assert quasi_unipotence(S1) == 2


def test_quasi_unipotence_composite_is_not():
    assert quasi_unipotence(S1S2) is None


def test_quasi_unipotence_rejects_non_unimodular():
    with pytest.raises(NotInvertibleOverIntegers):
        quasi_unipotence(IntegerMatrix.from_rows([[2, 0], [0, 2]]))


def test_quasi_unipotence_minimal_orders():
    # companion matrices of cyclotomic polynomials of orders 3, 4, 6
    order3 = IntegerMatrix.from_rows([[0, -1], [1, -1]])
    order4 = IntegerMatrix.from_rows([[0, -1], [1, 0]])
    order6 = IntegerMatrix.from_rows([[0, -1], [1, 1]])
    assert quasi_unipotence(order3) == 3
    assert quasi_unipotence(order4) == 4
    assert quasi_unipotence(order6) == 6
    # block with orders 2 and 3 mixed needs their lcm
    mixed = IntegerMatrix.from_rows(
        [[-1, 0, 0], [0, 0, -1], [0, 1, -1]]
    )
    assert quasi_unipotence(mixed) == 6


def _cyclotomics_up_to_degree(max_degree):
    polys = []
    n = 1
    while True:
        # orders with totient above max_degree cannot divide the char poly
        if sympy.totient(n) > max_degree:
            if n > 2 * max_degree * max_degree + 1:
                break
            n += 1
            continue
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, sympy.symbols("x"))).all_coeffs()
        polys.append([int(c) for c in reversed(coeffs)])
        n += 1
    return polys


def _is_product_of_cyclotomics(poly: NumericalPolynomial) -> bool:
    """Trial division by every cyclotomic polynomial of allowed degree."""
    current = [Fraction(c) for c in poly.coeffs]
    cyclos = _cyclotomics_up_to_degree(poly.degree)
    progress = True
    while len(current) > 1 and progress:
        progress = False
        for candidate in cyclos:
            if len(candidate) > len(current):
                continue
            quotient, remainder = _divmod(current, [Fraction(c) for c in candidate])
            if not remainder:
                current = quotient
                progress = True
                break
    return len(current) == 1 and current[0] == 1


@settings(max_examples=40, deadline=None)
@given(st.one_of(unimodular_matrices(2), unimodular_matrices(3)))
def test_quasi_unipotent_iff_char_poly_cyclotomic_product(m):
    verdict = quasi_unipotence(m)
    assert (verdict is not None) == _is_product_of_cyclotomics(char_poly(m))


@settings(max_examples=30, deadline=None)
@given(unimodular_matrices(3))
def test_quasi_unipotence_invariant_under_inverse_and_conjugation(m):
    assert quasi_unipotence(m) == quasi_unipotence(m.inverse_unimodular())


@settings(max_examples=20, deadline=None)
@given(unimodular_matrices(3), unimodular_matrices(3))
def test_quasi_unipotence_conjugation(m, t):
    conj = t * m * t.inverse_unimodular()
    assert quasi_unipotence(m) == quasi_unipotence(conj)


def _permutation(cycles, size):
    """Permutation matrix sending e_i to e_next along each cycle."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rows[a][a], rows[b][a] = 0, 1
    return IntegerMatrix.from_rows(rows)


def test_quasi_unipotence_at_rank_16():
    # lcm{m : totient(m) <= 16} is 24504480; these orders come from the
    # cyclotomic factors alone, without powers or divisors of that lcm
    assert quasi_unipotence(_permutation([list(range(5)), list(range(5, 16))], 16)) == 55
    assert quasi_unipotence(_permutation([list(range(16))], 16)) == 16
    # Eichler transvection E(e, g_1) on U + <-2>^14 (basis e, f, g_1, ...):
    # x -> x + (x.e) g_1 - (x.g_1) e + (x.e) e, unipotent with Jordan index 2
    gram = [[0] * 16 for _ in range(16)]
    gram[0][1] = gram[1][0] = 1
    for i in range(2, 16):
        gram[i][i] = -2
    rows = [[int(i == j) for j in range(16)] for i in range(16)]
    rows[0][1], rows[0][2], rows[2][1] = 1, 2, 1
    eichler, g = IntegerMatrix.from_rows(rows), IntegerMatrix.from_rows(gram)
    assert eichler.transpose() * g * eichler == g
    assert quasi_unipotence(eichler) == 1
    assert nilpotency_index(eichler) == 2


def test_cyclotomic_polynomials_match_sympy():
    x = sympy.symbols("x")
    for m in range(1, 101):
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x)).all_coeffs()
        assert list(_cyclotomic(m)) == [int(c) for c in reversed(theirs)]


# --- nilpotency index ------------------------------------------------------


def test_nilpotency_index_identity():
    assert nilpotency_index(IntegerMatrix.identity(4)) == 0


def test_nilpotency_index_single_block():
    assert nilpotency_index(IntegerMatrix.from_rows([[1, 1], [0, 1]])) == 1


def test_nilpotency_index_shear():
    # nilpotent part N has N^2 != 0 = N^3, computed by hand
    n = SHEAR - IntegerMatrix.identity(3)
    n2 = n * n
    assert not n2.is_zero
    assert (n2 * n).is_zero
    assert nilpotency_index(SHEAR) == 2


def test_nilpotency_index_requires_unipotent():
    with pytest.raises(NotUnipotent):
        nilpotency_index(S1)


@settings(max_examples=25, deadline=None)
@given(unimodular_matrices(3))
def test_nilpotency_index_matches_inverse_for_unipotent_powers(m):
    q = quasi_unipotence(m)
    if q is None:
        assert unipotent_reduction(m) is None
        return
    u = mat_pow(m, q)
    assert nilpotency_index(u) == nilpotency_index(u.inverse_unimodular())
    assert unipotent_reduction(m) == UnipotentReduction(q, u, nilpotency_index(u))


# --- matrix powers ---------------------------------------------------------


def test_mat_pow_zero_is_identity():
    assert mat_pow(S1S2, 0) == IntegerMatrix.identity(2)


def test_mat_pow_involution_squares_to_identity():
    assert mat_pow(S1, 2) == IntegerMatrix.identity(2)


def test_mat_pow_negative_is_reversed_product_of_inverses():
    inv = mat_pow(S1S2, -1)
    assert inv.determinant() == 1
    assert inv == S2.inverse_unimodular() * S1.inverse_unimodular()
    assert inv * S1S2 == IntegerMatrix.identity(2)


def test_mat_pow_negative_requires_unimodular():
    with pytest.raises(NotInvertibleOverIntegers):
        mat_pow(IntegerMatrix.from_rows([[2]]), -1)


@settings(max_examples=30, deadline=None)
@given(unimodular_matrices(3), st.integers(-6, 6), st.integers(-6, 6))
def test_mat_pow_additive(m, a, b):
    assert mat_pow(m, a) * mat_pow(m, b) == mat_pow(m, a + b)


# --- spectral radius -------------------------------------------------------


def test_spectral_radius_identity():
    iv = spectral_radius(IntegerMatrix.identity(3), Fraction(1, 100))
    assert iv.lo <= 1 <= iv.hi
    assert iv.width <= Fraction(1, 100)


def test_spectral_radius_wehler_composite():
    iv = spectral_radius(S1S2, Fraction(1, 1000))
    assert iv.width <= Fraction(1, 1000)
    # exact containment of 7 + 4 sqrt(3): check (x - 7)^2 vs 48 on both ends
    assert iv.hi > 7 and (iv.hi - 7) ** 2 >= 48
    assert iv.lo <= 7 or (iv.lo - 7) ** 2 <= 48


def test_spectral_radius_companion_matrix():
    # companion of x^2 - 3x + 1, largest root (3 + sqrt(5))/2
    m = IntegerMatrix.from_rows([[0, -1], [1, 3]])
    iv = spectral_radius(m, Fraction(1, 10**6))
    assert (2 * iv.hi - 3) ** 2 >= 5
    assert iv.lo <= Fraction(3, 2) or (2 * iv.lo - 3) ** 2 <= 5


def test_spectral_radius_nilpotent_is_zero():
    m = IntegerMatrix.from_rows([[0, 1], [0, 0]])
    iv = spectral_radius(m, Fraction(1, 1000))
    assert iv.lo <= 0 <= iv.hi
    assert iv.width <= Fraction(1, 1000)


def test_spectral_radius_negative_dominant_eigenvalue():
    m = IntegerMatrix.from_rows([[-2, 0], [0, 1]])
    iv = spectral_radius(m, Fraction(1, 1000))
    assert iv.lo <= 2 <= iv.hi


def test_spectral_radius_complex_dominant_pair():
    # eigenvalues 1 +- i sqrt(2), modulus sqrt(3)
    m = IntegerMatrix.from_rows([[1, -2], [1, 1]])
    iv = spectral_radius(m, Fraction(1, 10**6))
    assert iv.lo**2 <= 3 <= iv.hi**2


def _assert_grid_cell(iv, matrix, eps):
    """iv's ends are consecutive multiples of S/2^j, for S the Cauchy bound
    of det(xI - M) rounded up to an odd integer and the least j with
    S/2^j <= eps."""
    top = int(cauchy_root_bound(char_poly(matrix).numerators)) | 1
    j = 0
    while Fraction(top, 2**j) > eps:
        j += 1
    step = Fraction(top, 2**j)
    assert iv.width == step
    assert (iv.lo / step).denominator == 1


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3))
def test_spectral_radius_contains_float_estimate(rows):
    m = IntegerMatrix.from_rows(rows)
    iv = spectral_radius(m, Fraction(1, 1000))
    estimate = max(abs(x) for x in np.linalg.eigvals(np.array(rows, dtype=float)))
    assert float(iv.lo) - 1e-6 <= estimate <= float(iv.hi) + 1e-6
    _assert_grid_cell(iv, m, Fraction(1, 1000))
    bound = 1 + max(abs(c) for row in rows for c in row) * 3
    assert iv.hi <= bound + 1


# Product of eight reflections in (-2)-vectors of U + <-2>^6: the first
# rank-8 matrix of the benchmark's salem_ladder workload at seed 101.
SALEM8 = IntegerMatrix.from_rows([
    [17, 30, -18, 4, 0, 26, 32, 0],
    [17, 29, -16, 4, 0, 26, 32, 0],
    [3, 5, -3, 0, 0, 4, 6, 0],
    [-12, -20, 12, -3, 0, -18, -22, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [-6, -11, 6, -2, 0, -9, -12, 0],
    [-10, -18, 10, -2, 0, -16, -19, 0],
    [0, 0, 0, 0, 0, 0, 0, 1],
])


def test_rank_8_enclosure_endpoints_are_pinned():
    # the cell of the grid k 55/2^46 (S = 1 + 54 = 55) that holds the
    # largest real root of x^6 - 12x^5 + 11x^4 - 16x^3 + 11x^2 - 12x + 1, the
    # factor of p beside (x - 1)^2, ~11.13390164506 (sympy's real_roots)
    iv = spectral_radius(SALEM8, Fraction(1, 10**12))
    assert (iv.lo, iv.hi) == (
        Fraction(783478676560415, 70368744177664),
        Fraction(391739338280235, 35184372088832),
    )
    x = sympy.symbols("x")
    rho = max(sympy.real_roots(sympy.Matrix(SALEM8.rows).charpoly(x).as_expr()), key=abs)
    assert sympy.Rational(iv.lo.numerator, iv.lo.denominator) < rho
    assert rho < sympy.Rational(iv.hi.numerator, iv.hi.denominator)


@pytest.mark.parametrize("rows, rho", [([[-3]], 3), ([[-2, 0], [0, 1]], 2), ([[2]], 2)])
@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(1, 1000)])
def test_enclosure_is_one_cell_of_the_odd_dyadic_grid(rows, rho, eps):
    m = IntegerMatrix.from_rows(rows)
    iv = spectral_radius(m, eps)
    _assert_grid_cell(iv, m, eps)
    # an integer eigenvalue is never a grid point, so it lies strictly inside
    assert iv.lo < rho < iv.hi


# --- the certificate of the route on p's own Sturm chain ------------------


def _companion(coeffs):
    """Companion matrix of the monic polynomial, coefficients lowest first."""
    n = len(coeffs) - 1
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -coeffs[i]
    return IntegerMatrix.from_rows(rows)


def _certificate_calls(monkeypatch):
    """A list that records (lower end, verdict) for each certificate call."""
    calls = []

    def spy(p, lo, real_beyond):
        calls.append((lo, _real_roots_dominate(p, lo, real_beyond)))
        return calls[-1][1]

    monkeypatch.setattr(intmat, "_real_roots_dominate", spy)
    return calls


SALEM4 = (1, -1, -1, -1, 1)  # x^4 - x^3 - x^2 - x + 1, Salem number ~1.72208


@pytest.mark.parametrize("factors", [
    ((5, -2, 1), (-2, 1)),  # 1 +- 2i, modulus sqrt 5, above the real root 2
    ((4, -2, 1), (-2, 1)),  # 1 +- i sqrt 3, modulus 2, tied with the real root 2
    (SALEM4, (3, -2, 1)),  # 1 +- i sqrt 2, modulus sqrt 3 ~1.73205, above the Salem number
])
def test_certificate_refuses_a_non_real_root_at_the_top(factors, monkeypatch):
    p = NumericalPolynomial.of(1)
    for f in factors:
        p = p * NumericalPolynomial(f)
    m = _companion(p.numerators)
    eps = Fraction(1, 1000)
    calls = _certificate_calls(monkeypatch)
    iv = spectral_radius(m, eps)
    # p has a nonzero real root, so the bisection on its chain ran and only
    # the certificate at its lower end can refuse it
    ((lo, verdict),) = calls
    assert lo > 0 and not verdict
    assert iv == kronecker_spectral_radius(m, eps)
    estimate = max(abs(np.roots([float(c) for c in reversed(p.numerators)])))
    assert iv.lo <= estimate <= iv.hi


def test_certificate_accepts_a_dominant_real_root(monkeypatch):
    eps = Fraction(1, 10**12)
    calls = _certificate_calls(monkeypatch)
    for m in (_companion(SALEM4), SALEM8, S1S2):
        iv = spectral_radius(m, eps)
        assert calls[-1] == (iv.lo, True)
    assert len(calls) == 3


def _block_sum(m, identity_size):
    n = m.size + identity_size
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(m.rows):
        rows[i][: m.size] = row
    return IntegerMatrix.from_rows(rows)


@pytest.mark.parametrize("identity_size", [10, 14])
def test_classify_wehler_plus_identity_at_ranks_12_and_16(identity_size):
    # the power test raised this to the 720720-th power at rank 12
    cls = classify(_block_sum(S1S2, identity_size))
    assert not cls.quasi_unipotent
    # 7 + 4 sqrt 3 on the grid of S/2^j, S = 3949 at rank 12, 54055 at rank 16
    assert (cls.radius.lo, cls.radius.hi) == {
        10: (Fraction(58417557, 4194304), Fraction(29210753, 2097152)),
        14: (Fraction(934665005, 67108864), Fraction(233679765, 16777216)),
    }[identity_size]
    lo, hi = cls.radius.lo, cls.radius.hi
    assert 7 < lo and (lo - 7) ** 2 < 48 < (hi - 7) ** 2
