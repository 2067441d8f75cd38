from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sigmaample import cli, engine, intmat
from sigmaample.engine import classify
from sigmaample.errors import NotInvertibleOverIntegers, NotUnipotent
from sigmaample.intmat import (
    IntegerMatrix,
    UnipotentReduction,
    _cyclotomic,
    char_poly,
    mat_pow,
    nilpotency_index,
    quasi_unipotence,
    spectral_radius,
    unipotent_reduction,
)
from sigmaample.intpoly import cauchy_root_bound
from sigmaample.numpoly import NumericalPolynomial

from conftest import perfbench_deck, unimodular_matrices
import reference_numpoly as rn
from reference_intmat import inverse_unimodular
from reference_spectral import _divmod, kronecker_spectral_radius

S1 = IntegerMatrix([[1, 4], [0, -1]])
S2 = IntegerMatrix([[-1, 0], [4, 1]])
S1S2 = S1 * S2
SHEAR = IntegerMatrix([[2, 0, 1], [2, 1, 0], [-1, 0, 0]])


def test_entries_pass_operator_index():
    # numpy integers and bools are stored as int; a Fraction, float or str is refused
    m = IntegerMatrix(np.array([[2, 1], [1, 1]], dtype=np.int64))
    assert m == IntegerMatrix([[2, 1], [1, 1]])
    assert {type(c) for row in m.rows for c in row} == {int}
    assert IntegerMatrix([[True, False], [False, True]]) == IntegerMatrix.identity(2)
    for entry in (Fraction(1), 1.0, "1"):
        with pytest.raises(TypeError):
            IntegerMatrix([[entry]])


# --- characteristic polynomial -------------------------------------------


def test_char_poly_identity():
    assert char_poly(IntegerMatrix.identity(2)) == NumericalPolynomial([1, -2, 1])


def test_char_poly_rotation():
    m = IntegerMatrix([[0, 1], [-1, 0]])
    assert char_poly(m) == NumericalPolynomial([1, 0, 1])


def test_char_poly_wehler_composite():
    # trace 14 and determinant 1 by direct 2x2 multiplication
    assert S1S2.rows == ((15, 4), (-4, -1))
    assert char_poly(S1S2) == NumericalPolynomial([1, -14, 1])


@settings(max_examples=60)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_char_poly_matches_sympy(rows):
    m = IntegerMatrix(rows)
    ours = char_poly(m)
    x = sympy.symbols("x")
    theirs = sympy.Matrix(rows).charpoly(x).all_coeffs()  # highest degree first
    assert list(ours.coeffs) == [int(c) for c in reversed(theirs)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_determinant_matches_sympy(rows):
    assert IntegerMatrix(rows).determinant() == sympy.Matrix(rows).det()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(unimodular_matrices))
def test_inverse_unimodular_matches_sympy(m):
    inv = inverse_unimodular(m)
    expected = sympy.Matrix([list(row) for row in m.rows]).inv()
    assert [list(row) for row in inv.rows] == expected.tolist()
    assert m * inv == IntegerMatrix.identity(m.size)
    assert inv * m == IntegerMatrix.identity(m.size)


@pytest.mark.parametrize(
    "rows", [[[2]], [[1, 1], [-1, 1]], [[2, 0, 0], [0, 1, 0], [0, 0, -1]], [[1, 2], [2, 4]]]
)
def test_quasi_unipotence_requires_determinant_plus_minus_one(rows):
    with pytest.raises(NotInvertibleOverIntegers):
        quasi_unipotence(IntegerMatrix(rows))


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
        quasi_unipotence(IntegerMatrix([[2, 0], [0, 2]]))


def test_quasi_unipotence_minimal_orders():
    # companion matrices of cyclotomic polynomials of orders 3, 4, 6
    order3 = IntegerMatrix([[0, -1], [1, -1]])
    order4 = IntegerMatrix([[0, -1], [1, 0]])
    order6 = IntegerMatrix([[0, -1], [1, 1]])
    assert quasi_unipotence(order3) == 3
    assert quasi_unipotence(order4) == 4
    assert quasi_unipotence(order6) == 6
    # block with orders 2 and 3 mixed needs their lcm
    mixed = IntegerMatrix(
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
    assert quasi_unipotence(m) == quasi_unipotence(inverse_unimodular(m))


@settings(max_examples=20, deadline=None)
@given(unimodular_matrices(3), unimodular_matrices(3))
def test_quasi_unipotence_conjugation(m, t):
    conj = t * m * inverse_unimodular(t)
    assert quasi_unipotence(m) == quasi_unipotence(conj)


def _permutation(cycles, size):
    """Permutation matrix sending e_i to e_next along each cycle."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rows[a][a], rows[b][a] = 0, 1
    return IntegerMatrix(rows)


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
    eichler, g = IntegerMatrix(rows), IntegerMatrix(gram)
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
    assert nilpotency_index(IntegerMatrix([[1, 1], [0, 1]])) == 1


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
    assert nilpotency_index(u) == nilpotency_index(inverse_unimodular(u))
    assert unipotent_reduction(m) == UnipotentReduction(q, u, nilpotency_index(u))


# --- matrix powers ---------------------------------------------------------


def test_mat_pow_zero_is_identity():
    assert mat_pow(S1S2, 0) == IntegerMatrix.identity(2)


def test_mat_pow_involution_squares_to_identity():
    assert mat_pow(S1, 2) == IntegerMatrix.identity(2)


@pytest.mark.parametrize("m", [S1S2, IntegerMatrix([[2]])])
def test_mat_pow_refuses_a_negative_exponent(m):
    with pytest.raises(ValueError, match="exponent"):
        mat_pow(m, -1)


@settings(max_examples=30, deadline=None)
@given(unimodular_matrices(3), st.integers(0, 12), st.integers(0, 12))
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
    m = IntegerMatrix([[0, -1], [1, 3]])
    iv = spectral_radius(m, Fraction(1, 10**6))
    assert (2 * iv.hi - 3) ** 2 >= 5
    assert iv.lo <= Fraction(3, 2) or (2 * iv.lo - 3) ** 2 <= 5


def test_spectral_radius_nilpotent_is_zero():
    m = IntegerMatrix([[0, 1], [0, 0]])
    iv = spectral_radius(m, Fraction(1, 1000))
    assert iv.lo <= 0 <= iv.hi
    assert iv.width <= Fraction(1, 1000)


def test_spectral_radius_negative_dominant_eigenvalue():
    m = IntegerMatrix([[-2, 0], [0, 1]])
    iv = spectral_radius(m, Fraction(1, 1000))
    assert iv.lo <= 2 <= iv.hi


def test_spectral_radius_complex_dominant_pair():
    # eigenvalues 1 +- i sqrt(2), modulus sqrt(3)
    m = IntegerMatrix([[1, -2], [1, 1]])
    iv = spectral_radius(m, Fraction(1, 10**6))
    assert iv.lo**2 <= 3 <= iv.hi**2


def _grid_step(matrix, eps):
    """S/2^j, for S the Cauchy bound of det(xI - M) rounded up to an odd
    integer and the least j with S/2^j <= eps."""
    top = int(cauchy_root_bound(char_poly(matrix).numerators)) | 1
    j = 0
    while Fraction(top, 2**j) > eps:
        j += 1
    return Fraction(top, 2**j)


def _assert_grid_cell(iv, matrix, eps):
    """iv's ends are consecutive multiples of ``_grid_step``."""
    step = _grid_step(matrix, eps)
    assert iv.width == step
    assert (iv.lo / step).denominator == 1


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3))
def test_spectral_radius_contains_float_estimate(rows):
    m = IntegerMatrix(rows)
    iv = spectral_radius(m, Fraction(1, 1000))
    estimate = max(abs(x) for x in np.linalg.eigvals(np.array(rows, dtype=float)))
    assert float(iv.lo) - 1e-6 <= estimate <= float(iv.hi) + 1e-6
    _assert_grid_cell(iv, m, Fraction(1, 1000))
    bound = 1 + max(abs(c) for row in rows for c in row) * 3
    assert iv.hi <= bound + 1


# Product of eight reflections in (-2)-vectors of U + <-2>^6: the first
# rank-8 matrix of the benchmark's salem_ladder workload at seed 101.
SALEM8 = IntegerMatrix([
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
    m = IntegerMatrix(rows)
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
    return IntegerMatrix(rows)


def _root_counts(monkeypatch):
    """A list that records (radius, count) for each ``_roots_beyond`` call."""
    calls = []
    count = intmat._roots_beyond

    def spy(p, r):
        calls.append((r, count(p, r)))
        return calls[-1][1]

    monkeypatch.setattr(intmat, "_roots_beyond", spy)
    return calls


def _sturm_cell(m, eps):
    """The cell of the grid of ``_grid_step`` that holds the largest modulus
    of a real eigenvalue, found with sympy's real roots."""
    step = _grid_step(m, eps)
    x = sympy.symbols("x")
    real = max(abs(r) for r in sympy.real_roots(sympy.Matrix(m.rows).charpoly(x).as_expr()))
    k = int(sympy.floor(real / sympy.Rational(step.numerator, step.denominator)))
    return k * step, (k + 1) * step


SALEM4 = (1, -1, -1, -1, 1)  # x^4 - x^3 - x^2 - x + 1, Salem number ~1.72208
# x^4 + x^3 - 2x^2 - 2x + 1: largest real root ~1.28879, below a pair of modulus ~1.41161
PAIR_ABOVE = (1, -2, -2, 1, 1)


@pytest.mark.parametrize("factors", [
    ((5, -2, 1), (-2, 1)),  # 1 +- 2i, modulus sqrt 5, above the real root 2
    (SALEM4, (3, -2, 1)),  # 1 +- i sqrt 2, modulus sqrt 3 ~1.73205, above the Salem number
    (PAIR_ABOVE,),
])
def test_certificate_refuses_a_non_real_root_at_the_top(factors, monkeypatch):
    p = (1,)
    for f in factors:
        p = rn.mul(p, f)
    p = rn.as_polynomial(p)
    m = _companion(p.numerators)
    eps = Fraction(1, 1000)
    calls = _root_counts(monkeypatch)
    iv = spectral_radius(m, eps)
    # p has a nonzero real root, so the bisection on its chain ran, and the
    # count at its upper end found a root beyond it; every later count is
    # asked strictly above that end, since rho is
    _, hi = _sturm_cell(m, eps)
    (certificate, beyond), *fallback = calls
    assert certificate == hi and beyond > 0
    assert fallback and all(r > hi for r, _ in fallback)
    assert iv == kronecker_spectral_radius(m, eps)
    estimate = max(abs(np.roots([float(c) for c in reversed(p.numerators)])))
    assert iv.lo <= estimate <= iv.hi


def test_fallback_finds_a_pair_in_the_cell_above_the_real_root(monkeypatch):
    # (x - 2)(x^2 - 2x + 5): at eps 1 the grid step is 11/16, the root 2
    # lies in [11/8, 33/16] and the pair 1 +- 2i, of modulus sqrt 5, in the
    # next cell up, whose upper end 11/4 the fallback must count at
    m, eps = _companion((-10, 9, -4, 1)), Fraction(1)
    calls = _root_counts(monkeypatch)
    iv = spectral_radius(m, eps)
    assert _sturm_cell(m, eps) == (Fraction(11, 8), Fraction(33, 16))
    assert (iv.lo, iv.hi) == (Fraction(33, 16), Fraction(11, 4))
    assert iv == kronecker_spectral_radius(m, eps)
    assert [r for r, _ in calls] == [Fraction(33, 16), Fraction(11, 2), Fraction(11, 4)]


@pytest.mark.parametrize("m", [
    _companion((-8, 8, -4, 1)),  # (x - 2)(x^2 - 2x + 4): 1 +- i sqrt 3 tied with the root 2
    _permutation([[0, 1, 2]], 3),  # the 3-cycle: three roots of modulus 1
])
def test_one_count_certifies_a_real_root_of_the_top_modulus(m, monkeypatch):
    eps = Fraction(1, 1000)
    calls = _root_counts(monkeypatch)
    iv = spectral_radius(m, eps)
    assert calls == [(iv.hi, 0)]
    assert (iv.lo, iv.hi) == _sturm_cell(m, eps)
    assert iv == kronecker_spectral_radius(m, eps)


def test_no_count_when_the_sturm_cell_reaches_the_cauchy_bound(monkeypatch):
    # at eps 7 >= S = 3 the bisection on p's chain takes no step, so its
    # cell is [0, S], which holds rho by the strict Cauchy bound
    m, eps = _permutation([[0, 1, 2]], 3), Fraction(7)
    calls = _root_counts(monkeypatch)
    iv = spectral_radius(m, eps)
    assert calls == []
    assert (iv.lo, iv.hi) == (0, 3)
    assert iv == kronecker_spectral_radius(m, eps)


def test_certificate_accepts_a_dominant_real_root(monkeypatch):
    eps = Fraction(1, 10**12)
    calls = _root_counts(monkeypatch)
    for m in (_companion(SALEM4), SALEM8, S1S2):
        iv = spectral_radius(m, eps)
        assert calls[-1] == (iv.hi, 0)
    assert len(calls) == 3


def _transvections(n, steps):
    """I times I + c E_ij for each (i, j, c) in turn: column j gains c
    times column i."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in steps:
        for row in rows:
            row[j] += c * row[i]
    return IntegerMatrix(rows)


@pytest.mark.parametrize("n, steps", [
    (10, [(6, 4, -1), (4, 0, 2), (7, 6, -1), (2, 5, -1), (5, 7, -1),
          (6, 7, -1), (7, 8, 1), (7, 1, -2), (0, 7, -1), (3, 1, -1)]),
    (10, [(7, 2, 2), (3, 0, 2), (1, 0, -1), (1, 3, 2), (6, 4, -1),
          (0, 9, 2), (8, 7, 2), (3, 7, 2), (9, 1, -2)]),
    (12, [(7, 11, -1), (5, 11, 2), (11, 1, -1), (0, 5, -2), (3, 8, 2),
          (4, 10, 1), (3, 5, -2), (1, 0, -2), (3, 11, -2)]),
    (12, [(7, 6, -1), (8, 2, -1), (2, 7, -2), (3, 7, -2), (6, 10, 2), (11, 2, -2),
          (5, 11, 2), (3, 9, -2), (9, 11, -1), (7, 9, 2), (10, 9, -1)]),
])
def test_fallback_route_matches_kronecker_route_at_ranks_10_and_12(n, steps, monkeypatch):
    m = _transvections(n, steps)
    eps = Fraction(1, 1000)
    calls = _root_counts(monkeypatch)
    iv = spectral_radius(m, eps)
    # one count certifies the bisection on p's chain; more mean that the
    # count refused it, or that it never ran
    assert len(calls) > 1
    assert iv == kronecker_spectral_radius(m, eps)
    assert quasi_unipotence(m) is None and iv.lo > 1
    p = char_poly(m).numerators
    estimate = max(abs(np.roots([float(c) for c in reversed(p)])))
    assert iv.lo <= estimate <= iv.hi


def _block_sum(m, identity_size):
    n = m.size + identity_size
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate(m.rows):
        rows[i][: m.size] = row
    return IntegerMatrix(rows)


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


@pytest.mark.parametrize("seed", [7, 11])
def test_salem_actions_keep_their_cone_and_one_count_certifies_rho(
    seed, tmp_path, monkeypatch, capsys
):
    """A map that keeps a closed, pointed, full-dimensional cone has its
    spectral radius as an eigenvalue (Birkhoff). Every salem deck action keeps
    its surface cone, so the real route's cell holds rho: each
    ``spectral_radius`` asks ``_roots_beyond`` at most once, is told 0, and
    never starts the fallback's second bisection."""
    calls = _root_counts(monkeypatch)
    bisections, counts = [], []
    bisect, radius = intmat._bisect, engine.spectral_radius

    def counted_bisect(*args):
        bisections.append(args)
        return bisect(*args)

    def checked_radius(matrix, eps):
        del calls[:], bisections[:]
        iv = radius(matrix, eps)
        assert len(bisections) == 1 and [n for _, n in calls] in ([], [0]), calls
        counts.append(len(calls))
        return iv

    monkeypatch.setattr(intmat, "_bisect", counted_bisect)
    monkeypatch.setattr(engine, "spectral_radius", checked_radius)
    queries = perfbench_deck("salem", seed, tmp_path)
    for query in queries:
        sf = cli.load_input(query["input"])
        oracle, action = sf.oracle(), sf.action("salem")
        assert all(c.passed for c in oracle.stability_checks(action)), query["input"]
        assert cli.main(["--format", "structured", *query["argv"]]) == 0
    capsys.readouterr()
    # the spies saw every query, and counts were asked
    assert len(counts) >= len(queries) == 60 and any(counts)
