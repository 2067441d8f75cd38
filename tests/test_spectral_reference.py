"""The integer spectral layer against the Fraction and power-test references.

Every answer of ``intmat`` and ``intpoly`` that feeds a verdict or an
enclosure is compared with the slow routine it replaced (kept in
``reference_spectral``): the reduction power q, the Kronecker-square
characteristic polynomial, the square-free part, the Sturm sign counts and
the spectral-radius enclosure bytes. The Graeffe route with its
certificate is compared with the Kronecker-square route alone, on matrices
that take both branches.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import product

from hypothesis import example, given, settings, strategies as st

import reference_spectral as ref
from conftest import unimodular_matrices
from sigmaample import intmat
from sigmaample.intmat import (
    IntegerMatrix,
    _kronecker_square_char_poly,
    char_poly,
    quasi_unipotence,
    spectral_radius,
)
from sigmaample.intpoly import sign_variations, square_free_part, sturm_chain
from sigmaample.numpoly import NumericalPolynomial

S1 = IntegerMatrix.from_rows([[1, 4], [0, -1]])
S2 = IntegerMatrix.from_rows([[-1, 0], [4, 1]])


def _gram(n):
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1
    for i in range(2, n):
        g[i][i] = -2
    return g


@lru_cache(maxsize=None)
def _reflections(n, support):
    """x -> x + (x.v) v for the (-2)-vectors v of U + <-2>^(n-2) with
    coordinates in {-1, 0, 1}, at most ``support`` of them nonzero."""
    g = _gram(n)
    out = []
    for v in product((-1, 0, 1), repeat=n):
        gv = [sum(g[i][j] * v[j] for j in range(n)) for i in range(n)]
        if sum(a * b for a, b in zip(v, gv)) == -2 and n - v.count(0) <= support:
            out.append(IntegerMatrix.from_rows(
                [[int(i == j) + v[i] * gv[j] for j in range(n)] for i in range(n)]
            ))
    return out


def _product(ms):
    out = ms[0]
    for m in ms[1:]:
        out = out * m
    return out


def reflection_products(n, support):
    return st.lists(st.sampled_from(_reflections(n, support)), min_size=1, max_size=n).map(_product)


ranks_2_to_6 = st.integers(2, 6).flatmap(lambda n: unimodular_matrices(n, ops=2 * n))
# Short roots keep the spectral radius, hence the reference's M^5040, small.
reflection_products_8 = reflection_products(8, support=2)


def _kronecker_poly(m):
    return _kronecker_square_char_poly([int(c) for c in char_poly(m).coeffs])


def test_kronecker_sizes_and_values():
    k = ref.kronecker(S1, S2)
    assert k.size == 4
    assert k.rows[0][0] == S1.rows[0][0] * S2.rows[0][0]


# --- quasi-unipotence and the Kronecker-square polynomial -----------------


@settings(max_examples=80, deadline=None)
@given(ranks_2_to_6)
def test_quasi_unipotence_matches_power_test(m):
    assert quasi_unipotence(m) == ref.quasi_unipotence(m)


@settings(max_examples=40, deadline=None)
@given(ranks_2_to_6)
def test_power_sum_polynomial_matches_berkowitz_on_kronecker_square(m):
    assert _kronecker_poly(m) == list(char_poly(ref.kronecker(m, m)).coeffs)


@settings(max_examples=3, deadline=None)
@given(reflection_products_8)
def test_rank_8_reflection_products_match_references(m):
    assert quasi_unipotence(m) == ref.quasi_unipotence(m)
    assert _kronecker_poly(m) == list(char_poly(ref.kronecker(m, m)).coeffs)


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    st.integers(2, 5).flatmap(lambda n: unimodular_matrices(n, ops=2 * n)),
    reflection_products(4, support=4),
    reflection_products(5, support=5),
))
def test_spectral_radius_enclosures_match_reference(m):
    for eps in (
        Fraction(1, 1000), Fraction(1, 10**12), Fraction(1), Fraction(3, 2), Fraction(7)
    ):
        assert spectral_radius(m, eps) == ref.spectral_radius(m, eps)


graeffe_inputs = st.one_of(
    st.integers(2, 8).flatmap(lambda n: unimodular_matrices(n, ops=2 * n)),
    st.integers(4, 8).flatmap(lambda n: reflection_products(n, support=3)),
)


def test_graeffe_route_matches_kronecker_route_on_both_branches(monkeypatch):
    certified = []
    calls = []
    original = intmat._real_roots_dominate

    def spy(p, lo):
        certified.append(original(p, lo))
        return certified[-1]

    monkeypatch.setattr(intmat, "_real_roots_dominate", spy)

    @settings(max_examples=120, deadline=None)
    @given(graeffe_inputs)
    def check(m):
        for eps in (Fraction(1, 1000), Fraction(1, 10**12)):
            calls.append(m)
            assert spectral_radius(m, eps) == ref.kronecker_spectral_radius(m, eps)

    check()
    # a call either passes the certificate or falls back to the Kronecker chain
    assert 0 < certified.count(True) < len(calls)


# --- square-free parts and Sturm chains ------------------------------------

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
factors = st.lists(coefficients, min_size=1, max_size=4).map(
    lambda cs: NumericalPolynomial(tuple(cs))
)
linear = st.tuples(st.integers(-9, 9), st.integers(1, 5)).map(
    lambda ab: NumericalPolynomial.of(-ab[0], ab[1])
)


@st.composite
def repeated_factor_polynomials(draw):
    """a * b^2 * c^3 times linear factors with rational roots, nonzero."""
    a, b, c = draw(factors), draw(factors), draw(factors)
    p = a * b * b * c * c * c
    for f, power in zip(draw(st.lists(linear, max_size=3)), (1, 2, 1)):
        for _ in range(power):
            p = p * f
    return p


def _rational_roots_of_linear_members(chain):
    return [Fraction(-cs[0], cs[1]) for cs in chain if len(cs) == 2]


@settings(max_examples=150, deadline=None)
@given(repeated_factor_polynomials())
def test_square_free_part_matches_reference(p):
    if p.is_zero:
        return
    assert square_free_part(p) == list(ref.square_free_part(p).coeffs)


@settings(max_examples=150, deadline=None)
@example(NumericalPolynomial.of(0, 1, 0, 0, 3), [])  # degree gap 2 under lc < 0
@given(repeated_factor_polynomials(), st.lists(st.fractions(-20, 20, max_denominator=50), max_size=6))
def test_integer_chain_is_positive_multiple_of_fraction_chain(p, points):
    if p.is_zero:
        return
    chain, old = sturm_chain(p), ref.sturm_chain(p)
    assert len(chain) == len(old)
    for new_member, old_member in zip(chain, old):
        assert len(new_member) == len(old_member)
        scale = Fraction(new_member[-1]) / old_member[-1]
        assert scale > 0
        assert [Fraction(c) for c in new_member] == [scale * c for c in old_member]
    candidates = sorted({Fraction(a, b) for a in range(-9, 10) for b in range(1, 6)})
    roots = [x for x in candidates if not p.evaluate(x)] + _rational_roots_of_linear_members(chain)
    for x in points + roots:
        assert sign_variations(chain, x) == ref.sign_variations(old, x)
