"""The integer polynomial kernel and the root-cell witness search against the
``Fraction``-list and Cauchy-scan references.

The stored form of ``NumericalPolynomial``, its evaluation and
``binomial_basis`` are compared with the dense ``Fraction`` lists they
replaced, and ``exists_common_positive`` with the scan of every m up to the
largest Cauchy bound (both kept in ``reference_numpoly``), on polynomials
small enough for the scan: integer roots (also at 1 and exactly at m - 1),
repeated roots, rational coefficients, and zero and constant polynomials.
The test polynomials are built as coefficient tuples with the reference's
arithmetic.
"""
import pickle
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

import reference_numpoly as ref
from sigmaample import numpoly
from sigmaample.numpoly import NumericalPolynomial, binomial_basis, exists_common_positive

fractions = st.fractions(-30, 30, max_denominator=12)
coefficient_lists = st.lists(st.one_of(st.integers(-50, 50), fractions), max_size=6)
points = st.one_of(st.integers(-40, 40), st.fractions(-20, 20, max_denominator=9))


def poly(*cs) -> NumericalPolynomial:
    return ref.as_polynomial(cs)


@settings(max_examples=200)
@given(st.lists(st.integers(-50, 50), max_size=6), st.integers(1, 60))
def test_stored_form_is_lowest_terms(nums, den):
    p = NumericalPolynomial(nums, den)
    assert p.coeffs == ref.strip([Fraction(c, den) for c in nums])
    assert p.denominator > 0 and all(type(c) is int for c in p.numerators)
    assert gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0


def test_binomial_basis_matches_fraction_lists():
    for i in range(10):
        assert binomial_basis(i).coeffs == ref.binomial(i)


@settings(max_examples=200)
@given(coefficient_lists, points)
def test_evaluate_degree_and_leading_match(a, x):
    p, ra = poly(*a), ref.strip(a)
    value = p.evaluate(x)
    assert type(value) is Fraction and value == ref.evaluate(ra, x)
    assert p.degree == ref.degree(ra)
    assert p.leading == ref.leading(ra) and type(p.leading) is Fraction
    assert p.is_zero == (not ra)


@settings(max_examples=200)
@given(coefficient_lists, coefficient_lists, st.integers(1, 9))
def test_equality_and_hash_follow_the_coefficients(a, b, k):
    p, q = poly(*a), poly(*b)
    assert (p == q) == (ref.strip(a) == ref.strip(b))
    # the same coefficients over a k-fold denominator, with trailing zeros
    twin = NumericalPolynomial([k * c for c in p.numerators] + [0, 0], k * p.denominator)
    assert twin == p and hash(twin) == hash(p)


def test_repr_and_pickle_show_the_stored_form():
    p = poly(1, Fraction(1, 2), 0)
    assert repr(p) == "NumericalPolynomial(numerators=(2, 1), denominator=2)"
    assert p.__reduce__() == (NumericalPolynomial, ((2, 1), 2))
    twin = pickle.loads(pickle.dumps(p))
    assert twin == p and hash(twin) == hash(p) and twin.coeffs == (1, Fraction(1, 2))


# --- the witness search ------------------------------------------------------


def from_roots(roots, scale, shift) -> NumericalPolynomial:
    """scale * prod (m - r) + shift."""
    out = ref.strip([scale])
    for r in roots:
        out = ref.mul(out, (-r, 1))
    return ref.as_polynomial(ref.add(out, ref.strip([shift])))


root_polys = st.builds(
    from_roots,
    st.lists(st.integers(-3, 12), max_size=3),
    st.sampled_from([-2, -1, 1, 3]),
    st.sampled_from([0, 0, 0, -1, 1]),
)
repeated_root_polys = st.builds(
    lambda r, k, sign: from_roots([r] * k, sign, 0),
    st.integers(-2, 10),
    st.integers(2, 3),
    st.sampled_from([-1, 1]),
)
rational_polys = st.lists(st.fractions(-12, 12, max_denominator=6), max_size=4).map(
    ref.as_polynomial
)
constant_polys = st.sampled_from([poly(), poly(-3), poly(Fraction(1, 2))])
any_poly = st.one_of(root_polys, repeated_root_polys, rational_polys, constant_polys)


def counted_search(ps):
    """The witness and the candidates it tested, in order."""
    tested = []
    original = numpoly._all_positive

    def counting(nums, m):
        tested.append(m)
        return original(nums, m)

    numpoly._all_positive = counting
    try:
        witness = exists_common_positive(ps)
    finally:
        numpoly._all_positive = original
    return witness, tested


@settings(max_examples=300, deadline=None)
@given(st.lists(any_poly, min_size=1, max_size=4))
@example([poly(-4, 1)])  # root exactly at m - 1 for the witness m = 5
@example([poly(-1, 1)])  # root at 1
@example([poly(9, -6, 1), poly(-2, 1)])  # repeated root at m - 1 = 3
@example([poly(-27, 27, -9, 1)])  # (m - 3)^3
@example([poly(), poly(0, 1)])
@example([poly(5)])
@example([poly(10, -1), poly(-8, 1)])
@example([poly(Fraction(-7, 2), Fraction(1, 3))])
def test_root_cell_search_matches_the_cauchy_scan(ps):
    witness, tested = counted_search(ps)
    assert witness == ref.exists_common_positive([p.coeffs for p in ps])
    degrees = sum(p.degree or 0 for p in ps)
    assert len(tested) <= 2 + 2 * degrees
    assert tested == sorted(set(tested))
