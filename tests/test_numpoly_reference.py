"""The integer polynomial kernel and the root-cell witness search against the
``Fraction``-list and Cauchy-scan references.

Every operation of ``NumericalPolynomial`` is compared with the dense
``Fraction`` list arithmetic it replaced, and ``exists_common_positive``
with the scan of every m up to the largest Cauchy bound (both kept in
``reference_numpoly``), on polynomials small enough for the scan: integer
roots (also at 1 and exactly at m - 1), repeated roots, rational
coefficients, and zero and constant polynomials.
"""
import pickle
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

import reference_numpoly as ref
from sigmaample import numpoly
from sigmaample.numpoly import NumericalPolynomial, exists_common_positive

fractions = st.fractions(-30, 30, max_denominator=12)
coefficient_lists = st.lists(st.one_of(st.integers(-50, 50), fractions), max_size=6)
points = st.one_of(st.integers(-40, 40), st.fractions(-20, 20, max_denominator=9))


def poly(cs) -> NumericalPolynomial:
    return NumericalPolynomial(tuple(cs))


@settings(max_examples=200)
@given(coefficient_lists)
def test_stored_form_is_lowest_terms(cs):
    p = poly(cs)
    assert p.coeffs == ref.strip(cs)
    assert p.denominator > 0 and all(type(c) is int for c in p.numerators)
    assert gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0


@settings(max_examples=200)
@given(coefficient_lists, coefficient_lists, st.integers(-20, 20), fractions)
def test_arithmetic_matches_fraction_lists(a, b, k, c):
    p, q = poly(a), poly(b)
    ra, rb = ref.strip(a), ref.strip(b)
    assert (p + q).coeffs == ref.add(ra, rb)
    assert (p - q).coeffs == ref.add(ra, ref.neg(rb))
    assert (-p).coeffs == ref.neg(ra)
    assert (p * q).coeffs == ref.mul(ra, rb)
    assert (p * k).coeffs == (k * p).coeffs == ref.scale(ra, k)
    assert (p * c).coeffs == (c * p).coeffs == ref.scale(ra, c)
    assert (p + k).coeffs == (k + p).coeffs == ref.add(ra, ref.strip([k]))
    assert (p + c).coeffs == (c + p).coeffs == ref.add(ra, ref.strip([c]))


@settings(max_examples=200)
@given(coefficient_lists, points)
def test_evaluate_degree_and_leading_match(a, x):
    p, ra = poly(a), ref.strip(a)
    value = p.evaluate(x)
    assert type(value) is Fraction and value == ref.evaluate(ra, x)
    assert p.degree == ref.degree(ra)
    assert p.leading == ref.leading(ra) and type(p.leading) is Fraction
    assert p.is_zero == (not ra)


@settings(max_examples=200)
@given(coefficient_lists, coefficient_lists)
def test_equality_and_hash_follow_the_coefficients(a, b):
    p, q = poly(a), poly(b)
    assert (p == q) == (ref.strip(a) == ref.strip(b))
    assert hash(p) == hash(ref.strip(a))
    twin = poly(list(a) + [0, Fraction(0)])
    assert twin == p and hash(twin) == hash(p)


def test_repr_and_pickle_show_the_fraction_coefficients():
    p = NumericalPolynomial.of(1, Fraction(1, 2), 0)
    assert repr(p) == "NumericalPolynomial(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
    assert p.__reduce__() == (NumericalPolynomial, ((Fraction(1), Fraction(1, 2)),))
    twin = pickle.loads(pickle.dumps(p))
    assert twin == p and hash(twin) == hash(p) and twin.numerators == (2, 1)


# --- the witness search ------------------------------------------------------


def from_roots(roots, scale, shift) -> NumericalPolynomial:
    """scale * prod (m - r) + shift."""
    out = NumericalPolynomial.of(scale)
    for r in roots:
        out = out * NumericalPolynomial.of(-r, 1)
    return out + shift


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
rational_polys = st.lists(st.fractions(-12, 12, max_denominator=6), max_size=4).map(poly)
constant_polys = st.sampled_from([NumericalPolynomial(()), NumericalPolynomial.of(-3),
                                  NumericalPolynomial.of(Fraction(1, 2))])
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


m = NumericalPolynomial.of(0, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(any_poly, min_size=1, max_size=4))
@example([m - 4])  # root exactly at m - 1 for the witness m = 5
@example([m - 1])  # root at 1
@example([(m - 3) * (m - 3), m - 2])  # repeated root at m - 1 = 3
@example([(m - 3) * (m - 3) * (m - 3)])
@example([NumericalPolynomial(()), m])
@example([NumericalPolynomial.of(5)])
@example([-m + 10, m - 8])
@example([Fraction(1, 3) * m - Fraction(7, 2)])
def test_root_cell_search_matches_the_cauchy_scan(ps):
    witness, tested = counted_search(ps)
    assert witness == ref.exists_common_positive([p.coeffs for p in ps])
    degrees = sum(p.degree or 0 for p in ps)
    assert len(tested) <= 2 + 2 * degrees
    assert tested == sorted(set(tested))
