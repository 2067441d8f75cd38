from fractions import Fraction
from itertools import combinations

import pytest

from sigmaample.ampleness import (
    PolyhedralCone,
    SurfacePositiveCone,
    is_ample,
    is_ample_symbolic,
    symbolic_constraints,
)
from sigmaample.engine import partial_sum
from sigmaample.errors import RankMismatch
from sigmaample.intmat import IntegerMatrix
from sigmaample.lattice import DivisorClass, apply, intersect
from sigmaample.numpoly import NumericalPolynomial

import reference_numpoly as rn
from conftest import expansion, linear_combination, random_divisors, reduced_steps

# polynomial coordinates in m, as coefficient tuples lowest degree first
M = (0, 1)
ZERO = ()


def test_wehler_examples(wehler):
    oracle = wehler.oracle()
    assert is_ample(oracle, wehler.divisor("H1"))
    d = linear_combination((1, wehler.divisor("H1")), (-1, wehler.divisor("H2")))
    # (D.D) = 2 - 8 + 2 = -4
    assert not is_ample(oracle, d)
    assert not is_ample(oracle, DivisorClass.of(0, 0))


def test_zero_class_is_nef_but_not_ample(entry):
    oracle = entry.oracle()
    zero = DivisorClass((0,) * entry.scheme.rank)
    assert not is_ample(oracle, zero)
    assert all(v >= 0 for v in oracle.conditions(zero))


def test_nef_examples(abelian):
    oracle = abelian.oracle()
    fiber = abelian.divisor("fiber1")
    assert all(v >= 0 for v in oracle.conditions(fiber))
    assert not is_ample(oracle, fiber)  # self-intersection is 0


def test_rank_mismatch(wehler):
    with pytest.raises(RankMismatch):
        is_ample(wehler.oracle(), DivisorClass.of(1))
    with pytest.raises(RankMismatch):
        is_ample_symbolic(wehler.oracle(), *expansion([M]))


def test_symbolic_fixed_direction(wehler):
    oracle = wehler.oracle()
    assert is_ample_symbolic(oracle, *expansion([M, ZERO])) == 1
    assert is_ample_symbolic(oracle, *expansion([ZERO, ZERO])) is None
    # a constant term is the C(m, 0) vector of the expansion
    shifted = (-5, 1)
    assert expansion([shifted, ZERO]) == (1, [(-5, 0), (1, 0)])
    assert is_ample_symbolic(oracle, *expansion([shifted, ZERO])) == 6


def test_symbolic_constraints_shapes(wehler):
    oracle = wehler.oracle()
    constraints = symbolic_constraints(oracle, *expansion([M, ZERO]))
    # quadratic self-intersection plus pairing against the reference class
    assert constraints[0] == NumericalPolynomial([0, 0, 2])
    assert constraints[1] == NumericalPolynomial([0, 6])


def test_symbolic_witness_is_minimal_and_concrete(wehler):
    oracle = wehler.oracle()
    family = [(-2, 1), M]
    witness = is_ample_symbolic(oracle, *expansion(family))
    assert witness is not None
    at = lambda m: DivisorClass.of(*(rn.evaluate(p, m) for p in family))
    assert is_ample(oracle, at(witness))
    for m in range(1, witness):
        assert not is_ample(oracle, at(m))


def test_symbolic_constraints_sample_the_concrete_conditions(abelian):
    shear = abelian.action("shear").matrix
    comp = abelian.scheme.components[0]
    oracles = [
        abelian.oracle(),
        SurfacePositiveCone(comp, abelian.divisor("D111"), (abelian.divisor("fiber1"),)),
        PolyhedralCone(3, ((1, 0, 0), (0, 1, -1), (2, -1, 3))),
    ]
    for oracle in oracles:
        for d in random_divisors(3, 4, seed=31):
            constraints = symbolic_constraints(oracle, *reduced_steps(shear, d))
            for m in range(9):
                concrete = partial_sum(shear, d, m)
                assert [p.evaluate(m) for p in constraints] == oracle.conditions(concrete)


def test_fractional_reference_and_obstruction_classes(abelian):
    # the fixed classes are filled in as integer numerators over their
    # denominator, so each condition is exact, concrete and symbolic
    shear = abelian.action("shear").matrix
    comp = abelian.scheme.components[0]
    a = DivisorClass.of(Fraction(1, 2), Fraction(1, 3), Fraction(1, 2))
    c = DivisorClass.of(0, Fraction(2, 3), Fraction(1, 5))
    oracle = SurfacePositiveCone(comp, a, (c,))
    d = abelian.divisor("D111")
    assert oracle.conditions(d) == [intersect(comp, [d, x]) for x in (d, a, c)]
    assert oracle.conditions(d) == [6, Fraction(8, 3), Fraction(26, 15)]
    for d in random_divisors(3, 4, seed=37):
        constraints = symbolic_constraints(oracle, *reduced_steps(shear, d))
        for m in range(6):
            concrete = partial_sum(shear, d, m)
            assert [p.evaluate(m) for p in constraints] == oracle.conditions(concrete)


def test_condition_vanishing_on_the_family_stays_zero(abelian):
    # m * fiber1 has (D.D) = 0 for every m, and the facet (0, 1, -1) is 0 on
    # m * (1, 1, 1): each stays a zero constraint and blocks ampleness
    family = reduced_steps(IntegerMatrix.identity(3), abelian.divisor("fiber1"))
    constraints = symbolic_constraints(abelian.oracle(), *family)
    assert constraints[0].is_zero and not any(p.is_zero for p in constraints[1:])
    assert is_ample_symbolic(abelian.oracle(), *family) is None
    cone = PolyhedralCone(3, ((1, 0, 0), (0, 1, -1)))
    diagonal = expansion([M, M, M])
    assert [p.coeffs for p in symbolic_constraints(cone, *diagonal)] == [M, ZERO]
    assert is_ample_symbolic(cone, *diagonal) is None


def test_polyhedral_oracle_basics():
    cone = PolyhedralCone(2, ((1, 0), (0, 1)))
    assert is_ample(cone, DivisorClass.of(1, 1))
    assert not is_ample(cone, DivisorClass.of(1, 0))  # boundary is not ample
    assert all(v >= 0 for v in cone.conditions(DivisorClass.of(1, 0)))
    assert is_ample_symbolic(cone, *expansion([M, (-7, 1)])) == 8


def test_polyhedral_requires_facets():
    with pytest.raises(ValueError):
        PolyhedralCone(2, ())
    with pytest.raises(ValueError):
        PolyhedralCone(2, ((0, 0),))


def test_surface_cone_reference_must_pass(wehler):
    comp = wehler.scheme.components[0]
    with pytest.raises(ValueError):
        SurfacePositiveCone(comp, DivisorClass.of(1, -1), ())
    with pytest.raises(ValueError):
        SurfacePositiveCone(comp, wehler.divisor("H1"), (DivisorClass.of(-1, 0),))


def test_obstruction_oracle_cuts_classes(abelian):
    comp = abelian.scheme.components[0]
    oracle = SurfacePositiveCone(comp, abelian.divisor("D111"), (abelian.divisor("fiber1"),))
    # (D.fiber1) = d2 + d3 must now be positive as well
    assert is_ample(oracle, DivisorClass.of(1, 1, 1))
    assert not is_ample(oracle, DivisorClass.of(5, -1, 1))  # pairs to 0 with fiber1
    # (D.D), (D.A), (D.fiber1): fiber1 is nef, so only the list shows its test
    assert oracle.conditions(DivisorClass.of(5, -1, 1)) == [-2, 10, 0]


def test_ample_cone_is_convex(entry):
    oracle = entry.oracle()
    sample = random_divisors(entry.scheme.rank, 40, seed=23)
    ample = [d for d in sample if is_ample(oracle, d)]
    for a, b in combinations(ample[:10], 2):
        assert is_ample(oracle, linear_combination((1, a), (1, b)))


def test_ampleness_preserved_by_catalog_actions(entry):
    oracle = entry.oracle()
    for action in entry.automorphisms.values():
        failed = [c for c in oracle.stability_checks(action) if not c.passed]
        assert not failed, failed
        for d in random_divisors(entry.scheme.rank, 40, seed=29):
            assert is_ample(oracle, d) == is_ample(oracle, apply(action, d))


def test_action_stability_detects_unstable_facets():
    from sigmaample.intmat import IntegerMatrix
    from sigmaample.lattice import AutomorphismAction

    cone = PolyhedralCone(2, ((1, 0), (0, 1)))
    rotate = AutomorphismAction("r", IntegerMatrix([[0, -1], [1, 0]]))
    assert not all(c.passed for c in cone.stability_checks(rotate))
