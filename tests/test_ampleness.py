from itertools import combinations

import pytest

from sigmaample.ampleness import (
    PolyhedralCone,
    SurfacePositiveCone,
    action_stability_report,
    is_ample,
    is_ample_symbolic,
    is_nef,
    symbolic_constraints,
)
from sigmaample.engine import delta_symbolic, partial_sum
from sigmaample.errors import RankMismatch
from sigmaample.lattice import DivisorClass, apply
from sigmaample.numpoly import NumericalPolynomial, binomial_basis

from conftest import random_divisors

M = binomial_basis(1)
ZERO = NumericalPolynomial(())


def test_wehler_examples(wehler):
    oracle = wehler.oracle()
    assert is_ample(oracle, wehler.divisor("H1"))
    d = wehler.divisor("H1") - wehler.divisor("H2")
    # (D.D) = 2 - 8 + 2 = -4
    assert not is_ample(oracle, d)
    assert not is_ample(oracle, DivisorClass.zero(2))


def test_zero_class_is_nef_but_not_ample(entry):
    oracle = entry.oracle()
    zero = DivisorClass.zero(entry.scheme.rank)
    assert not is_ample(oracle, zero)
    assert is_nef(oracle, zero)


def test_nef_examples(abelian):
    oracle = abelian.oracle()
    fiber = abelian.divisor("fiber1")
    assert is_nef(oracle, fiber)
    assert not is_ample(oracle, fiber)  # self-intersection is 0


def test_rank_mismatch(wehler):
    with pytest.raises(RankMismatch):
        is_ample(wehler.oracle(), DivisorClass.of(1))
    with pytest.raises(RankMismatch):
        is_ample_symbolic(wehler.oracle(), [M])


def test_symbolic_fixed_direction(wehler):
    oracle = wehler.oracle()
    assert is_ample_symbolic(oracle, [M, ZERO]) == 1
    assert is_ample_symbolic(oracle, [ZERO, ZERO]) is None
    shifted = M - NumericalPolynomial.of(5)
    assert is_ample_symbolic(oracle, [shifted, ZERO]) == 6


def test_symbolic_constraints_shapes(wehler):
    oracle = wehler.oracle()
    constraints = symbolic_constraints(oracle, [M, ZERO])
    # quadratic self-intersection plus pairing against the reference class
    assert constraints[0] == NumericalPolynomial.of(0, 0, 2)
    assert constraints[1] == NumericalPolynomial.of(0, 6)


def test_symbolic_witness_is_minimal_and_concrete(wehler):
    oracle = wehler.oracle()
    family = [M - NumericalPolynomial.of(2), M]
    witness = is_ample_symbolic(oracle, family)
    assert witness is not None
    at = lambda m: DivisorClass.of(*(p.evaluate(m) for p in family))
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
            constraints = symbolic_constraints(oracle, delta_symbolic(shear, d))
            for m in range(9):
                concrete = partial_sum(shear, d, m).coords
                assert [p.evaluate(m) for p in constraints] == oracle.conditions(concrete)


def test_polyhedral_oracle_basics():
    cone = PolyhedralCone(2, ((1, 0), (0, 1)))
    assert is_ample(cone, DivisorClass.of(1, 1))
    assert not is_ample(cone, DivisorClass.of(1, 0))  # boundary is not ample
    assert is_nef(cone, DivisorClass.of(1, 0))
    assert is_ample_symbolic(cone, [M, M - NumericalPolynomial.of(7)]) == 8


def test_polyhedral_requires_facets():
    with pytest.raises(ValueError):
        PolyhedralCone(2, ())
    with pytest.raises(ValueError):
        PolyhedralCone(2, ((0, 0),))


def test_surface_cone_reference_must_pass(wehler):
    comp = wehler.scheme.components[0]
    with pytest.raises(ValueError):
        SurfacePositiveCone(comp, wehler.divisor("H1") - wehler.divisor("H2"), ())
    with pytest.raises(ValueError):
        SurfacePositiveCone(comp, wehler.divisor("H1"), (DivisorClass.of(-1, 0),))


def test_obstruction_oracle_cuts_classes(abelian):
    comp = abelian.scheme.components[0]
    oracle = SurfacePositiveCone(comp, abelian.divisor("D111"), (abelian.divisor("fiber1"),))
    # (D.fiber1) = d2 + d3 must now be positive as well
    assert is_ample(oracle, DivisorClass.of(1, 1, 1))
    assert not is_ample(oracle, DivisorClass.of(5, -1, 1))  # pairs to 0 with fiber1
    # (D.D), (D.A), (D.fiber1): fiber1 is nef, so only the list shows its test
    assert oracle.conditions(DivisorClass.of(5, -1, 1).coords) == [-2, 10, 0]


def test_ample_cone_is_convex(entry):
    oracle = entry.oracle()
    sample = random_divisors(entry.scheme.rank, 40, seed=23)
    ample = [d for d in sample if is_ample(oracle, d)]
    for a, b in combinations(ample[:10], 2):
        assert is_ample(oracle, a + b)


def test_ampleness_preserved_by_catalog_actions(entry):
    oracle = entry.oracle()
    for action in entry.automorphisms.values():
        report = action_stability_report(oracle, action)
        assert report.valid, report.failures
        for d in random_divisors(entry.scheme.rank, 40, seed=29):
            assert is_ample(oracle, d) == is_ample(oracle, apply(action, d))


def test_action_stability_detects_unstable_facets():
    from sigmaample.intmat import IntegerMatrix
    from sigmaample.lattice import AutomorphismAction

    cone = PolyhedralCone(2, ((1, 0), (0, 1)))
    rotate = AutomorphismAction("r", IntegerMatrix.from_rows([[0, -1], [1, 0]]))
    report = action_stability_report(cone, rotate)
    assert not report.valid
