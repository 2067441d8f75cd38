"""Pluggable exact ampleness oracles.

Two oracle shapes cover the supported geometries. A polyhedral cone is given
by integer linear functionals, one per facet, and a class is ample when every
functional is strictly positive on it. A surface positive cone encodes the
Nakai-style test on a two-dimensional component: positive self-intersection,
positive pairing with a reference ample class, and positive pairing with each
listed obstruction curve. Real ample cones on surfaces can have irrational
boundary, which the sign conditions capture exactly; whether the obstruction
list is complete is the caller's geometric assertion.

Symbolic variants substitute a one-parameter polynomial family of classes and
reduce existence of an ample member to exact sign analysis.
"""
from __future__ import annotations

from math import gcd
from typing import Sequence, Union

from .errors import RankMismatch
from .lattice import (
    AutomorphismAction,
    CheckResult,
    ComponentDescriptor,
    DivisorClass,
    ValidationReport,
    apply,
    intersect,
)
from .numpoly import ZERO, NumericalPolynomial, exists_common_positive
from .record import Record


def _normalize_functional(f: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*f)
    return tuple(c // g for c in f) if g else tuple(f)


class PolyhedralCone(Record):
    """Ample cone cut out by finitely many integer facet functionals."""

    __slots__ = ("rank", "facets")
    kind = "polyhedral"

    def __init__(self, rank: int, facets: tuple[tuple[int, ...], ...]) -> None:
        facets = tuple(tuple(int(c) for c in f) for f in facets)
        if not facets:
            raise ValueError("a polyhedral cone needs at least one facet")
        for f in facets:
            if len(f) != rank:
                raise ValueError(f"facet {f} does not match rank {rank}")
            if all(c == 0 for c in f):
                raise ValueError("zero functional is not a facet")
        super().__init__(rank, facets)

    def conditions(self, coords: Sequence) -> list:
        """The facet functionals applied to the coordinates (zero entries
        skipped, so a polynomial coordinate is multiplied only where needed)."""
        return [sum(f * c for f, c in zip(facet, coords) if f) for facet in self.facets]

    def invariant_checks(self) -> list[CheckResult]:
        """The cone has at least one facet."""
        return [CheckResult("facets", len(self.facets) >= 1, f"{len(self.facets)} facets")]

    def stability_checks(self, action: AutomorphismAction) -> list[CheckResult]:
        """The facet set is stable under composition with the action, up to
        positive scaling."""
        transposed = action.matrix.transpose()
        original = {_normalize_functional(f) for f in self.facets}
        transformed = {_normalize_functional(transposed.column_action(f)) for f in self.facets}
        ok = transformed == original
        detail = "facet set preserved" if ok else f"facets map to {sorted(transformed)}"
        return [CheckResult("facet_set_stable", ok, detail)]


class SurfacePositiveCone(Record):
    """Sign-condition oracle on a two-dimensional component.

    ample(D) iff (D.D) > 0, (D.A) > 0, and (D.C) > 0 for each obstruction C.
    The reference class must itself pass: (A.A) > 0 and (A.C) > 0.
    """

    __slots__ = ("component", "reference_ample", "obstructions")
    kind = "surface_positive_cone"

    def __init__(
        self,
        component: ComponentDescriptor,
        reference_ample: DivisorClass,
        obstructions: tuple[DivisorClass, ...] = (),
    ) -> None:
        if component.dim != 2:
            raise ValueError("surface positive cone needs a dimension-2 component")
        obstructions = tuple(obstructions)
        a = reference_ample
        if intersect(component, [a, a]) <= 0:
            raise ValueError("reference class must have positive self-intersection")
        for c in obstructions:
            if intersect(component, [a, c]) <= 0:
                raise ValueError("reference class must pair positively with obstructions")
        super().__init__(component, reference_ample, obstructions)

    @property
    def rank(self) -> int:
        return self.component.top_form.rank

    def conditions(self, coords: Sequence) -> list:
        """(D.D), (D.A) and each (D.C), for D with the given coordinates."""
        form = self.component.top_form
        return [form.evaluate([coords, coords])] + [
            form.evaluate([coords, c.coords])
            for c in (self.reference_ample, *self.obstructions)
        ]

    def invariant_checks(self) -> list[CheckResult]:
        """(A.A) > 0 and (A.C) > 0 for each obstruction C."""
        a = self.reference_ample
        self_int = intersect(self.component, [a, a])
        checks = [CheckResult("reference_positive", self_int > 0, f"(A.A)={self_int}")]
        for k, c in enumerate(self.obstructions):
            v = intersect(self.component, [a, c])
            checks.append(CheckResult(f"obstruction[{k}]", v > 0, f"(A.C)={v}"))
        return checks

    def stability_checks(self, action: AutomorphismAction) -> list[CheckResult]:
        """The reference class stays ample and the obstruction set is permuted."""
        image = apply(action, self.reference_ample)
        ok = is_ample(self, image)
        original = {c.coords for c in self.obstructions}
        transformed = {apply(action, c).coords for c in self.obstructions}
        permuted = transformed == original
        return [
            CheckResult("reference_stays_ample", ok, f"image {tuple(map(str, image.coords))}"),
            CheckResult(
                "obstructions_permuted",
                permuted,
                "obstruction set preserved" if permuted else "set changed",
            ),
        ]


AmplenessOracle = Union[PolyhedralCone, SurfacePositiveCone]


def _conditions(oracle: AmplenessOracle, coords: Sequence) -> list:
    if oracle.rank != len(coords):
        raise RankMismatch(f"oracle rank {oracle.rank} vs divisor rank {len(coords)}")
    return oracle.conditions(coords)


def is_ample(oracle: AmplenessOracle, divisor: DivisorClass) -> bool:
    """Whether every condition is positive on the class. Each condition is
    homogeneous of positive degree in the coordinates, so its sign is the
    same at the integer numerators over their common denominator, and those
    are what it is evaluated at."""
    return all(v > 0 for v in _conditions(oracle, divisor.over_common_denominator()[1]))


def symbolic_constraints(
    oracle: AmplenessOracle, family: Sequence[NumericalPolynomial]
) -> list[NumericalPolynomial]:
    """One polynomial in m per oracle inequality, for a polynomial family."""
    return [ZERO + v for v in _conditions(oracle, family)]


def is_ample_symbolic(
    oracle: AmplenessOracle, family: Sequence[NumericalPolynomial]
) -> int | None:
    """Minimal positive integer m making the family member ample, or None."""
    return exists_common_positive(symbolic_constraints(oracle, family))


def oracle_report(oracle: AmplenessOracle, rank: int) -> ValidationReport:
    """Sanity report: rank agreement plus the oracle's own invariants.

    Construction already enforces the invariants, so the checks here mostly
    re-state them for file-level validation output.
    """
    checks = [CheckResult("rank", oracle.rank == rank, f"oracle rank {oracle.rank}")]
    return ValidationReport(tuple(checks + oracle.invariant_checks()))


def action_stability_report(
    oracle: AmplenessOracle, action: AutomorphismAction
) -> ValidationReport:
    """Does the action preserve the oracle's ample cone?

    For a polyhedral cone the facet set must be stable under composition with
    the action (up to positive scaling). For a surface positive cone the
    reference class must stay ample and the obstruction set must be permuted.
    """
    return ValidationReport(tuple(oracle.stability_checks(action)))
