"""Pluggable exact ampleness oracles.

Two oracle shapes cover the supported geometries. A polyhedral cone is given
by integer linear functionals, one per facet, and a class is ample when every
functional is strictly positive on it. A surface positive cone encodes the
Nakai-style test on a two-dimensional component: positive self-intersection,
positive pairing with a reference ample class, and positive pairing with each
listed obstruction curve. Real ample cones on surfaces can have irrational
boundary, which the sign conditions capture exactly; whether the obstruction
list is complete is the caller's geometric assertion.

Nef variants replace strict inequalities with non-strict ones on the same
data. Symbolic variants substitute a one-parameter polynomial family of
classes and reduce existence of an ample member to exact sign analysis.
"""
from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class PolyhedralCone:
    """Ample cone cut out by finitely many integer facet functionals."""

    rank: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        facets = tuple(tuple(int(c) for c in f) for f in self.facets)
        if not facets:
            raise ValueError("a polyhedral cone needs at least one facet")
        for f in facets:
            if len(f) != self.rank:
                raise ValueError(f"facet {f} does not match rank {self.rank}")
            if all(c == 0 for c in f):
                raise ValueError("zero functional is not a facet")
        object.__setattr__(self, "facets", facets)

    def conditions(self, coords: Sequence) -> list:
        """The facet functionals applied to the coordinates."""
        return [sum(f * c for f, c in zip(facet, coords)) for facet in self.facets]


@dataclass(frozen=True)
class SurfacePositiveCone:
    """Sign-condition oracle on a two-dimensional component.

    ample(D) iff (D.D) > 0, (D.A) > 0, and (D.C) > 0 for each obstruction C.
    The reference class must itself pass: (A.A) > 0 and (A.C) > 0.
    """

    component: ComponentDescriptor
    reference_ample: DivisorClass
    obstructions: tuple[DivisorClass, ...] = ()

    def __post_init__(self) -> None:
        if self.component.dim != 2:
            raise ValueError("surface positive cone needs a dimension-2 component")
        object.__setattr__(self, "obstructions", tuple(self.obstructions))
        a = self.reference_ample
        if intersect(self.component, [a, a]) <= 0:
            raise ValueError("reference class must have positive self-intersection")
        for c in self.obstructions:
            if intersect(self.component, [a, c]) <= 0:
                raise ValueError("reference class must pair positively with obstructions")

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


AmplenessOracle = Union[PolyhedralCone, SurfacePositiveCone]


def _conditions(oracle: AmplenessOracle, coords: Sequence) -> list:
    if oracle.rank != len(coords):
        raise RankMismatch(f"oracle rank {oracle.rank} vs divisor rank {len(coords)}")
    return oracle.conditions(coords)


def is_ample(oracle: AmplenessOracle, divisor: DivisorClass) -> bool:
    return all(v > 0 for v in _conditions(oracle, divisor.coords))


def is_nef(oracle: AmplenessOracle, divisor: DivisorClass) -> bool:
    return all(v >= 0 for v in _conditions(oracle, divisor.coords))


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


def oracle_report(name: str, oracle: AmplenessOracle, rank: int) -> ValidationReport:
    """Sanity report: rank agreement plus the oracle's own invariants.

    Construction already enforces the invariants, so the checks here mostly
    re-state them for file-level validation output.
    """
    checks = [CheckResult("rank", oracle.rank == rank, f"oracle rank {oracle.rank}")]
    if isinstance(oracle, PolyhedralCone):
        checks.append(CheckResult("facets", len(oracle.facets) >= 1, f"{len(oracle.facets)} facets"))
    else:
        a = oracle.reference_ample
        self_int = intersect(oracle.component, [a, a])
        checks.append(CheckResult("reference_positive", self_int > 0, f"(A.A)={self_int}"))
        for k, c in enumerate(oracle.obstructions):
            v = intersect(oracle.component, [a, c])
            checks.append(CheckResult(f"obstruction[{k}]", v > 0, f"(A.C)={v}"))
    return ValidationReport(name, tuple(checks))


def _normalize_functional(f: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*f)
    return tuple(c // g for c in f) if g else tuple(f)


def action_stability_report(
    name: str, oracle: AmplenessOracle, action: AutomorphismAction
) -> ValidationReport:
    """Does the action preserve the oracle's ample cone?

    For a polyhedral cone the facet set must be stable under composition with
    the action (up to positive scaling). For a surface positive cone the
    reference class must stay ample and the obstruction set must be permuted.
    """
    checks: list[CheckResult] = []
    if isinstance(oracle, PolyhedralCone):
        transposed = action.matrix.transpose()
        original = {_normalize_functional(f) for f in oracle.facets}
        transformed = {
            _normalize_functional(transposed.column_action(f)) for f in oracle.facets
        }
        ok = transformed == original
        checks.append(
            CheckResult(
                "facet_set_stable",
                ok,
                "facet set preserved" if ok else f"facets map to {sorted(transformed)}",
            )
        )
    else:
        image = apply(action, oracle.reference_ample)
        ok = is_ample(oracle, image)
        checks.append(
            CheckResult(
                "reference_stays_ample", ok, f"image {tuple(map(str, image.coords))}"
            )
        )
        original = {c.coords for c in oracle.obstructions}
        transformed = {apply(action, c).coords for c in oracle.obstructions}
        checks.append(
            CheckResult(
                "obstructions_permuted",
                transformed == original,
                "obstruction set preserved" if transformed == original else "set changed",
            )
        )
    return ValidationReport(f"{name}/{action.name}", tuple(checks))
