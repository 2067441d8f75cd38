"""Pluggable exact ampleness oracles.

Two oracle shapes cover the supported geometries. A polyhedral cone is given
by integer linear functionals, one per facet, and a class is ample when every
functional is strictly positive on it. A surface positive cone encodes the
Nakai-style test on a two-dimensional component: positive self-intersection,
positive pairing with a reference ample class, and positive pairing with each
listed obstruction curve. Real ample cones on surfaces can have irrational
boundary, which the sign conditions capture exactly; whether the obstruction
list is complete is the caller's geometric assertion.

Each oracle states its conditions once, as forms in the class, read both at
a class's numerators and, for a family sum_j C(m, j) v_j / d of classes, as
polynomials in m from each form's table on the integer vectors v_j; the
symbolic variant reduces existence of an ample member to exact sign analysis.
"""
from __future__ import annotations

import operator
from math import gcd
from typing import Sequence, Union

from .lattice import (
    AutomorphismAction,
    CheckResult,
    ComponentDescriptor,
    DivisorClass,
    SymmetricForm,
    apply,
)
from .numpoly import NumericalPolynomial, exists_common_positive, symmetric_binomial_sum
from .record import Record


def _normalize_functional(f: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*f)
    return tuple(c // g for c in f) if g else tuple(f)


class _FormConditions:
    """D is ample when T(D, ..., D) > 0 for each form T in ``_forms``."""

    __slots__ = ()

    def conditions(self, divisor: DivisorClass) -> list:
        """The conditions at the class: each form at its numerators, over the
        class's denominator to the form's arity. Each condition is
        homogeneous of positive degree and the denominator is positive, so
        its sign is the sign of the form at the numerators."""
        nums, den = divisor.numerators, divisor.denominator
        return [form.evaluate([nums] * form.arity) / den**form.arity for form in self._forms]


class PolyhedralCone(_FormConditions, Record):
    """Ample cone cut out by finitely many integer facet functionals."""

    __slots__ = ("rank", "facets", "_forms")
    kind = "polyhedral"

    def __init__(self, rank: int, facets: tuple[tuple[int, ...], ...]) -> None:
        rank = operator.index(rank)
        facets = tuple(tuple(map(operator.index, f)) for f in facets)
        if not facets:
            raise ValueError("a polyhedral cone needs at least one facet")
        for f in facets:
            if len(f) != rank:
                raise ValueError(f"facet {f} does not match rank {rank}")
            if all(c == 0 for c in f):
                raise ValueError("zero functional is not a facet")
        super().__init__(rank, facets)
        object.__setattr__(self, "_forms", tuple(
            SymmetricForm(rank, 1, tuple(((i,), c) for i, c in enumerate(f))) for f in facets
        ))

    def invariant_checks(self) -> tuple[CheckResult, ...]:
        """The cone has at least one facet."""
        return (CheckResult("facets", len(self.facets) >= 1, f"{len(self.facets)} facets"),)

    def stability_checks(self, action: AutomorphismAction) -> tuple[CheckResult, ...]:
        """The facet set is stable under composition with the action, up to
        positive scaling."""
        transposed = action.matrix.transpose()
        original = {_normalize_functional(f) for f in self.facets}
        transformed = {_normalize_functional(transposed.column_action(f)) for f in self.facets}
        ok = transformed == original
        detail = "facet set preserved" if ok else f"facets map to {sorted(transformed)}"
        return (CheckResult("facet_set_stable", ok, detail),)


class SurfacePositiveCone(_FormConditions, Record):
    """Sign-condition oracle on a two-dimensional component.

    ample(D) iff (D.D) > 0, (D.A) > 0, and (D.C) > 0 for each obstruction C.
    The reference class must itself pass: (A.A) > 0 and (A.C) > 0.
    """

    __slots__ = ("component", "reference_ample", "obstructions", "_forms")
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
        super().__init__(component, reference_ample, obstructions)
        # (D.D), (D.A) and each (D.C)
        form = component.top_form
        object.__setattr__(self, "_forms", (form,) + tuple(
            form.filled(c) for c in (reference_ample, *obstructions)
        ))
        self_int, _, *pairings = self.conditions(reference_ample)
        if self_int <= 0:
            raise ValueError("reference class must have positive self-intersection")
        if any(v <= 0 for v in pairings):
            raise ValueError("reference class must pair positively with obstructions")

    @property
    def rank(self) -> int:
        return self.component.top_form.rank

    def invariant_checks(self) -> tuple[CheckResult, ...]:
        """(A.A) > 0 and (A.C) > 0 for each obstruction C."""
        self_int, _, *pairings = self.conditions(self.reference_ample)
        return (CheckResult("reference_positive", self_int > 0, f"(A.A)={self_int}"),) + tuple(
            CheckResult(f"obstruction[{k}]", v > 0, f"(A.C)={v}") for k, v in enumerate(pairings)
        )

    def stability_checks(self, action: AutomorphismAction) -> tuple[CheckResult, ...]:
        """The reference class stays ample and the obstruction set is permuted."""
        image = apply(action, self.reference_ample)
        ok = is_ample(self, image)
        original = set(self.obstructions)
        transformed = {apply(action, c) for c in self.obstructions}
        permuted = transformed == original
        return (
            CheckResult("reference_stays_ample", ok, f"image {tuple(map(str, image.coords))}"),
            CheckResult(
                "obstructions_permuted",
                permuted,
                "obstruction set preserved" if permuted else "set changed",
            ),
        )


AmplenessOracle = Union[PolyhedralCone, SurfacePositiveCone]


def is_ample(oracle: AmplenessOracle, divisor: DivisorClass) -> bool:
    """Whether every condition is positive on the class."""
    return all(v > 0 for v in oracle.conditions(divisor))


def symbolic_constraints(
    oracle: AmplenessOracle, denom: int, vectors: Sequence[Sequence[int]]
) -> list[NumericalPolynomial]:
    """Each condition T(D, ..., D) on F(m) = sum_j C(m, j) v_j / denom, for integer
    vectors v_j: T's table on the v_j over T's denominator times denom^arity."""
    return [
        symmetric_binomial_sum(form.step_table(vectors), form.denominator * denom**form.arity)
        for form in oracle._forms
    ]


def is_ample_symbolic(
    oracle: AmplenessOracle, denom: int, vectors: Sequence[Sequence[int]]
) -> int | None:
    """Minimal positive integer m making sum_j C(m, j) v_j / denom ample, or None."""
    return exists_common_positive(symbolic_constraints(oracle, denom, vectors))
