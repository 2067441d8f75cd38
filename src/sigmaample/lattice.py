"""The numerical lattice data model: divisor classes, components with
symmetric intersection tensors and optional Todd functionals, schemes, and
automorphism actions with exact validation.

Conventions fixed once and used everywhere: matrices act on column coordinate
vectors of divisor classes, so the m-th power image of D has coordinates
``matrix^m * coords(D)``. Symmetric tensors are stored as value tables keyed
by non-decreasing basis multi-indices; symmetry makes that table complete.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from typing import Mapping, Sequence

from .errors import RankMismatch
from .intmat import IntegerMatrix
from .record import Record


class DivisorClass(Record):
    """Coordinate vector of a divisor class in the fixed lattice basis."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]) -> None:
        for c in coords:
            if isinstance(c, float):
                raise TypeError("exact coordinates required, not float")
        object.__setattr__(
            self,
            "coords",
            tuple(c if type(c) is Fraction else Fraction(c) for c in coords),
        )

    @classmethod
    def of(cls, *coords) -> "DivisorClass":
        return cls(tuple(coords))

    @classmethod
    def zero(cls, rank: int) -> "DivisorClass":
        return cls((Fraction(0),) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-c for c in self.coords))

    def __rmul__(self, scalar) -> "DivisorClass":
        if isinstance(scalar, float):
            raise TypeError("exact scalar required, not float")
        s = Fraction(scalar)
        return DivisorClass(tuple(s * c for c in self.coords))


class SymmetricForm(Record):
    """Symmetric multilinear functional on the rank-``rank`` lattice.

    ``values`` maps non-decreasing basis multi-indices of length ``arity`` to
    rational values; omitted indices are zero. Arity 0 is a constant, keyed
    by the empty tuple.
    """

    __slots__ = ("rank", "arity", "values", "_table")

    def __init__(
        self, rank: int, arity: int, values: tuple[tuple[tuple[int, ...], Fraction], ...]
    ) -> None:
        normalized = []
        seen = set()
        for index, value in values.items() if isinstance(values, Mapping) else values:
            index = tuple(int(i) for i in index)
            if len(index) != arity:
                raise ValueError(f"multi-index {index} must have length {arity}")
            if any(i < 0 or i >= rank for i in index):
                raise ValueError(f"multi-index {index} out of range for rank {rank}")
            if any(a > b for a, b in zip(index, index[1:])):
                raise ValueError(f"multi-index {index} must be non-decreasing")
            if index in seen:
                raise ValueError(f"duplicate multi-index {index}")
            seen.add(index)
            if isinstance(value, float):
                raise TypeError("exact tensor values required, not float")
            value = Fraction(value)
            if value != 0:
                normalized.append((index, value))
        normalized.sort()
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "values", tuple(normalized))
        object.__setattr__(self, "_table", dict(normalized))

    @classmethod
    def from_dict(cls, rank: int, arity: int, table: Mapping) -> "SymmetricForm":
        return cls(rank, arity, tuple(table.items()))

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for _, v in self.values)

    @property
    def is_zero(self) -> bool:
        return not self.values

    def value_at(self, index: Sequence[int]) -> Fraction:
        return self._table.get(tuple(sorted(index)), Fraction(0))

    def evaluate(self, vectors: Sequence[Sequence]):
        """Multilinear evaluation on ``arity`` coordinate vectors.

        Walks the stored entries only, each over its distinct orderings.
        Coordinates may be rationals or ``NumericalPolynomial``s; the result
        has the type of their products (``Fraction(0)`` when nothing
        survives).
        """
        if len(vectors) != self.arity:
            raise RankMismatch(
                f"form of arity {self.arity} applied to {len(vectors)} vectors"
            )
        for v in vectors:
            if len(v) != self.rank:
                raise RankMismatch(f"vector length {len(v)} vs rank {self.rank}")
        total = Fraction(0)
        for index, value in self.values:
            for order in set(permutations(index)):
                term = value
                for v, i in zip(vectors, order):
                    term = term * v[i]
                    if not term:
                        break
                else:
                    total = total + term
        return total


class ComponentDescriptor(Record):
    """One irreducible component: its dimension, top intersection form, and
    optionally the Todd functionals T_0 ... T_dim used for Euler
    characteristics (T_dim must coincide with the intersection form)."""

    __slots__ = ("name", "dim", "top_form", "todd")

    def __init__(
        self,
        name: str,
        dim: int,
        top_form: SymmetricForm,
        todd: tuple[SymmetricForm, ...] | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("component dimension must be >= 1")
        if top_form.arity != dim:
            raise ValueError("top form arity must equal the component dimension")
        if not top_form.is_integral:
            raise ValueError("top intersection form must have integer values")
        if todd is not None:
            todd = tuple(todd)
            if len(todd) != dim + 1:
                raise ValueError("todd data must list functionals for j = 0 .. dim")
            for j, form in enumerate(todd):
                if form.arity != j:
                    raise ValueError(f"todd functional at position {j} has arity {form.arity}")
                if form.rank != top_form.rank:
                    raise ValueError("todd functionals must share the lattice rank")
            if todd[dim] != top_form:
                raise ValueError("top todd functional must equal the intersection form")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "top_form", top_form)
        object.__setattr__(self, "todd", todd)


class SchemeDescriptor(Record):
    """A projective scheme seen through its rank-``rank`` divisor lattice."""

    __slots__ = ("rank", "components", "euler_char")

    def __init__(
        self,
        rank: int,
        components: tuple[ComponentDescriptor, ...],
        euler_char: Fraction | None = None,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be >= 1")
        components = tuple(components)
        if not components:
            raise ValueError("at least one component is required")
        for comp in components:
            if comp.top_form.rank != rank:
                raise ValueError(
                    f"component {comp.name!r} lives on rank {comp.top_form.rank}, "
                    f"scheme has rank {rank}"
                )
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "components", components)
        object.__setattr__(
            self, "euler_char", None if euler_char is None else Fraction(euler_char)
        )

    @property
    def dim(self) -> int:
        return max(comp.dim for comp in self.components)

    @property
    def has_todd(self) -> bool:
        return all(comp.todd is not None for comp in self.components)


class AutomorphismAction(Record):
    """A named automorphism given by its matrix on the divisor lattice.

    ``todd_invariant`` is a user assertion that the action also preserves the
    lower Todd functionals; it is checked by ``validate`` only when set,
    since that invariance is extra geometric data, not a lattice consequence.
    """

    __slots__ = ("name", "matrix", "todd_invariant")

    def __init__(self, name: str, matrix: IntegerMatrix, todd_invariant: bool = False) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "todd_invariant", todd_invariant)


def intersect(component: ComponentDescriptor, classes: Sequence[DivisorClass]) -> Fraction:
    """Intersection number of ``dim`` divisor classes on the component."""
    if len(classes) != component.dim:
        raise RankMismatch(
            f"component {component.name!r} needs {component.dim} classes, got {len(classes)}"
        )
    return component.top_form.evaluate([cls.coords for cls in classes])


def apply(action: AutomorphismAction, divisor: DivisorClass) -> DivisorClass:
    """Image of a divisor class under the action (column convention)."""
    if divisor.rank != action.matrix.size:
        raise RankMismatch(f"rank {divisor.rank} vs matrix size {action.matrix.size}")
    return DivisorClass(action.matrix.column_action(divisor.coords))


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class ValidationReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]) -> None:
        object.__setattr__(self, "checks", checks)

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _basis_vector(rank: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in range(rank))


def scheme_consistency_report(scheme: SchemeDescriptor) -> ValidationReport:
    """Scheme-level sanity: the declared Euler characteristic, when present,
    must equal the sum of the components' constant Todd terms."""
    checks: list[CheckResult] = []
    if scheme.euler_char is not None and scheme.has_todd:
        total = sum(
            (comp.todd[0].value_at(()) for comp in scheme.components), Fraction(0)
        )
        checks.append(
            CheckResult(
                "euler_char_consistent",
                total == scheme.euler_char,
                f"todd constants sum to {total}, declared {scheme.euler_char}",
            )
        )
    else:
        checks.append(CheckResult("euler_char_consistent", True, "nothing to compare"))
    return ValidationReport(tuple(checks))


def validate(scheme: SchemeDescriptor, action: AutomorphismAction) -> ValidationReport:
    """Exact validation: unimodularity and invariance of every top form.

    The report carries one failed check per offending basis tuple. When the
    action asserts ``todd_invariant``, the lower Todd functionals are checked
    the same way.
    """
    checks: list[CheckResult] = []
    matrix = action.matrix
    if matrix.size != scheme.rank:
        checks.append(
            CheckResult(
                "rank",
                False,
                f"matrix size {matrix.size} does not match lattice rank {scheme.rank}",
            )
        )
        return ValidationReport(tuple(checks))
    checks.append(CheckResult("rank", True, f"matrix size {matrix.size}"))

    det = matrix.determinant()
    checks.append(CheckResult("unimodular", det in (1, -1), f"det={det}"))

    images = [matrix.column_action(_basis_vector(scheme.rank, i)) for i in range(scheme.rank)]
    for comp in scheme.components:
        forms = [("top_form", comp.top_form)]
        if action.todd_invariant and comp.todd is not None:
            forms += [(f"todd[{j}]", f) for j, f in enumerate(comp.todd[: comp.dim])]
        for label, form in forms:
            bad = []
            for index in combinations_with_replacement(range(scheme.rank), form.arity):
                expected = form.value_at(index)
                got = form.evaluate([images[i] for i in index])
                if got != expected:
                    bad.append((index, expected, got))
            name = f"{label}_invariance:{comp.name}"
            if bad:
                for index, expected, got in bad:
                    checks.append(
                        CheckResult(name, False, f"basis tuple {index}: {got} != {expected}")
                    )
            else:
                checks.append(CheckResult(name, True, "all basis tuples preserved"))
    return ValidationReport(tuple(checks))
