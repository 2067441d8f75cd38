"""The numerical lattice data model: divisor classes, components with
symmetric intersection tensors and optional Todd functionals, schemes, and
automorphism actions with exact validation.

Conventions fixed once and used everywhere: matrices act on column coordinate
vectors of divisor classes, so the m-th power image of D has coordinates
``matrix^m * coords(D)``. Symmetric tensors are stored as value tables keyed
by non-decreasing basis multi-indices; symmetry makes that table complete.
One kernel, ``_contract``, fills one slot of such a table with a vector and
returns the table of the form of one lower arity, so evaluation is ``arity``
contractions and never lists index orderings. Validation contracts the forms
with the integer columns of the matrix (the images of the basis vectors),
sharing each filled prefix among the basis tuples that extend it, so an
integral form is checked in integer arithmetic throughout.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

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
        super().__init__(tuple(c if type(c) is Fraction else Fraction(c) for c in coords))

    @classmethod
    def of(cls, *coords) -> "DivisorClass":
        return cls(tuple(coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def over_common_denominator(self) -> tuple[int, tuple[int, ...]]:
        """The least common denominator d of the coordinates and the integer
        numerators over it, so that coords = numerators / d."""
        denom = lcm(*(c.denominator for c in self.coords))
        return denom, tuple(c.numerator * (denom // c.denominator) for c in self.coords)

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


def _contract(table: dict, v: Sequence) -> dict:
    """Fill one slot of a form's table with ``v``: each stored index gives up
    one copy of each distinct position ``i`` it holds, with coefficient
    ``v[i]``. Entries that sum to zero, rational or polynomial, are dropped."""
    out: dict = {}
    get = out.get
    for index, value in table.items():
        last = -1
        for p, i in enumerate(index):
            if i != last:
                last = i
                x = v[i]
                if x:
                    rest = index[:p] + index[p + 1 :]
                    prev = get(rest)
                    out[rest] = x * value if prev is None else prev + x * value
    return {index: value for index, value in out.items() if value}


class SymmetricForm(Record):
    """Symmetric multilinear functional on the rank-``rank`` lattice.

    ``values`` pairs non-decreasing basis multi-indices of length ``arity``
    with rational values (``from_dict`` takes them as a dict); omitted
    indices are zero. Arity 0 is a constant, keyed by the empty tuple.
    """

    __slots__ = ("rank", "arity", "values", "_table")

    def __init__(
        self, rank: int, arity: int, values: tuple[tuple[tuple[int, ...], Fraction], ...]
    ) -> None:
        normalized = []
        seen = set()
        for index, value in values:
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
        super().__init__(rank, arity, tuple(normalized))
        object.__setattr__(self, "_table", {
            index: value.numerator if value.denominator == 1 else value
            for index, value in normalized
        })

    @classmethod
    def from_dict(cls, rank: int, arity: int, table: dict) -> "SymmetricForm":
        return cls(rank, arity, tuple(table.items()))

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for _, v in self.values)

    @property
    def is_zero(self) -> bool:
        return not self.values

    def value_at(self, index: Sequence[int]) -> Fraction:
        return Fraction(self._table.get(tuple(sorted(index)), 0))

    def evaluate(self, vectors: Sequence[Sequence]):
        """Multilinear evaluation on ``arity`` coordinate vectors.

        Fills the slots one vector at a time with ``_contract``, so the work
        follows the nonzero entries and their distinct positions, not their
        orderings. Coordinates may be ints, Fractions or
        ``NumericalPolynomial``s. The result is a ``Fraction`` for rational
        coordinates (also when every product was an ``int``) and a
        ``NumericalPolynomial`` for polynomial ones, except that a zero
        result is always ``Fraction(0)``: entries that cancel are dropped,
        polynomial ones too, so it does not depend on the order of the
        vectors.
        """
        if len(vectors) != self.arity:
            raise RankMismatch(
                f"form of arity {self.arity} applied to {len(vectors)} vectors"
            )
        for v in vectors:
            if len(v) != self.rank:
                raise RankMismatch(f"vector length {len(v)} vs rank {self.rank}")
        table = self._table
        for v in vectors:
            table = _contract(table, v)
        total = table.get((), 0)
        return Fraction(total) if type(total) is int else total


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
        super().__init__(name, dim, top_form, todd)


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
        super().__init__(rank, components, None if euler_char is None else Fraction(euler_char))

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
        super().__init__(name, matrix, todd_invariant)


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


class ValidationReport(Record):
    __slots__ = ("checks",)

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


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

    columns = tuple(zip(*matrix.rows))
    for comp in scheme.components:
        forms = [("top_form", comp.top_form)]
        if action.todd_invariant and comp.todd is not None:
            forms += [(f"todd[{j}]", f) for j, f in enumerate(comp.todd[: comp.dim])]
        for label, form in forms:
            # T(c_i1, ..., c_ik) on non-decreasing tuples; a prefix whose
            # filled table is empty has only zero values below it
            got = {}
            stack = [((), form._table)] if form._table else []
            while stack:
                prefix, table = stack.pop()
                if len(prefix) == form.arity:
                    got[prefix] = table[()]
                    continue
                for i in range(prefix[-1] if prefix else 0, scheme.rank):
                    filled = _contract(table, columns[i])
                    if filled:
                        stack.append((prefix + (i,), filled))
            name = f"{label}_invariance:{comp.name}"
            expected = form._table
            checks += [
                CheckResult(
                    name,
                    False,
                    f"basis tuple {index}: {got.get(index, 0)} != {expected.get(index, 0)}",
                )
                for index in sorted(got.keys() | expected.keys())
                if got.get(index, 0) != expected.get(index, 0)
            ] or [CheckResult(name, True, "all basis tuples preserved")]
    return ValidationReport(tuple(checks))
