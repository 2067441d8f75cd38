"""The numerical lattice data model: divisor classes, components with
symmetric intersection tensors and optional Todd functionals, schemes, and
automorphism actions with exact validation.

Conventions fixed once and used everywhere: a divisor class is its integer
numerators over one positive denominator, and matrices act on column
coordinate vectors, so the m-th power image of D is ``matrix^m`` times D's
numerators, over D's denominator. A symmetric form is stored the same way,
as integer values keyed by non-decreasing basis multi-indices over one
denominator; symmetry makes that table complete. One kernel, ``_contract``,
fills one slot of such a table with a vector, so evaluation is ``arity - 1``
contractions and a dot product and never lists index orderings; the package
hands it integers only and divides by the denominators once, at the end. One
walk, ``SymmetricForm.step_table``, fills the slots with integer vectors
along non-decreasing tuples, sharing each filled prefix: validation runs it
on the matrix columns, and a form's polynomial in m on a family's
binomial-basis vectors.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import RankMismatch
from .intmat import IntegerMatrix
from .intpoly import _rational
from .record import Record


def _common_denominator(values: Sequence) -> tuple[tuple[int, ...], int]:
    """Int or ``Fraction`` values (``_rational``) as numerators over one denominator."""
    values = [_rational(v) for v in values]
    denom = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (denom // v.denominator) for v in values), denom


class DivisorClass(Record):
    """A divisor class in the fixed lattice basis: integer ``numerators``, one
    per basis class, over one positive ``denominator``.

    The constructor reduces to lowest terms, so equal classes have equal
    fields. A float or ``Fraction`` numerator is a ``TypeError``. ``of`` takes
    int or ``Fraction`` coordinates only, and ``coords`` gives them back.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators: Sequence[int], denominator: int = 1) -> None:
        nums = tuple(numerators)
        g = gcd(denominator, *nums)  # a TypeError unless every entry is an int
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        super().__init__(tuple(c // g for c in nums), denominator // g)

    @classmethod
    def of(cls, *coords) -> "DivisorClass":
        """The class with the given int or ``Fraction`` coordinates."""
        return cls(*_common_denominator(coords))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The exact rational coordinates."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    @property
    def rank(self) -> int:
        return len(self.numerators)


def _contract(table: dict, v: Sequence) -> dict:
    """Fill one slot of a form's table with ``v``: each stored index gives up
    one copy of each distinct position ``i`` it holds, with coefficient
    ``v[i]``. Entries that sum to zero are dropped."""
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
                    out[rest] = get(rest, 0) + x * value
    return {index: value for index, value in out.items() if value}


class SymmetricForm(Record):
    """Symmetric multilinear functional on the rank-``rank`` lattice.

    ``numerators`` pairs non-decreasing multi-indices of length ``arity`` with
    integers over one positive ``denominator``; omitted indices are zero, and
    arity 0 is a constant keyed by ``()``. As for ``DivisorClass``, zeros are
    dropped and the form is in lowest terms, and ``of`` takes int or ``Fraction`` values.
    """

    __slots__ = ("rank", "arity", "numerators", "denominator", "_table")

    def __init__(self, rank: int, arity: int, numerators: Sequence, denominator: int = 1) -> None:
        rank, arity = operator.index(rank), operator.index(arity)
        table = {}
        for index, value in numerators:
            index = tuple(map(operator.index, index))
            if len(index) != arity:
                raise ValueError(f"multi-index {index} must have length {arity}")
            if any(i < 0 or i >= rank for i in index):
                raise ValueError(f"multi-index {index} out of range for rank {rank}")
            if any(a > b for a, b in zip(index, index[1:])):
                raise ValueError(f"multi-index {index} must be non-decreasing")
            if index in table:
                raise ValueError(f"duplicate multi-index {index}")
            table[index] = value
        g = gcd(denominator, *table.values())  # a TypeError unless every value is an int
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        pairs = tuple(sorted((index, v // g) for index, v in table.items() if v))
        super().__init__(rank, arity, pairs, denominator // g)
        object.__setattr__(self, "_table", dict(pairs))

    @classmethod
    def of(cls, rank: int, arity: int, pairs) -> "SymmetricForm":
        """The form with the given (index, int or ``Fraction`` value) pairs."""
        pairs = tuple(pairs)
        nums, denom = _common_denominator([v for _, v in pairs])
        return cls(rank, arity, tuple(zip([index for index, _ in pairs], nums)), denom)

    def evaluate(self, vectors: Sequence[Sequence]) -> Fraction:
        """Multilinear evaluation on ``arity`` vectors, one ``Fraction`` over
        ``denominator`` built at the end. All slots but the last are filled
        one vector at a time, so the work follows the nonzero entries and
        their distinct positions; the last is a dot product with the 1-form."""
        if len(vectors) != self.arity:
            raise RankMismatch(
                f"form of arity {self.arity} applied to {len(vectors)} vectors"
            )
        self._check_lengths(vectors)
        if not vectors:
            total = self._table.get((), 0)
        else:
            table = self._table
            for v in vectors[:-1]:
                table = _contract(table, v)
            last = vectors[-1]
            total = sum([value * last[i] for (i,), value in table.items()])
        return Fraction(total, self.denominator)

    def _check_lengths(self, vectors: Sequence[Sequence]) -> None:
        for v in vectors:
            if len(v) != self.rank:
                raise RankMismatch(f"vector length {len(v)} vs rank {self.rank}")

    def filled(self, divisor: DivisorClass) -> "SymmetricForm":
        """The form of one lower arity with one slot filled by the class."""
        nums, denom = divisor.numerators, self.denominator * divisor.denominator
        self._check_lengths([nums])
        table = _contract(self._table, nums)
        return SymmetricForm(self.rank, self.arity - 1, tuple(table.items()), denom)

    def step_table(self, vectors: Sequence[Sequence[int]]) -> dict:
        """The nonzero numerators of T(v_s1, ..., v_sr), keyed by the non-decreasing
        tuples s of indices into ``vectors``. Each filled prefix is shared by
        the tuples that extend it; one whose table is empty is dropped."""
        self._check_lengths(vectors)
        got = {}
        stack = [((), self._table)] if self._table else []
        while stack:
            prefix, table = stack.pop()
            if len(prefix) == self.arity:
                got[prefix] = table[()]
                continue
            for i in range(prefix[-1] if prefix else 0, len(vectors)):
                filled = _contract(table, vectors[i])
                if filled:
                    stack.append((prefix + (i,), filled))
        return got


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
        if (dim := operator.index(dim)) < 1:
            raise ValueError("component dimension must be >= 1")
        if top_form.arity != dim:
            raise ValueError("top form arity must equal the component dimension")
        if top_form.denominator != 1:
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
        if (rank := operator.index(rank)) < 1:
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
        euler = None if euler_char is None else Fraction(_rational(euler_char))
        super().__init__(rank, components, euler)

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
    value = component.top_form.evaluate([cls.numerators for cls in classes])
    return value / prod(cls.denominator for cls in classes)


def apply(action: AutomorphismAction, divisor: DivisorClass) -> DivisorClass:
    """Image of a divisor class under the action (column convention)."""
    if divisor.rank != action.matrix.size:
        raise RankMismatch(f"rank {divisor.rank} vs matrix size {action.matrix.size}")
    return DivisorClass(action.matrix.column_action(divisor.numerators), divisor.denominator)


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")


def scheme_checks(scheme: SchemeDescriptor) -> tuple[CheckResult, ...]:
    """Scheme-level sanity: the declared Euler characteristic, when present,
    must equal the sum of the components' constant Todd terms."""
    if scheme.euler_char is None or not scheme.has_todd:
        return (CheckResult("euler_char_consistent", True, "nothing to compare"),)
    total = sum((comp.todd[0].evaluate([]) for comp in scheme.components), Fraction(0))
    return (
        CheckResult(
            "euler_char_consistent",
            total == scheme.euler_char,
            f"todd constants sum to {total}, declared {scheme.euler_char}",
        ),
    )


def validate(scheme: SchemeDescriptor, action: AutomorphismAction) -> tuple[CheckResult, ...]:
    """Exact validation: unimodularity and invariance of every top form.

    One failed check per offending basis tuple. When the action asserts
    ``todd_invariant``, the lower Todd functionals are checked the same way.
    """
    matrix = action.matrix
    if matrix.size != scheme.rank:
        return (
            CheckResult(
                "rank",
                False,
                f"matrix size {matrix.size} does not match lattice rank {scheme.rank}",
            ),
        )
    det = matrix.determinant()
    checks = [
        CheckResult("rank", True, f"matrix size {matrix.size}"),
        CheckResult("unimodular", det in (1, -1), f"det={det}"),
    ]
    columns = tuple(zip(*matrix.rows))
    for comp in scheme.components:
        forms = [("top_form", comp.top_form)]
        if action.todd_invariant and comp.todd is not None:
            forms += [(f"todd[{j}]", f) for j, f in enumerate(comp.todd[: comp.dim])]
        for label, form in forms:
            got = form.step_table(columns)
            name = f"{label}_invariance:{comp.name}"
            expected, den = form._table, form.denominator
            checks += [
                CheckResult(
                    name,
                    False,
                    f"basis tuple {index}: {Fraction(got.get(index, 0), den)} "
                    f"!= {Fraction(expected.get(index, 0), den)}",
                )
                for index in sorted(got.keys() | expected.keys())
                if got.get(index, 0) != expected.get(index, 0)
            ] or [CheckResult(name, True, "all basis tuples preserved")]
    return tuple(checks)
