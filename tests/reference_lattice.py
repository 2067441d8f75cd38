"""The slow, trusted lattice routines, kept as references for the tests.

These are the implementations the package used before its multilinear kernel
went to integer arithmetic: ``evaluate`` expanding each stored entry's
distinct orderings with ``set(permutations(...))`` on every call and summing
in ``Fraction``, ``validate`` on ``Fraction`` images of the basis vectors,
and ``nilpotent_steps`` applying N = M - I to ``Fraction`` coordinates. They
share nothing with the package's own versions but the value types, the
report records, ``determinant`` and ``nilpotency_index``, so the property
tests compare two independent routes to each answer.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from sigmaample.intmat import IntegerMatrix, nilpotency_index
from sigmaample.lattice import CheckResult, DivisorClass, ValidationReport


def evaluate(form, vectors):
    """Multilinear evaluation, walking the stored entries on every call."""
    total = Fraction(0)
    for index, value in form.values:
        for order in set(permutations(index)):
            term = value
            for v, i in zip(vectors, order):
                term = term * v[i]
                if not term:
                    break
            else:
                total = total + term
    return total


def _basis_vector(rank: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in range(rank))


def validate(scheme, action) -> ValidationReport:
    """Unimodularity and invariance of every top form (and of the lower Todd
    functionals when asserted), on the Fraction images of the basis."""
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
                got = evaluate(form, [images[i] for i in index])
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


def nilpotent_steps(matrix: IntegerMatrix, divisor: DivisorClass) -> list[DivisorClass]:
    """[N^0 D, ..., N^k D] for unipotent matrix with nilpotent part N."""
    k = nilpotency_index(matrix)
    nil = matrix - IntegerMatrix.identity(matrix.size)
    steps = [divisor]
    for _ in range(k):
        steps.append(DivisorClass(nil.column_action(steps[-1].coords)))
    return steps
