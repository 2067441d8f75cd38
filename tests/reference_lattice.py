"""The slow, trusted lattice routines, kept as references for the tests.

These are the implementations the package used before its multilinear kernel
went to integer arithmetic: ``evaluate`` expanding each stored entry's
distinct orderings with ``set(permutations(...))`` on every call and summing
in ``Fraction``, ``validate`` on ``Fraction`` images of the basis vectors,
and ``nilpotent_steps`` applying N = M - I to ``Fraction`` coordinates.

The polynomial route comes from before forms saw only integers: the reduced
family built as one polynomial per coordinate (``reduced_family``), then
forms contracted slot by slot with those polynomial coordinates
(``evaluate_on_polynomials``), which gave the oracle constraints
(``symbolic_constraints``) and the self-intersection polynomials. Its
polynomials are ``reference_numpoly``'s ``Fraction`` coefficient tuples, with
that module's arithmetic; form values and rational coordinates enter as
constant tuples.

They share nothing with the package's own versions but the value types, the
check records, ``determinant`` and ``nilpotency_index``, so the property
tests compare two independent routes to each answer.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import lcm
from operator import add, mul

from sigmaample.ampleness import PolyhedralCone
from sigmaample.intmat import IntegerMatrix, nilpotency_index
from sigmaample.lattice import CheckResult, DivisorClass

import reference_numpoly as rn


def rational_values(form) -> dict:
    """The form's nonzero values as ``Fraction``s, keyed by multi-index."""
    return {index: Fraction(n, form.denominator) for index, n in form.numerators}


def _lift(x) -> rn.Coeffs:
    """A polynomial coordinate as it is, a rational as a constant."""
    return x if isinstance(x, tuple) else rn.strip((x,))


def evaluate(form, vectors):
    """Multilinear evaluation, walking the stored entries on every call: a
    ``Fraction`` on rational coordinates, a coefficient tuple when any
    coordinate is one."""
    if any(isinstance(x, tuple) for v in vectors for x in v):
        lift, times, plus = _lift, rn.mul, rn.add
    else:
        lift, times, plus = Fraction, mul, add
    total = lift(0)
    for index, value in rational_values(form).items():
        for order in set(permutations(index)):
            term = lift(value)
            for v, i in zip(vectors, order):
                term = times(term, lift(v[i]))
                if not term:
                    break
            else:
                total = plus(total, term)
    return total


def evaluate_on_polynomials(form, vectors) -> rn.Coeffs:
    """The form on polynomial coordinates by ``arity`` contractions, each
    stored index giving up one copy of each distinct position it holds;
    entries that cancel are dropped."""
    table = {index: _lift(value) for index, value in rational_values(form).items()}
    for v in vectors:
        v = [_lift(x) for x in v]
        out: dict = {}
        for index, value in table.items():
            last = -1
            for p, i in enumerate(index):
                if i != last:
                    last = i
                    if v[i]:
                        rest = index[:p] + index[p + 1 :]
                        out[rest] = rn.add(out.get(rest, ()), rn.mul(v[i], value))
        table = {index: value for index, value in out.items() if value}
    return table.get((), ())


def reduced_family(denom: int, steps, step: int = 1) -> tuple[rn.Coeffs, ...]:
    """sum C(step*m, i+1) v_i / denom as polynomials in m, one per coordinate,
    for the integer vectors v_i = steps[i]: C(step*m, i+1) has C(m, i+1)'s
    coefficient at m^j times step**j."""
    bases = [
        tuple(c * step**j for j, c in enumerate(rn.binomial(i + 1))) for i in range(len(steps))
    ]
    family = []
    for column in zip(*steps):
        total = ()
        for x, basis in zip(column, bases):
            total = rn.add(total, rn.scale(basis, Fraction(x, denom)))
        family.append(total)
    return tuple(family)


def family_at_step(matrix: IntegerMatrix, divisor: DivisorClass, step: int):
    """The partial sums D + PD + ... + P^(step*m - 1) D of a unipotent matrix
    P as polynomials in m, from the ``Fraction`` steps of ``nilpotent_steps``
    over their common denominator."""
    steps = nilpotent_steps(matrix, divisor)
    denom = lcm(*(c.denominator for s in steps for c in s.coords))
    nums = [tuple(int(c * denom) for c in s.coords) for s in steps]
    return reduced_family(denom, nums, step)


def symbolic_constraints(oracle, family) -> list[rn.Coeffs]:
    """Each oracle condition on the polynomial family: the facet functionals
    applied to the coordinates, or (D.D), (D.A) and each (D.C)."""
    if isinstance(oracle, PolyhedralCone):
        out = []
        for facet in oracle.facets:
            total = ()
            for f, c in zip(facet, family):
                total = rn.add(total, rn.scale(c, f))
            out.append(total)
        return out
    form = oracle.component.top_form
    return [evaluate_on_polynomials(form, [family, family])] + [
        evaluate_on_polynomials(form, [family, c.coords])
        for c in (oracle.reference_ample, *oracle.obstructions)
    ]


def _basis_vector(rank: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if j == i else 0) for j in range(rank))


def validate(scheme, action) -> tuple[CheckResult, ...]:
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
        return tuple(checks)
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
                expected = rational_values(form).get(index, 0)
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
    return tuple(checks)


def nilpotent_steps(matrix: IntegerMatrix, divisor: DivisorClass) -> list[DivisorClass]:
    """[N^0 D, ..., N^k D] for unipotent matrix with nilpotent part N."""
    k = nilpotency_index(matrix)
    nil = matrix - IntegerMatrix.identity(matrix.size)
    steps = [divisor]
    for _ in range(k):
        steps.append(DivisorClass.of(*nil.column_action(steps[-1].coords)))
    return steps
