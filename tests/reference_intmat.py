"""The integer matrix kernels as they were before products went through
``map`` and a constructor that skips the entry checks, kept as references
for the tests.

``mul`` and ``column_action`` are the generator-expression products, each
result built by the checked ``IntegerMatrix`` constructor. ``char_poly`` is
the Berkowitz recursion with indexed ``a[i][j]`` inner loops. ``mat_pow``
and ``partial_sum`` square with ``mul`` on every call, sharing nothing
between calls. ``nilpotency_index`` starts its powers from the identity,
``delta_symbolic`` sums ``Fraction`` multiples of the binomial basis and
``is_ample`` evaluates the oracle at the ``Fraction`` coordinates. Only
``IntegerMatrix``'s checked constructor, ``inverse_unimodular``,
``NumericalPolynomial`` and the oracles' ``conditions`` are shared with the
package.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from sigmaample.errors import NotUnipotent
from sigmaample.intmat import IntegerMatrix
from sigmaample.lattice import DivisorClass
from sigmaample.numpoly import ZERO, NumericalPolynomial, binomial_basis


def mul(left: IntegerMatrix, right: IntegerMatrix) -> IntegerMatrix:
    if left.size != right.size:
        raise ValueError(f"size mismatch: {left.size} vs {right.size}")
    cols = tuple(zip(*right.rows))
    return IntegerMatrix(
        tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in left.rows
        )
    )


def column_action(matrix: IntegerMatrix, coords: Sequence) -> tuple:
    """Matrix times column vector; accepts int or Fraction entries."""
    if len(coords) != matrix.size:
        raise ValueError(f"vector length {len(coords)} does not match size {matrix.size}")
    return tuple(sum(a * c for a, c in zip(row, coords)) for row in matrix.rows)


def char_poly(matrix: IntegerMatrix) -> NumericalPolynomial:
    """Characteristic polynomial det(xI - M) by the Berkowitz recursion."""
    n = matrix.size
    a = matrix.rows
    # coefficients of det(xI - leading principal submatrix), highest first
    coeffs = [1]
    for t in range(n):
        row = a[t][:t]
        col = [a[i][t] for i in range(t)]
        diag = a[t][t]
        # first column of the Toeplitz transform:
        # 1, -a_tt, -(R S), -(R A S), ..., -(R A^(t-1) S)
        q = [1, -diag]
        vec = col
        for _ in range(t):
            q.append(-sum(r * v for r, v in zip(row, vec)))
            vec = [sum(a[i][j] * vec[j] for j in range(t)) for i in range(t)]
        new = [0] * (t + 2)
        for i in range(t + 2):
            acc = 0
            for j in range(max(0, i - len(q) + 1), min(i, t) + 1):
                acc += q[i - j] * coeffs[j]
            new[i] = acc
        coeffs = new
    return NumericalPolynomial(tuple(reversed(coeffs)))


def mat_pow(matrix: IntegerMatrix, exponent: int) -> IntegerMatrix:
    """Exact matrix power by repeated squaring; negative powers via the inverse."""
    if exponent < 0:
        base = matrix.inverse_unimodular()
        exponent = -exponent
    else:
        base = matrix
    result = IntegerMatrix.identity(matrix.size)
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        base_needed = exponent > 1
        if base_needed:
            base = mul(base, base)
        exponent >>= 1
    return result


def _numerators(divisor: DivisorClass) -> tuple[int, tuple[int, ...]]:
    """The common denominator of the coordinates and their numerators over it."""
    denom = lcm(*(c.denominator for c in divisor.coords))
    return denom, tuple(c.numerator * (denom // c.denominator) for c in divisor.coords)


def partial_sum(matrix: IntegerMatrix, divisor: DivisorClass, m: int) -> DivisorClass:
    """D + PD + ... + P^(m-1)D by doubling on the bits of m, squaring the
    matrix on every call."""
    if m < 0:
        raise ValueError("partial sum index must be >= 0")
    denom, block = _numerators(divisor)
    total, power = (0,) * divisor.rank, matrix
    while m:
        if m & 1:
            total = _vector_sum(block, column_action(power, total))
        m >>= 1
        if m:
            block = _vector_sum(block, column_action(power, block))
            power = mul(power, power)
    return DivisorClass(tuple(Fraction(t, denom) for t in total))


def _vector_sum(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def nilpotency_index(matrix: IntegerMatrix) -> int:
    """Least k >= 0 with (M - I)^(k+1) = 0; M must be unipotent."""
    n = matrix.size
    nil = IntegerMatrix(
        tuple(
            tuple(c - (i == j) for j, c in enumerate(row)) for i, row in enumerate(matrix.rows)
        )
    )
    power = IntegerMatrix.identity(n)
    for k in range(n):
        power = mul(power, nil)
        if power.is_zero:
            return k
    raise NotUnipotent("matrix is not unipotent")


def delta_symbolic(
    unipotent: IntegerMatrix, divisor: DivisorClass
) -> tuple[NumericalPolynomial, ...]:
    """sum C(m, i+1) N^i D, from ``Fraction`` steps N^i D."""
    out = [ZERO] * divisor.rank
    step = divisor.coords
    for i in range(nilpotency_index(unipotent) + 1):
        basis = binomial_basis(i + 1)
        for coord, c in enumerate(step):
            if c:
                out[coord] = out[coord] + c * basis
        step = tuple(v - c for v, c in zip(column_action(unipotent, step), step))
    return tuple(out)


def is_ample(oracle, divisor: DivisorClass) -> bool:
    return all(v > 0 for v in oracle.conditions(divisor.coords))
