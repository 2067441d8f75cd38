import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import sigmaample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.intmat import IntegerMatrix


@pytest.fixture
def wehler():
    return catalog_entry("wehler_k3")


@pytest.fixture
def abelian():
    return catalog_entry("abelian_square")


@pytest.fixture(params=catalog_names())
def entry(request):
    return catalog_entry(request.param)


def random_divisors(rank, count, seed=0, span=9):
    """Deterministic sample of integer divisor classes, zero excluded."""
    from sigmaample.lattice import DivisorClass

    rng = random.Random(seed + 1000 * rank)
    out = []
    while len(out) < count:
        coords = tuple(rng.randint(-span, span) for _ in range(rank))
        if any(coords):
            out.append(DivisorClass.of(*coords))
    return out


def nilpotent_steps(matrix, divisor):
    """[N^0 D, ..., N^k D] for a unipotent matrix with nilpotent part N."""
    from sigmaample.engine import _nilpotent_numerators
    from sigmaample.intmat import nilpotency_index
    from sigmaample.lattice import DivisorClass

    denom, steps = _nilpotent_numerators(matrix, nilpotency_index(matrix), divisor)
    return [DivisorClass(tuple(Fraction(c, denom) for c in step)) for step in steps]


def delta_symbolic(matrix, divisor):
    """Coordinates of the m-th partial sum as polynomials: sum C(m, i+1) N^i D.

    Requires a unipotent matrix (NotUnipotent otherwise); evaluating at any
    integer m >= 0 agrees with the directly accumulated sum
    D + PD + ... + P^(m-1)D.
    """
    from sigmaample.engine import _delta_symbolic
    from sigmaample.intmat import nilpotency_index

    return _delta_symbolic(matrix, nilpotency_index(matrix), divisor)


def power_symbolic(matrix, divisor):
    """Coordinates of the m-th image under a unipotent matrix, as
    polynomials in m: sum C(m, i) N^i D."""
    from sigmaample.numpoly import ZERO, binomial_basis

    out = [ZERO] * divisor.rank
    for i, step in enumerate(nilpotent_steps(matrix, divisor)):
        for coord, c in enumerate(step.coords):
            out[coord] = out[coord] + c * binomial_basis(i)
    return tuple(out)


def unimodular_matrices(size: int, ops: int = 6, magnitude: int = 3):
    """Products of elementary integer operations, so det is +-1."""

    def build(choices):
        m = IntegerMatrix.identity(size)
        for kind, i, j, c in choices:
            rows = [list(r) for r in m.rows]
            if kind == 0 and i != j:  # add c * row_i to row_j
                rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
            elif kind == 1:  # swap
                rows[i], rows[j] = rows[j], rows[i]
            else:  # negate one row
                rows[i] = [-a for a in rows[i]]
            m = IntegerMatrix.from_rows(rows)
        return m

    op = st.tuples(
        st.integers(0, 2),
        st.integers(0, size - 1),
        st.integers(0, size - 1),
        st.integers(-magnitude, magnitude),
    )
    return st.lists(op, min_size=0, max_size=ops).map(build)


def child_env() -> dict:
    """Environment in which a child imports the same package as this
    process, PYTHONPATH or not."""
    src = str(Path(sigmaample.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_bounded(*args: str, timeout: float = 10) -> subprocess.CompletedProcess:
    """``python *args`` in a child on this package, stopped after ``timeout``
    seconds and refused address space past 2 GiB, so that an input which
    sends the code down an exponential path fails the test instead of
    hanging it or filling the machine's memory."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
        preexec_fn=_limit_memory,
    )
