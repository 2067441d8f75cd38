import importlib.util
import json
import os
import random
import resource
import subprocess
import sys
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import strategies as st

import sigmaample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.intmat import IntegerMatrix

import reference_numpoly as rn
from reference_intmat import inverse_unimodular


@pytest.fixture(autouse=True)
def _own_working_directory(tmp_path, monkeypatch):
    """Run each test from its own empty directory: INPUT reads an existing
    path before a catalog name, so a folder named like an entry where the
    suite starts would shadow that entry."""
    monkeypatch.chdir(tmp_path)


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


def linear_combination(*terms):
    """The class sum c * D over pairs (c, D) of a rational c and a class D,
    summed on the rational coordinates."""
    from sigmaample.lattice import DivisorClass

    columns = zip(*(tuple(c * x for x in d.coords) for c, d in terms))
    return DivisorClass.of(*map(sum, columns))


def nilpotent_steps(matrix, divisor):
    """[N^0 D, ..., N^k D] for a unipotent matrix with nilpotent part N,
    stepped on the integer numerators of D over its denominator."""
    from sigmaample.intmat import nilpotency_index
    from sigmaample.lattice import DivisorClass

    current = divisor.numerators
    steps = [current]
    for _ in range(nilpotency_index(matrix)):
        current = tuple(a - b for a, b in zip(matrix.column_action(current), current))
        steps.append(current)
    return [DivisorClass(step, divisor.denominator) for step in steps]


def reduced_steps(matrix, divisor):
    """The engine's reduced family with q = 1, as ``(d, vectors)``: the m-th
    partial sum D + PD + ... + P^(m-1)D is sum_j C(m, j) vectors[j] / d.
    Requires a unipotent matrix (NotUnipotent otherwise)."""
    from sigmaample.engine import _nilpotent_steps
    from sigmaample.intmat import UnipotentReduction, nilpotency_index

    reduction = UnipotentReduction(1, matrix, nilpotency_index(matrix))
    reduced, vectors = _nilpotent_steps(matrix, reduction, divisor)
    return reduced.denominator, vectors


def family_at(family, m):
    """The class sum_j C(m, j) vectors[j] / d of a family ``(d, vectors)``."""
    from sigmaample.lattice import DivisorClass

    denom, vectors = family
    return DivisorClass(
        tuple(sum(comb(m, j) * x for j, x in enumerate(column)) for column in zip(*vectors)),
        denom,
    )


def delta_symbolic(matrix, divisor):
    """Coordinates of the m-th partial sum as polynomials: sum C(m, i+1) N^i D.

    The engine's reduced family with q = 1 (``reduced_steps``), made into one
    ``reference_numpoly`` coefficient tuple per coordinate by the reference's
    builder; evaluating at any integer m >= 0 agrees with the directly
    accumulated sum.
    """
    import reference_lattice as ref

    denom, vectors = reduced_steps(matrix, divisor)
    return ref.reduced_family(denom, vectors[1:])


def expansion(family):
    """(d, vectors) with family(m) = sum_j C(m, j) vectors[j] / d for a
    family of polynomial coordinates (coefficient tuples, lowest degree
    first), the form ``symbolic_constraints`` takes: each coordinate's
    binomial coefficients over their common denominator."""
    from sigmaample.numpoly import binomial_coefficients

    coeffs = [binomial_coefficients(rn.as_polynomial(p)) for p in family]
    d = lcm(*(b.denominator for bs in coeffs for b in bs))
    return d, [
        tuple(int(bs[j] * d) if j < len(bs) else 0 for bs in coeffs)
        for j in range(max(1, *map(len, coeffs)))
    ]


@st.composite
def unipotent_matrices(draw, n):
    """P T P^-1 for an upper unitriangular T and unimodular P."""
    rows = [
        [int(i == j) if j <= i else draw(st.integers(-2, 2)) for j in range(n)]
        for i in range(n)
    ]
    p = draw(unimodular_matrices(n, ops=n, magnitude=2))
    return p * IntegerMatrix(rows) * inverse_unimodular(p)


@st.composite
def permutation_transvections(draw, n):
    """P diag(S, T) P^-1 for a signed permutation S of k coordinates, an
    upper unitriangular T (a product of transvections) of the other n - k
    and a unimodular P. S and T act on complementary blocks, so they commute
    and the minimal unipotent power is the order of S."""
    k = draw(st.integers(1, n))
    order = draw(st.permutations(range(k)))
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        rows[order[i]][i] = draw(st.sampled_from((1, -1)))
    for i in range(k, n):
        rows[i][i] = 1
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-2, 2))
    p = draw(unimodular_matrices(n, ops=n, magnitude=2))
    return p * IntegerMatrix(rows) * inverse_unimodular(p)


def power_symbolic(matrix, divisor):
    """Coordinates of the m-th image under a unipotent matrix, as
    coefficient tuples in m: sum C(m, i) N^i D."""
    out = [()] * divisor.rank
    for i, step in enumerate(nilpotent_steps(matrix, divisor)):
        basis = rn.binomial(i)
        for coord, c in enumerate(step.coords):
            out[coord] = rn.add(out[coord], rn.scale(basis, c))
    return tuple(out)


def elementary_product(size: int, choices) -> IntegerMatrix:
    """The product of elementary integer row operations (kind, i, j, c), so
    det is +-1."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for kind, i, j, c in choices:
        if kind == 0 and i != j:  # add c * row_i to row_j
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        elif kind == 1:  # swap
            rows[i], rows[j] = rows[j], rows[i]
        else:  # negate one row
            rows[i] = [-a for a in rows[i]]
    return IntegerMatrix(rows)


def seeded_unimodular(size: int, seed: int, ops: int = 6, magnitude: int = 3) -> IntegerMatrix:
    """A deterministic product of ``ops`` random elementary operations."""
    rng = random.Random(seed)
    return elementary_product(size, [
        (rng.randint(0, 2), rng.randrange(size), rng.randrange(size),
         rng.randint(-magnitude, magnitude))
        for _ in range(ops)
    ])


def unimodular_matrices(size: int, ops: int = 6, magnitude: int = 3):
    """Products of elementary integer operations, so det is +-1."""
    op = st.tuples(
        st.integers(0, 2),
        st.integers(0, size - 1),
        st.integers(0, size - 1),
        st.integers(-magnitude, magnitude),
    )
    return st.lists(op, min_size=0, max_size=ops).map(lambda choices: elementary_product(size, choices))


def child_env() -> dict:
    """Environment in which a child imports the same package as this
    process, PYTHONPATH or not. PYTHONUNBUFFERED is dropped, so the child's
    stdout is block-buffered whenever it is not a terminal, as a console
    script's is, whatever the caller's shell sets."""
    src = str(Path(sigmaample.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _limit_memory() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


GEN_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def perfbench_deck(kind: str, seed: int, workdir) -> list[dict]:
    """The queries of the benchmark's ``kind`` deck (``salem`` or
    ``unipotent``) for ``seed``, from ``perfbench/gen.py``, with every
    scheme document the queries read written into ``workdir``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs, queries = getattr(gen, f"{kind}_inputs")(random.Random(seed), str(workdir))
    for path, doc in docs.items():
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return queries


def swapcone_document() -> dict:
    """A rank-2 document whose one facet the swap does not keep: D = (1, 0)
    is ample, but D + swap(D) = (1, 1) is not, nor is any multiple of it."""
    return {
        "rank": 2,
        "components": [{"name": "C", "dim": 1, "top_form": [
            {"index": [0], "value": "1"}, {"index": [1], "value": "1"},
        ]}],
        "oracles": [{"name": "ample", "kind": "polyhedral", "data": {"facets": [["1", "-2"]]}}],
        "automorphisms": [{"name": "swap", "matrix": [["0", "1"], ["1", "0"]]}],
        "divisors": [{"name": "D", "coords": ["1", "0"]}],
    }


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
