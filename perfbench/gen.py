"""Seeded inputs for the benchmark workloads.

Everything here is independent of the ``sigmaample`` package: matrices are
lists of integer rows, scheme documents are plain JSON-ready dicts in the
format ``sigmaample`` parses, and each generated query carries the answer
its construction guarantees, for ``check.py`` to compare against.

All surface and threefold lattices are the even hyperbolic lattice
U + <-2>^(n-2) with basis e, f, g_1 .. g_(n-2): e.f = 1, e.e = f.f = 0,
g_i.g_i = -2. Matrices act on column coordinate vectors.
"""
from __future__ import annotations

import random
from math import lcm

# ---------------------------------------------------------------- integer linear algebra


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a: list[list[int]], v: list) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def gram(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1
    for i in range(2, n):
        g[i][i] = -2
    return g


def pair(g: list[list[int]], x: list, y: list):
    return sum(x[i] * g[i][j] * y[j] for i in range(len(x)) for j in range(len(y)) if g[i][j])


def is_isometry(m: list[list[int]], g: list[list[int]]) -> bool:
    return mat_mul(transpose(m), mat_mul(g, m)) == g


# ---------------------------------------------------------------- document builders


def _entries(table: dict) -> list[dict]:
    return [{"index": list(k), "value": str(v)} for k, v in sorted(table.items())]


def gram_table(n: int) -> dict:
    table = {(0, 1): 1}
    table.update({(i, i): -2 for i in range(2, n)})
    return table


def cubic_table(n: int) -> dict:
    """Symmetric trilinear form with T(x, x, x) = 3 (x.x)(x.e)."""
    table = {(0, 1, 1): 2}
    table.update({(1, i, i): -2 for i in range(2, n)})
    return table


def _actions(actions: dict) -> list[dict]:
    return [
        {"name": name, "matrix": [[str(c) for c in row] for row in m], "todd_invariant": True}
        for name, m in actions.items()
    ]


def _divisors(divisors: dict) -> list[dict]:
    return [{"name": name, "coords": [str(c) for c in v]} for name, v in divisors.items()]


def surface_document(n: int, actions: dict, divisors: dict, obstructions: list) -> dict:
    """K3-like surface: chi(O) = 2, trivial canonical class, positive-cone oracle
    around e + f, with the given obstruction classes."""
    top = _entries(gram_table(n))
    reference = [1, 1] + [0] * (n - 2)
    return {
        "rank": n,
        "components": [
            {"name": "X", "dim": 2, "top_form": top, "todd": [[{"index": [], "value": "2"}], [], top]}
        ],
        "euler_char": "2",
        "oracles": [
            {
                "name": "ample",
                "kind": "surface_positive_cone",
                "data": {
                    "component": "X",
                    "reference_ample": [str(c) for c in reference],
                    "obstructions": [[str(c) for c in o] for o in obstructions],
                },
            }
        ],
        "automorphisms": _actions(actions),
        "divisors": _divisors(divisors),
    }


def threefold_document(n: int, actions: dict, divisors: dict, facets: list) -> dict:
    """Threefold with cubic form 3 q l (q the lattice form, l = pairing with e),
    Todd functionals T_0 = 1, T_1 = 2 l, T_2 = q, and a polyhedral oracle."""
    return {
        "rank": n,
        "components": [
            {
                "name": "Y",
                "dim": 3,
                "top_form": _entries(cubic_table(n)),
                "todd": [
                    [{"index": [], "value": "1"}],
                    [{"index": [1], "value": "2"}],
                    _entries(gram_table(n)),
                    _entries(cubic_table(n)),
                ],
            }
        ],
        "euler_char": "1",
        "oracles": [
            {"name": "ample", "kind": "polyhedral", "data": {"facets": [[str(c) for c in f] for f in facets]}}
        ],
        "automorphisms": _actions(actions),
        "divisors": _divisors(divisors),
    }


# ---------------------------------------------------------------- salem_ladder inputs

# The cost of every spectral step grows with log(rho) (the entries of
# M^L have about L log2(rho) bits), so a narrow band keeps one seed's
# queries about as expensive as another's without making them cheap.
RHO_BAND = (10.0, 13.0)
# Distinct eigenvalue products lambda_i * lambda_j (i <= j), i.e. the degree
# of the square-free part of the Kronecker-square characteristic polynomial,
# pinned per rank to the largest value seen among products in RHO_BAND,
# except at rank 8, where 32 also occurs and costs three times as much. It
# keeps block-sum-like products, whose Sturm chains are short, out of the
# ladder, and keeps the Sturm work of one rung the same across seeds.
GENERIC_PAIR_COUNT = {4: 9, 5: 13, 6: 19, 7: 25, 8: 25}
_BATCH = 512


def _roots(n: int) -> list[list[int]]:
    """(-2)-vectors with coordinates in {-1, 0, 1}."""
    from itertools import product

    g = gram(n)
    return [list(v) for v in product((-1, 0, 1), repeat=n) if pair(g, v, v) == -2]


def _distinct_pair_products(eigenvalues) -> int:
    seen: list = []
    for i, a in enumerate(eigenvalues):
        for b in eigenvalues[i:]:
            p = a * b
            if all(abs(p - s) > 1e-6 * max(1.0, abs(p)) for s in seen):
                seen.append(p)
    return len(seen)


class ReflectionProducts:
    """Products of n reflections x -> x + (x.v) v in (-2)-vectors v, drawn
    in numpy batches and kept when the spectral radius lies in RHO_BAND and
    the spectrum is generic for the rank. The radius is computed with numpy,
    independently of the program: a numerical radius of at least 10 proves
    the matrix is not quasi-unipotent, since every eigenvalue of a
    quasi-unipotent matrix has modulus 1."""

    def __init__(self, rng: random.Random):
        import numpy as np

        self.np = np
        self.gen = np.random.default_rng(rng.getrandbits(64))
        self.reflections: dict = {}
        self.pending: dict = {}

    def draw(self, n: int) -> list[list[int]]:
        np = self.np
        if n not in self.reflections:
            roots = np.array(_roots(n), dtype=np.int64)
            g = np.array(gram(n), dtype=np.int64)
            self.reflections[n] = np.eye(n, dtype=np.int64) + np.einsum("ki,kj->kij", roots, roots @ g)
            self.pending[n] = []
        while not self.pending[n]:
            refl = self.reflections[n]
            picks = self.gen.integers(0, len(refl), size=(_BATCH, n))
            m = refl[picks[:, 0]]
            for step in range(1, n):
                m = m @ refl[picks[:, step]]
            ev = np.linalg.eigvals(m.astype(float))
            rho = np.abs(ev).max(axis=1)
            for i in np.nonzero((rho >= RHO_BAND[0]) & (rho <= RHO_BAND[1]))[0]:
                if _distinct_pair_products(list(ev[i])) == GENERIC_PAIR_COUNT[n]:
                    self.pending[n].append(m[i].tolist())
        out = self.pending[n].pop(0)
        assert is_isometry(out, gram(n))
        return out


# Fixed per-deck schedule: (rank, command, eps). Seeds change the matrices,
# never the schedule, so every run measures the same mix of rungs: a quarter
# rank 4, a third rank 5, a quarter rank 6, and the heavy rungs 7 and 8.
# The latency median falls among the rank-5 slots and the tail percentile
# (about p70 at 35 invocations) among the rank-6 slots, not on the edge
# between two rungs. Tight-eps slots (1/10^12, bisection width eps^2/4) make
# Sturm bisection run about 60 more steps.
TIGHT = "1/1000000000000"
SALEM_DECK = [
    (4, "classify", "1/1000"),
    (5, "classify", "1/1000"),
    (6, "classify", "1/1000"),
    (7, "classify", "1/1000"),
    (5, "growth", "1/1000"),
    (4, "classify", TIGHT),
    (6, "growth", "1/1000"),
    (5, "classify", "1/1000"),
    (8, "classify", "1/1000"),
    (4, "growth", "1/1000"),
    (5, "classify", TIGHT),
    (6, "classify", TIGHT),
    (5, "growth", "1/1000"),
    (4, "classify", "1/1000"),
    (7, "growth", "1/1000"),
    (5, "classify", "1/1000"),
    (6, "classify", "1/1000"),
    (4, "classify", TIGHT),
    (5, "classify", "1/1000"),
    (6, "growth", "1/1000"),
]
SALEM_DECKS = 3


def salem_inputs(rng: random.Random, workdir: str) -> tuple[dict, list[dict]]:
    """One scheme file and one query per slot; SALEM_DECKS decks of fresh
    matrices, cycled if a run outlasts them."""
    docs: dict[str, dict] = {}
    queries: list[dict] = []
    products = ReflectionProducts(rng)
    for d in range(SALEM_DECKS):
        for slot, (n, command, eps) in enumerate(SALEM_DECK):
            m = products.draw(n)
            path = f"{workdir}/salem_{d}_{slot}.json"
            divisor = [1, 1] + [0] * (n - 2)
            docs[path] = surface_document(n, {"salem": m}, {"A": divisor}, [])
            argv = [command, path, "--auto", "salem", "--eps", eps]
            if command == "growth":
                argv += ["--divisor", "A", "--mmax", "12"]
            queries.append(
                {
                    "argv": argv,
                    "input": path,
                    "rank": n,
                    "slot": slot,
                    "queries": 1,
                    "expect": {"actions": {"salem": {"quasi_unipotent": False}}, "kinds": {"A": "ample"}},
                }
            )
    return docs, queries


# ---------------------------------------------------------------- unipotent_ladder inputs


def eichler(n: int, a: list[int]) -> list[list[int]]:
    """Eichler transvection x -> x + (x.e) a - (x.a) e - (a.a)/2 (x.e) e for a
    in the span of the g_i; unipotent with (E - I)^3 = 0 and (E - I)^2 != 0
    when a != 0."""
    g = gram(n)
    e = [1, 0] + [0] * (n - 2)
    aa = pair(g, a, a)
    cols = []
    for j in range(n):
        x = [int(i == j) for i in range(n)]
        xe, xa = pair(g, x, e), pair(g, x, a)
        cols.append([x[i] + xe * a[i] - xa * e[i] - (aa // 2) * xe * e[i] for i in range(n)])
    return transpose(cols)


def permutation_matrix(n: int, perm: list[int]) -> list[list[int]]:
    """Sends g_i to g_perm[i]; fixes e and f."""
    p = [[0] * n for _ in range(n)]
    p[0][0] = p[1][1] = 1
    for i, j in enumerate(perm):
        p[2 + j][2 + i] = 1
    return p


def _cycles_to_perm(k: int, cycles: list[list[int]]) -> list[int]:
    perm = list(range(k))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return perm


def random_cycles(rng: random.Random, block: list[int], lengths: list[int]) -> list[list[int]]:
    shuffled = block[:]
    rng.shuffle(shuffled)
    cycles, pos = [], 0
    for length in lengths:
        cycles.append(shuffled[pos : pos + length])
        pos += length
    return cycles


def transvection_action(rng: random.Random, n: int, block: list[int], cycles: list[list[int]]):
    """E(e, a) composed with the permutation of the g_i with the given
    cycles inside ``block``; a is constant on ``block`` and arbitrary off it,
    so E and the permutation commute. Without cycles, a is a single g_i, so
    a.a = -2 and the sign scans of sigma-ampleness see small leading
    coefficients, hence large Cauchy bounds. Returns (matrix, q, jordan): q,
    the order of the permutation, is the minimal unipotent power, and the
    Jordan index of the q-th power E(e, q a) is 2."""
    k = n - 2
    a = [0] * n
    if not cycles:
        a[2 + rng.randrange(k)] = 1
    else:
        c = rng.choice((1, -1, 2))
        for i in block:
            a[2 + i] = c
        for i in range(k):
            if i not in block:
                a[2 + i] = rng.choice((0, 0, 1, -1))
    m = mat_mul(eichler(n, a), permutation_matrix(n, _cycles_to_perm(k, cycles)))
    assert is_isometry(m, gram(n))
    return m, lcm(*(len(c) for c in cycles)) if cycles else 1, 2


def _surface_divisors(rng: random.Random, n: int) -> tuple[dict, dict]:
    """Divisor classes with known verdicts: sigma-ample exactly when the
    f-coordinate (= D.e) is positive, since D.e is fixed by the action and
    the other two oracle inequalities have positive leading coefficients.
    ``far`` has large coordinates, hence a large Cauchy bound and witness;
    ``never`` scans up to a large Cauchy bound and finds nothing."""
    k = n - 2
    divisors, kinds = {}, {}
    gs = [rng.randint(-2, 2) for _ in range(k)]
    xf = rng.randint(1, 3)
    xe = (sum(c * c for c in gs) + 1) // xf + 1 + rng.randint(0, 3)
    divisors["amp"], kinds["amp"] = [xe, xf] + gs, "ample"
    gs = [rng.randint(-2, 2) for _ in range(k)]
    divisors["near"], kinds["near"] = [-rng.randint(1, 5), 1] + gs, "sigma"
    # Fixed magnitudes, random signs: the scan lengths, which dominate the
    # cost of these two, then do not depend on the seed.
    gs = [rng.choice((-20, 20)) for _ in range(k)]
    divisors["far"], kinds["far"] = [-4000, 1] + gs, "sigma"
    gs = [rng.choice((-20, 20)) for _ in range(k)]
    divisors["never"], kinds["never"] = [-4000, -1] + gs, "never"
    return divisors, kinds


def _threefold_divisors(rng: random.Random, n: int, cycles: list[list[int]]) -> tuple[dict, dict]:
    """Ample when x_f > 0 and the block coordinates differ by less than x_f.
    Both actions permute the block along the same cycles, so the q-fold
    partial sum replaces each block coordinate by its cycle average: ``near``
    has equal cycle averages and large spread, hence is sigma-ample with
    witness 1 but not ample; ``never`` has x_f <= 0."""
    k = n - 2
    divisors, kinds = {}, {}
    xf = rng.randint(3, 5)
    base = rng.randint(-3, 3)
    gs = [rng.randint(-9, 9) for _ in range(k)]
    for cycle in cycles:
        for i in cycle:
            gs[i] = base + rng.randint(0, xf - 1)
    divisors["amp"], kinds["amp"] = [rng.randint(-9, 9), xf] + gs, "ample"
    gs = [rng.randint(-9, 9) for _ in range(k)]
    for cycle in cycles:
        spread = [rng.randint(-20, 20) for _ in cycle[1:]]
        for i, w in zip(cycle, [-sum(spread)] + spread):
            gs[i] = base + w
    divisors["near"], kinds["near"] = [rng.randint(-9, 9), 1] + gs, "sigma"
    divisors["never"], kinds["never"] = [rng.randint(-9, 9), rng.choice((0, -1))] + gs, "never"
    return divisors, kinds


# (kind, rank, block size, cycle lengths of each action's permutation). On
# threefolds the second action permutes along the inverse cycles of the
# first, which keeps the polyhedral cone stable under both.
UNIPOTENT_FILES = {
    "s6": ("surface", 6, 4, [[2, 2], []]),
    "s10": ("surface", 10, 6, [[2, 3], []]),
    "s16": ("surface", 16, 9, [[4, 5], [2, 3, 4]]),
    "t8": ("threefold", 8, 4, [[2, 2]]),
    "t9": ("threefold", 9, 5, [[2, 3]]),
    "t12": ("threefold", 12, 6, [[2, 4]]),
}

# (file, command), interleaved so that any prefix has about the deck's mix.
# The two heavy rungs, s16 (the O(L) divisor scan at L = 24,504,480) and
# t12 (rank^3 tensor loops), appear once each. Every slot weighs the same
# in the latency quantiles, so with 17 slots the median is the ninth
# cheapest slot's own time and the tail (about p75 at 40 invocations) lies
# between the 13th and 14th; each has neighbours of similar cost.
UNIPOTENT_DECK = [
    ("s6", "sigma-ample"),
    ("t9", "gkdim"),
    ("s10", "chi"),
    ("t8", "growth"),
    ("s16", "sigma-ample"),
    ("s10", "gkdim"),
    ("t9", "sigma-ample"),
    ("s6", "growth"),
    ("t12", "gkdim"),
    ("t8", "chi"),
    ("s10", "sigma-ample"),
    ("s6", "chi"),
    ("t9", "growth"),
    ("t8", "sigma-ample"),
    ("s10", "growth"),
    ("t9", "chi"),
    ("s10", "sigma-ample"),
]

# Divisors each command may take: gkdim needs ample or sigma-ample classes,
# growth needs ample ones.
_COMMAND_DIVISORS = {
    "sigma-ample": ("amp", "near", "far", "never"),
    "gkdim": ("amp", "near", "far"),
    "growth": ("amp",),
    "chi": ("amp", "near"),
}


def unipotent_inputs(rng: random.Random, workdir: str) -> tuple[dict, list[dict]]:
    docs: dict[str, dict] = {}
    facts: dict[str, dict] = {}
    for key, (kind, n, size, perms) in UNIPOTENT_FILES.items():
        block = rng.sample(range(n - 2), size)
        if kind == "surface":
            all_cycles = [random_cycles(rng, block, lengths) for lengths in perms]
        else:
            cycles = random_cycles(rng, block, perms[0])
            all_cycles = [cycles, [c[::-1] for c in cycles]]
        actions, expected = {}, {}
        for i, cycles_i in enumerate(all_cycles):
            m, q, jordan = transvection_action(rng, n, block, cycles_i)
            actions[f"t{i}"] = m
            expected[f"t{i}"] = {"quasi_unipotent": True, "unipotent_power": q, "jordan_index": jordan}
        path = f"{workdir}/unipotent_{key}.json"
        if kind == "surface":
            divisors, kinds = _surface_divisors(rng, n)
            e = [1, 0] + [0] * (n - 2)
            docs[path] = surface_document(n, actions, divisors, [e])
            gk = 5
        else:
            divisors, kinds = _threefold_divisors(rng, n, all_cycles[0])
            facets = [[0, 1] + [0] * (n - 2)]
            for i in block:
                for j in block:
                    if i != j:
                        f = [0, 1] + [0] * (n - 2)
                        f[2 + i], f[2 + j] = 1, -1
                        facets.append(f)
            docs[path] = threefold_document(n, actions, divisors, facets)
            gk = 6
        facts[key] = {"path": path, "rank": n, "actions": expected, "kinds": kinds, "gk": gk}
    queries = []
    for key, command in UNIPOTENT_DECK:
        fact = facts[key]
        names = list(fact["actions"])
        divisors = [d for d in _COMMAND_DIVISORS[command] if d in fact["kinds"]]
        argv = [command, fact["path"]]
        for a in names:
            argv += ["--auto", a]
        for d in divisors:
            argv += ["--divisor", d]
        if command in ("chi", "growth"):
            argv += ["--mmax", "8"]
        queries.append(
            {
                "argv": argv,
                "slot": len(queries),
                "input": fact["path"],
                "rank": fact["rank"],
                "queries": len(names) * len(divisors),
                "expect": {
                    "actions": fact["actions"],
                    "kinds": fact["kinds"],
                    "gk": fact["gk"],
                },
            }
        )
    return docs, queries


# ---------------------------------------------------------------- catalog_cli inputs

CATALOG = ("abelian_square", "p1", "p2", "pn", "wehler_k3")

# Per entry: actions with their classification, ample divisors, and
# anti-ample divisors (never sigma-ample). Values restate the README.
CATALOG_FACTS = {
    "wehler_k3": {
        "actions": {
            "id": {"quasi_unipotent": True, "unipotent_power": 1, "jordan_index": 0},
            "s1": {"quasi_unipotent": True, "unipotent_power": 2, "jordan_index": 0},
            "s2": {"quasi_unipotent": True, "unipotent_power": 2, "jordan_index": 0},
            "s1s2": {"quasi_unipotent": False, "char_poly": "x^2-14x+1"},
        },
        "ample": ("H1", "H2", "H1plusH2"),
        "anti": ("minusH1",),
    },
    "abelian_square": {
        "actions": {
            "id": {"quasi_unipotent": True, "unipotent_power": 1, "jordan_index": 0},
            "shear": {"quasi_unipotent": True, "unipotent_power": 1, "jordan_index": 2},
            "swap": {"quasi_unipotent": True, "unipotent_power": 2, "jordan_index": 0},
        },
        "ample": ("D111",),
        "anti": ("minusD",),
    },
    "p1": {"actions": {"id": {"quasi_unipotent": True, "unipotent_power": 1, "jordan_index": 0}},
           "ample": ("D",), "anti": ("minusD",)},
    "p2": {"actions": {"id": {"quasi_unipotent": True, "unipotent_power": 1, "jordan_index": 0}},
           "ample": ("D",), "anti": ("minusD",)},
    "pn": {"actions": {"id": {"quasi_unipotent": True, "unipotent_power": 1, "jordan_index": 0}},
           "ample": ("D",), "anti": ("minusD",)},
}

CATALOG_COMMANDS = ("validate", "classify", "sigma-ample", "gkdim", "growth", "chi", "catalog")
CATALOG_DECK_LEN = 70


def _subset(rng: random.Random, items, size: int) -> list:
    items = list(items)
    return sorted(rng.sample(items, min(size, len(items))))


def catalog_inputs(rng: random.Random, workdir: str) -> tuple[dict, list[dict]]:
    """Every subcommand on every catalog entry, with small seeded batches.
    Commands, entries and batch sizes follow a fixed rotation so that each
    run has the same mix; the seed picks the batch members and series
    lengths."""
    queries = []
    for i in range(CATALOG_DECK_LEN):
        command = CATALOG_COMMANDS[i % len(CATALOG_COMMANDS)]
        entry = CATALOG[(i // len(CATALOG_COMMANDS) + i) % len(CATALOG)]
        facts = CATALOG_FACTS[entry]
        n_autos, n_divs = 1 + i % 3, 1 + (i // 3) % 2
        argv, count = [command, entry], 1
        if command == "catalog":
            argv = ["catalog", "list"] if i % 2 else ["catalog", "show", entry]
        elif command == "classify":
            autos = _subset(rng, facts["actions"], n_autos)
            argv += [x for a in autos for x in ("--auto", a)]
            count = len(autos)
        elif command != "validate":
            qu = [a for a, f in facts["actions"].items() if f["quasi_unipotent"]]
            n_autos = min(n_autos, 2)
            if command == "sigma-ample":
                autos = _subset(rng, facts["actions"], n_autos)
                divs = _subset(rng, facts["ample"] + facts["anti"], n_divs)
            elif command == "growth":
                autos = _subset(rng, facts["actions"], n_autos)
                divs = _subset(rng, facts["ample"], n_divs)
            elif command == "gkdim":
                autos = _subset(rng, qu, n_autos)
                divs = _subset(rng, facts["ample"], n_divs)
            else:
                autos = _subset(rng, facts["actions"], n_autos)
                divs = _subset(rng, facts["ample"] + facts["anti"], n_divs)
            argv += [x for a in autos for x in ("--auto", a)]
            argv += [x for d in divs for x in ("--divisor", d)]
            if command in ("chi", "growth"):
                argv += ["--mmax", str(rng.randint(4, 12))]
            count = len(autos) * len(divs)
        kinds = {d: "ample" for d in facts["ample"]} | {d: "never" for d in facts["anti"]}
        expect = {"actions": facts["actions"], "kinds": kinds}
        queries.append({"argv": argv, "slot": i, "input": entry, "rank": None, "queries": count, "expect": expect})
    return {}, queries
