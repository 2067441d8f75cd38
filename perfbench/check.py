"""Independent checks of the CLI's structured output.

Nothing here imports ``sigmaample``. Characteristic polynomials and
cyclotomic factors come from sympy, spectral radii from numpy, and every
lattice quantity (partial sums, oracle inequalities, Euler characteristics,
intersection polynomials) from direct integer and ``Fraction`` arithmetic on
the scheme documents. Only the keys the program emitted at the time this
benchmark was written are compared, so added fields never count as failures.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, lcm

from gen import CATALOG, identity, mat_mul, mat_vec

# ---------------------------------------------------------------- catalog documents


def _entries(table: dict) -> list[dict]:
    return [{"index": list(k), "value": str(v)} for k, v in sorted(table.items())]


def _doc(rank, dim, top, todd, euler, oracle, actions, divisors, comp="X") -> dict:
    return {
        "rank": rank,
        "components": [
            {"name": comp, "dim": dim, "top_form": _entries(top), "todd": [_entries(t) for t in todd]}
        ],
        "euler_char": euler,
        "oracles": [oracle],
        "automorphisms": [
            {"name": n, "matrix": [[str(c) for c in row] for row in m], "todd_invariant": True}
            for n, m in actions.items()
        ],
        "divisors": [{"name": n, "coords": [str(c) for c in v]} for n, v in divisors.items()],
    }


def _cone(reference) -> dict:
    return {
        "name": "ample",
        "kind": "surface_positive_cone",
        "data": {"component": "X", "reference_ample": [str(c) for c in reference], "obstructions": []},
    }


_POINT = {"name": "ample", "kind": "polyhedral", "data": {"facets": [["1"]]}}
_ID1 = {"id": [[1]]}
_D1 = {"D": [1], "minusD": [-1]}
_WEHLER_TOP = {(0, 0): 2, (0, 1): 4, (1, 1): 2}
_ABELIAN_TOP = {(0, 1): 1, (0, 2): 1, (1, 2): 1}

# The catalog as the README describes it.
CATALOG_DOCS = {
    "wehler_k3": _doc(
        2, 2, _WEHLER_TOP, [{(): 2}, {}, _WEHLER_TOP], "2", _cone([1, 1]),
        {"id": identity(2), "s1": [[1, 4], [0, -1]], "s2": [[-1, 0], [4, 1]], "s1s2": [[15, 4], [-4, -1]]},
        {"H1": [1, 0], "H2": [0, 1], "H1plusH2": [1, 1], "minusH1": [-1, 0]},
    ),
    "abelian_square": _doc(
        3, 2, _ABELIAN_TOP, [{}, {}, _ABELIAN_TOP], "0", _cone([1, 1, 1]),
        {
            "id": identity(3),
            "shear": [[2, 0, 1], [2, 1, 0], [-1, 0, 0]],
            "swap": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        },
        {"D111": [1, 1, 1], "fiber1": [1, 0, 0], "fiber2": [0, 1, 0], "diag": [0, 0, 1], "minusD": [-1, -1, -1]},
    ),
    "p1": _doc(1, 1, {(0,): 1}, [{(): 1}, {(0,): 1}], "1", _POINT, _ID1, _D1, comp="C"),
    "p2": _doc(1, 2, {(0, 0): 1}, [{(): 1}, {(0,): Fraction(3, 2)}, {(0, 0): 1}], "1", _POINT, _ID1, _D1),
    "pn": _doc(
        1, 3, {(0, 0, 0): 1},
        [{(): 1}, {(0,): Fraction(11, 6)}, {(0, 0): 2}, {(0, 0, 0): 1}], "1", _POINT, _ID1, _D1,
    ),
}

# chi(O(k)) on the projective spaces, as the README states it.
README_CHI = {
    "p1": lambda k: Fraction(k + 1),
    "p2": lambda k: Fraction((k + 1) * (k + 2), 2),
    "pn": lambda k: Fraction((k + 3) * (k + 2) * (k + 1), 6),
}
README_GK = {("abelian_square", "shear"): 5}

# ---------------------------------------------------------------- scheme model


class Scheme:
    """Just enough of a parsed scheme document to recompute every answer."""

    def __init__(self, doc: dict):
        self.rank = doc["rank"]
        self.components = []
        for comp in doc["components"]:
            top = self._table(comp["top_form"])
            todd = None if comp.get("todd") is None else [self._table(t) for t in comp["todd"]]
            self.components.append((comp["dim"], top, todd))
        self.oracle = doc["oracles"][0]
        self.actions = {a["name"]: [[int(c) for c in row] for row in a["matrix"]] for a in doc["automorphisms"]}
        self.divisors = {d["name"]: [Fraction(c) for c in d["coords"]] for d in doc["divisors"]}

    @staticmethod
    def _table(entries) -> dict:
        return {tuple(e["index"]): Fraction(e["value"]) for e in entries}

    def oracle_values(self, x: list) -> list:
        data = self.oracle["data"]
        if self.oracle["kind"] == "polyhedral":
            return [sum(int(c) * v for c, v in zip(f, x)) for f in data["facets"]]
        top = next(t for d, t, _ in self.components if d == 2)
        others = [[Fraction(c) for c in data["reference_ample"]]]
        others += [[Fraction(c) for c in o] for o in data["obstructions"]]
        return [bilinear(top, x, x)] + [bilinear(top, x, y) for y in others]

    def ample(self, x: list) -> bool:
        return all(v > 0 for v in self.oracle_values(x))

    def chi(self, x: list) -> Fraction:
        return sum(
            (self_power(t, x) / factorial(j) for _, _, todd in self.components for j, t in enumerate(todd)),
            Fraction(0),
        )


def bilinear(table: dict, x: list, y: list) -> Fraction:
    total = Fraction(0)
    for (i, j), v in table.items():
        total += v * (x[i] * y[j] + x[j] * y[i]) if i != j else v * x[i] * y[i]
    return total


def self_power(table: dict, x: list) -> Fraction:
    """T(x, ..., x) from the non-decreasing index table, each entry weighted
    by the number of distinct orderings of its index."""
    total = Fraction(0)
    for index, v in table.items():
        weight = factorial(len(index))
        for i in set(index):
            weight //= factorial(index.count(i))
        term = v * weight
        for i in index:
            term *= x[i]
        total += term
    return total


def mat_pow(m: list[list[int]], k: int) -> list[list[int]]:
    out = identity(len(m))
    while k:
        if k & 1:
            out = mat_mul(out, m)
        m, k = mat_mul(m, m), k >> 1
    return out


def partial_sums(m: list[list[int]], d: list, count: int) -> list[list]:
    """[D, D + MD, ..., D + MD + ... + M^(count-1) D]."""
    out, total, current = [], [Fraction(0)] * len(d), list(d)
    for _ in range(count):
        total = [a + b for a, b in zip(total, current)]
        out.append(total)
        current = mat_vec(m, current)
    return out


def poly_degree(values: list) -> int | None:
    """Degree of the polynomial through values at consecutive integers,
    assuming there are at least degree + 2 of them; None for zero."""
    diffs, degree = list(values), None
    for k in range(len(values)):
        if any(diffs):
            degree = k
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return degree


# ---------------------------------------------------------------- spectral facts


class Spectral:
    """sympy and numpy facts about each matrix, computed once."""

    def __init__(self):
        import numpy
        import sympy

        self.np, self.sp = numpy, sympy
        self.x = sympy.Symbol("x")
        self.cache: dict = {}

    def facts(self, m: list[list[int]]) -> dict:
        key = tuple(map(tuple, m))
        if key in self.cache:
            return self.cache[key]
        sp = self.sp
        poly = sp.Matrix(m).charpoly(self.x)
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        orders, quasi = [], True
        for factor, _ in sp.factor_list(poly.as_expr())[1]:
            f = sp.Poly(factor, self.x)
            if not f.is_cyclotomic:
                quasi = False
                break
            d = f.degree()
            orders.append(next(k for k in range(1, 2 * d * d + 3) if sp.Poly(sp.cyclotomic_poly(k, self.x), self.x) == f))
        out = {"coefficients": coeffs, "quasi_unipotent": quasi}
        if quasi:
            q = lcm(*orders)
            nil = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(mat_pow(m, q), identity(len(m)))]
            power, jordan = nil, 0
            while any(any(row) for row in power):
                power, jordan = mat_mul(power, nil), jordan + 1
            out.update(unipotent_power=q, jordan_index=jordan)
        else:
            out["rho"] = float(max(abs(self.np.linalg.eigvals(self.np.array(m, dtype=float)))))
        self.cache[key] = out
        return out


def _radius_failures(iv: dict, rho: float, eps: Fraction) -> list[str]:
    lo, hi = Fraction(iv["lo"]), Fraction(iv["hi"])
    tol = 1e-9 * rho
    out = []
    if not (float(lo) - tol <= rho <= float(hi) + tol):
        out.append(f"numpy radius {rho} outside [{float(lo)}, {float(hi)}]")
    if hi - lo > eps or lo <= 1:
        out.append(f"enclosure [{lo}, {hi}] wider than {eps} or not above 1")
    return out


def _encloses_7_plus_4_sqrt3(iv: dict) -> bool:
    lo, hi = Fraction(iv["lo"]) - 7, Fraction(iv["hi"]) - 7
    return (lo <= 0 or lo * lo <= 48) and hi > 0 and hi * hi >= 48


# ---------------------------------------------------------------- per-command checks


class Checker:
    def __init__(self, docs: dict):
        self.schemes = {name: Scheme(doc) for name, doc in {**CATALOG_DOCS, **docs}.items()}
        self.spectral = Spectral()

    def check(self, query: dict, code: int, stdout: str) -> list[str]:
        """Failures of one invocation; empty when every answer checks out."""
        if code != 0:
            return [f"exit code {code}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"unparsable output: {exc}"]
        command = query["argv"][0]
        if command == "catalog":
            return self._catalog(query, doc)
        scheme = self.schemes[query["input"]]
        if command == "validate":
            return [] if doc.get("valid") is True else ["validate reports the input invalid"]
        expect = query["expect"]
        autos = _flag(query["argv"], "--auto")
        if command == "classify":
            names = autos
        else:
            names = [(a, d) for a in autos for d in _flag(query["argv"], "--divisor")]
        results = doc.get("results", [])
        if len(results) != len(names):
            return [f"{len(results)} results for {len(names)} queries"]
        failures = []
        for name, result in zip(names, results):
            handler = getattr(self, "_" + command.replace("-", "_"))
            try:
                failures += [f"{command} {name}: {f}" for f in handler(query, scheme, expect, name, result)]
            except (KeyError, TypeError, ValueError) as exc:
                failures.append(f"{command} {name}: malformed result ({exc!r})")
        return failures

    def _action_facts(self, scheme, expect, name) -> tuple[list, dict, dict]:
        m = scheme.actions[name]
        return m, self.spectral.facts(m), expect["actions"][name]

    def _classify(self, query, scheme, expect, name, r):
        m, facts, promised = self._action_facts(scheme, expect, name)
        out = []
        if r["action"] != name:
            out.append(f"action {r['action']}")
        if [int(c) for c in r["char_poly"]["coefficients"]] != facts["coefficients"]:
            out.append("char poly differs from sympy")
        if "char_poly" in promised and r["char_poly"]["text"] != promised["char_poly"]:
            out.append(f"char poly text {r['char_poly']['text']}")
        if r["quasi_unipotent"] != facts["quasi_unipotent"] or r["quasi_unipotent"] != promised["quasi_unipotent"]:
            return out + ["quasi-unipotence disagrees with the cyclotomic factorisation"]
        if facts["quasi_unipotent"]:
            for key in ("unipotent_power", "jordan_index"):
                if r[key] != facts[key] or r[key] != promised.get(key, facts[key]):
                    out.append(f"{key} {r[key]}, expected {facts[key]}")
            if r["jordan_index_even"] != (r["jordan_index"] % 2 == 0):
                out.append("jordan parity flag")
        else:
            out += _radius_failures(r["spectral_radius"], facts["rho"], _eps(query["argv"]))
            if promised.get("char_poly") == "x^2-14x+1" and not _encloses_7_plus_4_sqrt3(r["spectral_radius"]):
                out.append("enclosure misses 7 + 4 sqrt 3")
        return out

    def _sigma_ample(self, query, scheme, expect, pair, r):
        aname, dname = pair
        m, facts, _ = self._action_facts(scheme, expect, aname)
        d = scheme.divisors[dname]
        if (r["action"], r["divisor"]) != pair:
            return ["result order"]
        if not facts["quasi_unipotent"]:
            ok = not r["sigma_ample"] and r["reason"] == "not-quasi-unipotent"
            return [] if ok else ["expected not-quasi-unipotent"]
        q = facts["unipotent_power"]
        if r["unipotent_power"] != q:
            return [f"unipotent power {r['unipotent_power']}, expected {q}"]
        summed = partial_sums(m, d, q)[-1]
        reduced = mat_pow(m, q)
        out = []
        trace = r["reduction"]
        if [Fraction(c) for c in trace["summed_divisor"]] != summed:
            out.append("summed divisor")
        if [[Fraction(c) for c in s] for s in trace["partial_sums"]] != partial_sums(reduced, summed, 3):
            out.append("reduced partial sums")
        if expect["kinds"][dname] == "never":
            if r["sigma_ample"] or r["reason"] != "no-ample-partial-sum":
                out.append("expected no ample partial sum")
            return out
        if not r["sigma_ample"]:
            return out + ["expected sigma-ample"]
        w = r["witness"]
        sums = partial_sums(reduced, summed, w)
        if not scheme.ample(sums[-1]):
            out.append(f"witness {w} is not ample")
        if w > 1 and scheme.ample(sums[-2]):
            out.append(f"witness {w} is not minimal: m-1 is ample")
        return out

    def _intersection_degrees(self, scheme, m, d, power):
        """Per component, (degree, values at m = 1..K) of the self-intersection
        of the partial sums of the power-th reduction."""
        reduced = mat_pow(m, power)
        summed = partial_sums(m, d, power)[-1]
        nil = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(reduced, identity(len(m)))]
        jordan, p = 0, nil
        while any(any(row) for row in p):
            p, jordan = mat_mul(p, nil), jordan + 1
        out = []
        for dim, top, _ in scheme.components:
            count = dim * (jordan + 1) + 2
            values = [self_power(top, s) for s in partial_sums(reduced, summed, count)]
            out.append((poly_degree(values), values))
        return out

    def _gkdim(self, query, scheme, expect, pair, r):
        aname, dname = pair
        m, facts, _ = self._action_facts(scheme, expect, aname)
        d = scheme.divisors[dname]
        power = r["reduced_power"]
        if power % facts["unipotent_power"]:
            return [f"reduced power {power} is not a multiple of q"]
        expansions = self._intersection_degrees(scheme, m, d, power)
        out = []
        for comp, (degree, values) in zip(r["components"], expansions):
            if comp["degree"] != degree:
                out.append(f"component degree {comp['degree']}, expected {degree}")
            coeffs = [Fraction(c) for c in comp["monomial_coefficients"]]
            got = [sum(c * k**i for i, c in enumerate(coeffs)) for k in range(1, len(values) + 1)]
            if got != values:
                out.append("component polynomial differs from direct partial sums")
        gk = max(deg for deg, _ in expansions if deg is not None) + 1
        promised = README_GK.get((query["input"], aname), expect.get("gk") or gk)
        if r["gk_dimension"] != gk or gk != promised or r["hilbert_degree"] != gk - 1:
            out.append(f"GK {r['gk_dimension']}, expected {gk} (promised {promised})")
        return out

    def _chi_values(self, scheme, m, d, count) -> list[Fraction]:
        return [scheme.chi(s) for s in partial_sums(m, d, count)]

    def _chi(self, query, scheme, expect, pair, r):
        aname, dname = pair
        m, d = scheme.actions[aname], scheme.divisors[dname]
        mmax = int(_flag(query["argv"], "--mmax")[0])
        want = self._chi_values(scheme, m, d, mmax)
        out = []
        if [Fraction(v) for v in r["values"]] != want:
            out.append("values differ from the Todd expansion")
        formula = README_CHI.get(query["input"])
        if formula and aname == "id":
            sign = int(d[0])
            if want != [formula(sign * k) for k in range(1, mmax + 1)]:
                out.append("values differ from the README formula")
        return out

    def _growth(self, query, scheme, expect, pair, r):
        aname, dname = pair
        m, facts, _ = self._action_facts(scheme, expect, aname)
        d = scheme.divisors[dname]
        mmax = int(_flag(query["argv"], "--mmax")[0])
        if facts["quasi_unipotent"]:
            if r["kind"] != "polynomial":
                return ["expected polynomial growth"]
            degrees = self._intersection_degrees(scheme, m, d, facts["unipotent_power"])
            gk = max(deg for deg, _ in degrees if deg is not None) + 1
            promised = README_GK.get((query["input"], aname), expect.get("gk") or gk)
            if r["gk_dimension"] != gk or gk != promised or r["hilbert_degree"] != gk - 1:
                return [f"GK {r['gk_dimension']}, expected {gk}"]
            return []
        if r["kind"] != "exponential":
            return ["expected exponential growth"]
        out = _radius_failures(r["spectral_radius"], facts["rho"], _eps(query["argv"]))
        series = self._chi_values(scheme, m, d, mmax + 1)
        if [Fraction(x) for x in r["ratios"]] != [b / a for a, b in zip(series, series[1:])]:
            out.append("chi ratios differ")
        if r["threshold_exceeded"] != (sum(series[:mmax]) > Fraction(1001, 1000) ** mmax):
            out.append("threshold flag")
        return out

    def _catalog(self, query, doc) -> list[str]:
        if query["argv"][1] == "list":
            return [] if doc.get("entries") == sorted(CATALOG) else ["catalog list"]
        name = query["argv"][2]
        return [] if subset_equal(CATALOG_DOCS[name], doc.get("document")) else [f"catalog show {name}"]


def _eps(argv: list[str]) -> Fraction:
    return Fraction((_flag(argv, "--eps") or ["1/1000"])[0])


def _flag(argv: list[str], flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def subset_equal(expected, actual) -> bool:
    """True when ``actual`` has every key of ``expected`` with an equal value."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(k in actual and subset_equal(v, actual[k]) for k, v in expected.items())
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) and all(
            subset_equal(a, b) for a, b in zip(expected, actual)
        )
    return expected == actual
