"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is pinned here exactly as stated; the comparisons themselves
are exact rational arithmetic throughout.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from sigmaample import engine
from sigmaample.ampleness import is_ample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.cli import main
from sigmaample.intmat import mat_pow, quasi_unipotence
from sigmaample.lattice import AutomorphismAction, DivisorClass, apply, validate

from conftest import delta_symbolic, nilpotent_steps, random_divisors

RADIUS_TARGET = Fraction(139282, 10000)  # 13.9282
RADIUS_SLACK = Fraction(1, 1000)  # the +-0.001 window around the target


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


def cli_json(*argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--format", "structured", *argv])
    return code, json.loads(buffer.getvalue())


def contains_7_plus_4_sqrt3(lo: Fraction, hi: Fraction) -> bool:
    """Exact check that lo <= 7 + 4 sqrt(3) <= hi."""
    below = lo <= 7 or (lo - 7) ** 2 <= 48
    above = hi >= 7 and (hi - 7) ** 2 >= 48
    return below and above


def test_criterion_1_wehler_non_quasi_unipotence():
    with criterion(1, "wehler composite is not quasi-unipotent"):
        code, doc = cli_json("classify", "wehler_k3", "--auto", "s1s2")
        assert code == 0
        (result,) = doc["results"]
        assert result["quasi_unipotent"] is False
        assert result["char_poly"]["text"] == "x^2-14x+1"
        assert result["char_poly"]["coefficients"] == ["1", "-14", "1"]
        lo = Fraction(result["spectral_radius"]["lo"])
        hi = Fraction(result["spectral_radius"]["hi"])
        assert hi - lo <= Fraction(1, 1000)
        assert contains_7_plus_4_sqrt3(lo, hi)
        # the whole interval sits inside 13.9282 +- 0.001
        assert RADIUS_TARGET - RADIUS_SLACK <= lo and hi <= RADIUS_TARGET + RADIUS_SLACK


def test_criterion_2_sigma_ample_existence():
    with criterion(2, "sigma-ample existence and refusal"):
        code, doc = cli_json(
            "sigma-ample", "wehler_k3", "--auto", "s1", "--divisor", "H1"
        )
        assert code == 0
        (result,) = doc["results"]
        assert result["sigma_ample"] is True
        assert result["witness"] == 1 and result["unipotent_power"] == 2
        # minimality cross-check on the concrete reduced sums
        wehler = catalog_entry("wehler_k3")
        reduced_matrix = mat_pow(wehler.action("s1").matrix, 2)
        reduced = engine.partial_sum(wehler.action("s1").matrix, wehler.divisor("H1"), 2)
        assert is_ample(
            wehler.oracle(), engine.partial_sum(reduced_matrix, reduced, result["witness"])
        )

        code, doc = cli_json(
            "sigma-ample", "wehler_k3", "--auto", "s1s2", "--divisor", "H1"
        )
        assert code == 0
        (result,) = doc["results"]
        assert result["sigma_ample"] is False
        assert result["reason"] == "not-quasi-unipotent"


def test_criterion_3_gk_dimension_identity_like():
    with criterion(3, "GK dimension for identity-like actions"):
        expected = {
            ("p1", "id", "D"): 2,
            ("p2", "id", "D"): 3,
            ("wehler_k3", "s1", "H1"): 3,
        }
        for (entry, auto, divisor), value in expected.items():
            code, doc = cli_json("gkdim", entry, "--auto", auto, "--divisor", divisor)
            assert code == 0
            assert doc["results"][0]["gk_dimension"] == value, (entry, doc)


def _newton_interpolation(values):
    """Finite-difference interpolation oracle: (degree, leading, table).

    ``values`` are samples at m = 0, 1, 2, ...; returns the exact degree and
    leading monomial coefficient of the unique interpolating polynomial,
    provided enough samples are given for the differences to vanish.
    """
    table = [list(map(Fraction, values))]
    while any(table[-1]):
        row = table[-1]
        table.append([b - a for a, b in zip(row, row[1:])])
    degree = len(table) - 2
    if degree < 0:
        return None, None
    factorial = 1
    for i in range(1, degree + 1):
        factorial *= i
    return degree, table[degree][0] / factorial


def test_criterion_4_gk_dimension_shear_surface():
    with criterion(4, "GK dimension 5 for the unipotent shear surface"):
        code, doc = cli_json(
            "gkdim", "abelian_square", "--auto", "shear", "--divisor", "D111"
        )
        assert code == 0
        (result,) = doc["results"]
        assert result["gk_dimension"] == 5
        comp = result["components"][0]
        assert comp["degree"] == 4
        assert Fraction(comp["leading"]) == Fraction(2, 3)

        # independent brute-force oracle: sample the concrete self-intersection
        # numbers of the partial sums and interpolate by finite differences
        ab = catalog_entry("abelian_square")
        shear = ab.action("shear").matrix
        component = ab.scheme.components[0]
        values = []
        for m in range(0, 10):
            delta = engine.partial_sum(shear, ab.divisor("D111"), m)
            values.append(component.top_form.evaluate([delta.coords, delta.coords]))
        degree, leading = _newton_interpolation(values)
        assert degree == 4
        assert leading == Fraction(2, 3)
        # and the engine polynomial evaluates to the sampled values
        engine_poly = [Fraction(c) for c in comp["monomial_coefficients"]]
        for m, v in enumerate(values):
            acc = Fraction(0)
            for c in reversed(engine_poly):
                acc = acc * m + c
            assert acc == v


def test_criterion_5_even_index_and_vanishing():
    with criterion(5, "even Jordan index and vanishing expansion terms"):
        violations = 0
        for name in catalog_names():
            sf = catalog_entry(name)
            for action in sf.automorphisms.values():
                cls = engine.classify(action.matrix)
                if not cls.quasi_unipotent:
                    continue
                if cls.jordan_index % 2 != 0:
                    violations += 1
                unipotent = mat_pow(action.matrix, cls.unipotent_power)
                k = cls.jordan_index
                for comp in sf.scheme.components:
                    cutoff = k * (comp.dim - 1)
                    for d in random_divisors(sf.scheme.rank, 100, seed=101):
                        steps = nilpotent_steps(unipotent, d)
                        for combo in product(range(k + 1), repeat=comp.dim):
                            if sum(combo) > cutoff:
                                if comp.top_form.evaluate(
                                    [steps[i].coords for i in combo]
                                ) != 0:
                                    violations += 1
        assert violations == 0


def test_criterion_6_exponential_growth():
    with criterion(6, "exponential growth of the composite-twisted series"):
        code, doc = cli_json(
            "growth",
            "wehler_k3",
            "--auto",
            "s1s2",
            "--divisor",
            "H1plusH2",
            "--mmax",
            "12",
        )
        assert code == 0
        (result,) = doc["results"]
        assert result["kind"] == "exponential"
        ratios = [Fraction(r) for r in result["ratios"]]
        assert len(ratios) == 12
        for m in (10, 11, 12):
            ratio = ratios[m - 1]  # ratios[i] = chi_{i+2} / chi_{i+1}
            assert abs(ratio - RADIUS_TARGET) <= Fraction(2, 100) * RADIUS_TARGET, m
        assert result["threshold_exceeded"] is True
        # recompute the root statistic exactly from the chi series
        wehler = catalog_entry("wehler_k3")
        series = engine.euler_char_series(
            wehler.scheme, wehler.action("s1s2"), wehler.divisor("H1plusH2"), 12
        )
        assert sum(series) > Fraction(1001, 1000) ** 12


def test_criterion_7_verdict_symmetries():
    with criterion(7, "inverse, nef-sum, and conjugation symmetries"):
        for name in catalog_names():
            sf = catalog_entry(name)
            oracle = sf.oracle()
            divisors = random_divisors(sf.scheme.rank, 100, seed=103)
            nef_pool = [
                d for d in divisors if all(v >= 0 for v in oracle.conditions(d.coords))
            ][:5]
            nef_pool.append(DivisorClass((0,) * sf.scheme.rank))
            for action in sf.automorphisms.values():
                inverse = AutomorphismAction(
                    "inv", action.matrix.inverse_unimodular()
                )
                assert validate(sf.scheme, inverse).valid
                taus = list(sf.automorphisms.values())
                for d in divisors:
                    verdict = engine.is_sigma_ample(sf.scheme, action, oracle, d)
                    # direction symmetry
                    mirrored = engine.is_sigma_ample(sf.scheme, inverse, oracle, d)
                    assert verdict.sigma_ample == mirrored.sigma_ample, (name, action.name, d)
                    # conjugation by every catalog isometry
                    for tau in taus:
                        conjugated = AutomorphismAction(
                            "conj",
                            tau.matrix * action.matrix * tau.matrix.inverse_unimodular(),
                        )
                        moved = engine.is_sigma_ample(
                            sf.scheme, conjugated, oracle, apply(tau, d)
                        )
                        assert verdict.sigma_ample == moved.sigma_ample, (
                            name,
                            action.name,
                            tau.name,
                            d,
                        )
                    # nef sums stay sigma-ample
                    if verdict.sigma_ample:
                        for extra in nef_pool:
                            summed = engine.is_sigma_ample(
                                sf.scheme, action, oracle, d + extra
                            )
                            assert summed.sigma_ample, (name, action.name, d, extra)


def test_criterion_8_symbolic_direct_agreement():
    with criterion(8, "symbolic partial sums match direct summation"):
        for name in catalog_names():
            sf = catalog_entry(name)
            for action in sf.automorphisms.values():
                q = quasi_unipotence(action.matrix)
                if q is None:
                    continue  # symbolic form requires the unipotent reduction
                unipotent = mat_pow(action.matrix, q)
                for divisor in sf.divisors.values():
                    family = delta_symbolic(unipotent, divisor)
                    for m in range(0, 26):
                        symbolic = DivisorClass.of(*(p.evaluate(m) for p in family))
                        direct = engine.partial_sum(unipotent, divisor, m)
                        assert symbolic == direct, (name, action.name, m)
