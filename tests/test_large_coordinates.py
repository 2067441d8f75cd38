"""Sigma-ampleness with divisor coordinates of 4 to 401 digits.

On ``abelian_square`` under the shear, the class (1, -N, 0) first has an
ample partial sum at a witness near sqrt(12 N), and (-1, -N, 0) never has
one, while the Cauchy bounds of the constraint polynomials grow like N. The
witness search and its concrete check therefore have to cost a number of
steps that depends on the degrees and on log w, not on N or w: the tests
count the candidates tested and the matrix products taken, and make no
wall-clock assertion. The witnesses for N up to 10^12 were checked against
the scan of every m up to the Cauchy bound.
"""
import json

import pytest

from sigmaample import engine, numpoly
from sigmaample.ampleness import symbolic_constraints
from sigmaample.cli import main
from sigmaample.intmat import IntegerMatrix, unipotent_reduction
from sigmaample.lattice import DivisorClass
from sigmaample.schemefile import serialize_scheme_file


@pytest.fixture
def work(abelian, monkeypatch):
    """Counters of the candidates tested, matrix products and column actions."""
    counts = {"candidates": 0, "products": 0, "column_actions": 0}
    unipotent_reduction(abelian.action("shear").matrix)  # not counted
    all_positive = numpoly._all_positive
    multiply, column_action = IntegerMatrix.__mul__, IntegerMatrix.column_action

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(numpoly, "_all_positive", counted("candidates", all_positive))
    monkeypatch.setattr(IntegerMatrix, "__mul__", counted("products", multiply))
    monkeypatch.setattr(IntegerMatrix, "column_action", counted("column_actions", column_action))
    return counts


def _verdict(abelian, *coords):
    return engine.is_sigma_ample(
        abelian.scheme, abelian.action("shear"), abelian.oracle(), DivisorClass.of(*coords)
    )


def _degree_sum(abelian, verdict) -> int:
    return sum(p.degree or 0 for p in symbolic_constraints(abelian.oracle(), verdict.family))


def test_wide_negative_class_has_no_ample_partial_sum(abelian, work):
    verdict = _verdict(abelian, -1, -10**6, 0)
    assert verdict.reason == "no-ample-partial-sum"
    assert work["candidates"] <= 2 + 2 * _degree_sum(abelian, verdict)
    assert work["products"] == 0


@pytest.mark.parametrize(
    "n, witness", [(10**3, 110), (10**4, 347), (10**12, 3464102)]
)
def test_wide_class_witness_and_work(abelian, work, n, witness):
    verdict = _verdict(abelian, 1, -n, 0)
    assert verdict.witness == witness
    assert work["candidates"] <= 2 + 2 * _degree_sum(abelian, verdict)
    # the concrete check doubles: O(log w) products and column actions
    assert work["products"] <= witness.bit_length()
    assert work["column_actions"] <= 2 * witness.bit_length()


def test_gk_profile_of_wide_sigma_ample_class(abelian):
    profile = engine.gk_profile(
        abelian.scheme, abelian.action("shear"), abelian.oracle(), DivisorClass.of(1, -10**12, 0)
    )
    assert profile.gk_dimension == 5
    assert profile.reduced_power == 3464102


def test_cli_decides_wide_classes(abelian, tmp_path, capsys):
    doc = json.loads(serialize_scheme_file(abelian))
    doc["divisors"] += [
        {"name": "wide", "coords": ["1", str(-10**12), "0"]},
        {"name": "negwide", "coords": ["-1", str(-10**12), "0"]},
    ]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    common = ["--format", "structured"]
    argv = ["sigma-ample", str(path), "--auto", "shear", "--divisor", "wide", "--divisor", "negwide"]
    assert main(common + argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r.get("witness") for r in results] == [3464102, None]
    assert results[1]["reason"] == "no-ample-partial-sum"
    assert main(common + ["gkdim", str(path), "--auto", "shear", "--divisor", "wide"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["gk_dimension"] == 5


def test_four_hundred_digit_coordinate(abelian, work):
    # the bisection depth grows with the digits (no recursion limit applies);
    # every constraint is positive at the witness and one fails just before
    verdict = _verdict(abelian, 1, -10**400, 0)
    w = verdict.witness
    constraints = symbolic_constraints(abelian.oracle(), verdict.family)
    assert all(p.evaluate(w) > 0 for p in constraints)
    assert not all(p.evaluate(w - 1) > 0 for p in constraints)
    assert work["candidates"] <= 2 + 2 * _degree_sum(abelian, verdict)
    assert work["products"] <= w.bit_length()
