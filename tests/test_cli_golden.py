"""Byte-for-byte replay of recorded CLI output.

``golden_cli.json`` holds the stdout, stderr and exit code of ``cli.main``
for every subcommand on every catalog entry, in both output formats, plus
the parse, unknown-name and precondition error cases. A refactor that keeps
behaviour must reproduce every record exactly.

To re-record after an intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _input_files() -> dict[str, str]:
    """Scheme files the error cases read, by relative name."""
    from sigmaample.catalog import catalog_entry
    from sigmaample.schemefile import serialize_scheme_file

    wehler = json.loads(serialize_scheme_file(catalog_entry("wehler_k3")))
    bad_action = json.loads(json.dumps(wehler))
    bad_action["automorphisms"].append({"name": "double", "matrix": [["2", "0"], ["0", "2"]]})
    no_todd = json.loads(json.dumps(wehler))
    no_todd["components"][0]["todd"] = None
    no_todd.pop("euler_char")
    two_oracles = json.loads(json.dumps(wehler))
    two_oracles["oracles"].append(
        {
            "name": "extra",
            "kind": "surface_positive_cone",
            "data": {"component": "X", "reference_ample": ["1", "0"], "obstructions": []},
        }
    )
    return {
        "bad_action.json": json.dumps(bad_action),
        "no_todd.json": json.dumps(no_todd),
        "two_oracles.json": json.dumps(two_oracles),
        "broken.json": '{"rank": 2,,}',
    }


def _queries() -> list[list[str]]:
    from sigmaample.catalog import catalog_entry, catalog_names

    out: list[list[str]] = [["catalog", "list"]]
    for name in catalog_names():
        sf = catalog_entry(name)
        out.append(["validate", name])
        out.append(["catalog", "show", name])
        for aname in sf.automorphisms:
            out.append(["classify", name, "--auto", aname])
            for dname in sf.divisors:
                pair = [name, "--auto", aname, "--divisor", dname]
                for command in ("sigma-ample", "gkdim", "growth", "chi"):
                    out.append([command, *pair])
        batch = [name]
        for aname in sf.automorphisms:
            batch += ["--auto", aname]
        for dname in sf.divisors:
            batch += ["--divisor", dname]
        out.append(["sigma-ample", *batch])
    out += [
        ["classify", "wehler_k3", "--auto", "s1s2", "--eps", "1/1000000000000"],
        ["chi", "abelian_square", "--auto", "shear", "--divisor", "D111", "--mmax", "3"],
        ["growth", "wehler_k3", "--auto", "s1s2", "--divisor", "H1plusH2", "--mmax", "4"],
        # exit 2: parse and validation errors
        ["validate", "bad_action.json"],
        ["classify", "bad_action.json", "--auto", "s1"],
        ["validate", "broken.json"],
        # exit 3: unknown names
        ["classify", "no_such_entry", "--auto", "id"],
        ["classify", "wehler_k3", "--auto", "zeta"],
        ["sigma-ample", "wehler_k3", "--auto", "s1", "--divisor", "nope"],
        ["catalog", "show", "nope"],
        ["catalog", "show"],
        ["sigma-ample", "two_oracles.json", "--auto", "s1", "--divisor", "H1"],
        ["sigma-ample", "two_oracles.json", "--auto", "s1", "--divisor", "H1", "--oracle", "extra"],
        # exit 4: precondition failures
        ["classify", "wehler_k3", "--auto", "s1s2", "--eps", "0"],
        ["chi", "no_todd.json", "--auto", "id", "--divisor", "H1"],
        ["chi", "wehler_k3", "--auto", "id", "--divisor", "H1", "--mmax", "0"],
    ]
    return [[fmt, *q] for q in out for fmt in ("text", "structured")]


def _run(argv: list[str]) -> dict:
    from sigmaample.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", *argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@contextlib.contextmanager
def _in_directory_with_inputs(directory: Path):
    for name, text in _input_files().items():
        (directory / name).write_text(text, encoding="utf-8")
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _records() -> list[dict]:
    # absent only while re-recording; the coverage test then fails
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_current_query_list():
    assert [r["argv"] for r in _records()] == _queries()


@pytest.mark.parametrize("record", _records(), ids=lambda r: " ".join(r["argv"]))
def test_cli_output_matches_golden(record, tmp_path):
    with _in_directory_with_inputs(tmp_path):
        assert _run(record["argv"]) == record


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, _in_directory_with_inputs(Path(tmp)):
        records = [_run(argv) for argv in _queries()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
