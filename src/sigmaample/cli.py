"""Command-line interface.

Subcommands: validate, classify, sigma-ample, gkdim, growth, chi, catalog.
Inputs are scheme description files (JSON) or builtin catalog names; the
positional INPUT tries the filesystem first, then the catalog. Reports go to
stdout, text by default or canonical JSON with --format structured;
diagnostics go to stderr. Exit codes: 0 success, 2 parse or validation
error, 3 unknown name, 4 precondition failure.

--auto and --divisor may be repeated; the cartesian batch of queries is
evaluated serially and reported in input order. --jobs N is accepted for
compatibility and has no effect.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import engine
from .ampleness import action_stability_report, oracle_report
from .catalog import catalog_entry, catalog_names
from .errors import (
    InvalidSchemeData,
    MissingToddData,
    NotAmple,
    NotInvertibleOverIntegers,
    NotQuasiUnipotent,
    NotUnipotent,
    RankMismatch,
    SchemeParseError,
    UnknownName,
)
from .intmat import char_poly
from .lattice import scheme_consistency_report
from .lattice import validate as validate_action
from .numpoly import binomial_coefficients
from .schemefile import (
    SchemeFile,
    format_rational,
    parse_scheme_file,
    scheme_file_to_document,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNKNOWN_NAME = 3
EXIT_PRECONDITION = 4

_PRECONDITION_ERRORS = (
    NotAmple,
    MissingToddData,
    NotUnipotent,
    NotQuasiUnipotent,
    NotInvertibleOverIntegers,
    RankMismatch,
    ValueError,
)


def load_input(name_or_path: str, enforce_valid: bool = True) -> SchemeFile:
    """Resolve INPUT: an existing file path first, then a catalog name."""
    path = Path(name_or_path)
    if path.is_file():
        sf = parse_scheme_file(path.read_text(encoding="utf-8"))
    else:
        sf = catalog_entry(name_or_path)
    if enforce_valid:
        for action in sf.automorphisms.values():
            engine.require_valid(sf.scheme, action)
    return sf


def _interval_json(iv) -> dict:
    return {"lo": format_rational(iv.lo), "hi": format_rational(iv.hi)}


def _poly_json(poly) -> dict:
    return {
        "monomial_coefficients": [format_rational(c) for c in poly.coeffs],
        "binomial_coefficients": [format_rational(c) for c in binomial_coefficients(poly)],
    }


def _report_json(check) -> dict:
    return {"name": check.name, "passed": check.passed, "detail": check.detail}


def cmd_validate(args) -> tuple[dict, int]:
    sf = load_input(args.input, enforce_valid=False)
    reports = {
        name: validate_action(sf.scheme, action) for name, action in sf.automorphisms.items()
    }
    actions = [
        {
            "name": name,
            "valid": report.valid,
            "checks": [_report_json(c) for c in report.checks],
        }
        for name, report in reports.items()
    ]
    oracles = []
    stability = []
    for name, oracle in sf.oracles.items():
        report = oracle_report(name, oracle, sf.scheme.rank)
        oracles.append(
            {
                "name": name,
                "valid": report.valid,
                "checks": [_report_json(c) for c in report.checks],
            }
        )
        for aname, action in sf.automorphisms.items():
            if not reports[aname].valid:
                continue
            sreport = action_stability_report(name, oracle, action)
            stability.append(
                {
                    "oracle": name,
                    "action": aname,
                    "valid": sreport.valid,
                    "checks": [_report_json(c) for c in sreport.checks],
                }
            )
    scheme_report = scheme_consistency_report(sf.scheme)
    scheme_entry = {
        "valid": scheme_report.valid,
        "checks": [_report_json(c) for c in scheme_report.checks],
    }
    valid = (
        all(a["valid"] for a in actions)
        and all(o["valid"] for o in oracles)
        and scheme_report.valid
    )
    doc = {
        "command": "validate",
        "input": args.input,
        "valid": valid,
        "scheme": scheme_entry,
        "actions": actions,
        "oracles": oracles,
        "cone_stability": stability,
    }
    return doc, EXIT_OK if valid else EXIT_PARSE


def _text_validate(doc) -> str:
    lines = [f"input {doc['input']}: {'valid' if doc['valid'] else 'INVALID'}"]
    for section in ("actions", "oracles"):
        for entry in doc[section]:
            status = "ok" if entry["valid"] else "FAILED"
            lines.append(f"  {section[:-1]} {entry['name']}: {status}")
            for check in entry["checks"]:
                if not check["passed"]:
                    lines.append(f"    {check['name']}: {check['detail']}")
    for entry in doc["cone_stability"]:
        status = "ok" if entry["valid"] else "FAILED"
        lines.append(f"  cone stability {entry['oracle']}/{entry['action']}: {status}")
    return "\n".join(lines)


def cmd_classify(args) -> tuple[dict, int]:
    sf = load_input(args.input)

    def one(name: str) -> dict:
        action = sf.action(name)
        poly = char_poly(action.matrix)
        result: dict = {
            "action": name,
            "char_poly": {
                "coefficients": [str(c) for c in poly.coeffs],
                "text": poly.format(),
            },
        }
        cls = engine.classify(action, args.eps)
        result["quasi_unipotent"] = cls.quasi_unipotent
        if cls.quasi_unipotent:
            result["unipotent_power"] = cls.unipotent_power
            result["jordan_index"] = cls.jordan_index
            result["jordan_index_even"] = cls.jordan_index % 2 == 0
        else:
            result["spectral_radius"] = _interval_json(cls.radius)
        return result

    results = [one(name) for name in args.auto]
    return {"command": "classify", "input": args.input, "results": results}, EXIT_OK


def _text_classify(doc) -> str:
    lines = []
    for r in doc["results"]:
        lines.append(f"action {r['action']}: char poly {r['char_poly']['text']}")
        if r["quasi_unipotent"]:
            parity = "even" if r["jordan_index_even"] else "odd (not geometrically realizable)"
            lines.append(
                f"  quasi-unipotent: unipotent power {r['unipotent_power']}, "
                f"jordan index {r['jordan_index']} ({parity})"
            )
        else:
            iv = r["spectral_radius"]
            mid = float(Fraction(iv["lo"]) + (Fraction(iv["hi"]) - Fraction(iv["lo"])) / 2)
            lines.append(
                f"  not quasi-unipotent: spectral radius in [{iv['lo']}, {iv['hi']}] (~{mid:.5f})"
            )
    return "\n".join(lines)


def _pairs(args) -> list[tuple[str, str]]:
    return [(a, d) for a in args.auto for d in args.divisor]


def _reduction_trace(family) -> dict:
    """The reduced partial sums at m = 1 (the summed divisor), 2 and 3."""
    sums = [[format_rational(p.evaluate(m)) for p in family] for m in range(1, 4)]
    return {"summed_divisor": sums[0], "partial_sums": sums}


def cmd_sigma_ample(args) -> tuple[dict, int]:
    sf = load_input(args.input)
    oracle = sf.oracle(args.oracle)

    def one(pair) -> dict:
        aname, dname = pair
        verdict = engine.is_sigma_ample(sf.scheme, sf.action(aname), oracle, sf.divisor(dname))
        result: dict = {"action": aname, "divisor": dname, "sigma_ample": verdict.sigma_ample}
        if verdict.sigma_ample:
            result["witness"] = verdict.witness
        else:
            result["reason"] = verdict.reason.value
        if verdict.unipotent_power is not None:
            result["unipotent_power"] = verdict.unipotent_power
            result["reduction"] = _reduction_trace(verdict.family)
        return result

    results = [one(pair) for pair in _pairs(args)]
    doc = {
        "command": "sigma-ample",
        "input": args.input,
        "oracle": args.oracle or next(iter(sf.oracles)),
        "results": results,
    }
    return doc, EXIT_OK


def _text_sigma_ample(doc) -> str:
    lines = []
    for r in doc["results"]:
        head = f"({r['action']}, {r['divisor']}):"
        if r["sigma_ample"]:
            lines.append(
                f"{head} sigma-ample, witness m={r['witness']} "
                f"after reduction to the power {r['unipotent_power']}"
            )
        else:
            lines.append(f"{head} not sigma-ample ({r['reason']})")
    return "\n".join(lines)


def cmd_gkdim(args) -> tuple[dict, int]:
    sf = load_input(args.input)
    oracle = sf.oracle(args.oracle)

    def one(pair) -> dict:
        aname, dname = pair
        profile = engine.gk_profile(sf.scheme, sf.action(aname), oracle, sf.divisor(dname))
        return {
            "action": aname,
            "divisor": dname,
            "gk_dimension": profile.gk_dimension,
            "hilbert_degree": profile.hilbert_degree,
            "reduced_power": profile.reduced_power,
            "components": [
                {
                    "name": comp.name,
                    "degree": comp.polynomial.degree,
                    "leading": None
                    if comp.polynomial.is_zero
                    else format_rational(comp.polynomial.leading),
                    **_poly_json(comp.polynomial),
                }
                for comp in profile.components
            ],
        }

    results = [one(pair) for pair in _pairs(args)]
    doc = {
        "command": "gkdim",
        "input": args.input,
        "oracle": args.oracle or next(iter(sf.oracles)),
        "results": results,
    }
    return doc, EXIT_OK


def _text_gkdim(doc) -> str:
    lines = []
    for r in doc["results"]:
        lines.append(f"({r['action']}, {r['divisor']}): GK dimension {r['gk_dimension']}")
        for comp in r["components"]:
            lines.append(
                f"  component {comp['name']}: degree {comp['degree']}, "
                f"leading {comp['leading']}, monomial {comp['monomial_coefficients']}"
            )
    return "\n".join(lines)


def cmd_growth(args) -> tuple[dict, int]:
    sf = load_input(args.input)
    oracle = sf.oracle(args.oracle)

    def one(pair) -> dict:
        aname, dname = pair
        report = engine.growth_report(
            sf.scheme, sf.action(aname), oracle, sf.divisor(dname), args.mmax, args.eps
        )
        result: dict = {"action": aname, "divisor": dname, "mmax": args.mmax}
        if isinstance(report, engine.PolynomialGrowth):
            result["kind"] = "polynomial"
            result["gk_dimension"] = report.gk_dimension
            result["hilbert_degree"] = report.hilbert_degree
        else:
            result["kind"] = "exponential"
            result["spectral_radius"] = _interval_json(report.radius)
            result["ratios"] = [format_rational(r) for r in report.ratio_samples]
            result["threshold_exceeded"] = report.threshold_exceeded
        return result

    results = [one(pair) for pair in _pairs(args)]
    doc = {
        "command": "growth",
        "input": args.input,
        "oracle": args.oracle or next(iter(sf.oracles)),
        "results": results,
    }
    return doc, EXIT_OK


def _text_growth(doc) -> str:
    lines = []
    for r in doc["results"]:
        head = f"({r['action']}, {r['divisor']}):"
        if r["kind"] == "polynomial":
            lines.append(
                f"{head} polynomial growth, GK dimension {r['gk_dimension']} "
                f"(Hilbert degree {r['hilbert_degree']})"
            )
        else:
            last = Fraction(r["ratios"][-1]) if r["ratios"] else None
            approx = f", last ratio ~{float(last):.5f}" if last is not None else ""
            lines.append(
                f"{head} exponential growth, radius {r['spectral_radius']['lo']} .. "
                f"{r['spectral_radius']['hi']}{approx}, "
                f"root statistic above 1.001: {r['threshold_exceeded']}"
            )
    return "\n".join(lines)


def cmd_chi(args) -> tuple[dict, int]:
    sf = load_input(args.input)

    def one(pair) -> dict:
        aname, dname = pair
        series = engine.euler_char_series(sf.scheme, sf.action(aname), sf.divisor(dname), args.mmax)
        return {
            "action": aname,
            "divisor": dname,
            "mmax": args.mmax,
            "values": [format_rational(v) for v in series],
        }

    results = [one(pair) for pair in _pairs(args)]
    return {"command": "chi", "input": args.input, "results": results}, EXIT_OK


def _text_chi(doc) -> str:
    lines = []
    for r in doc["results"]:
        lines.append(f"({r['action']}, {r['divisor']}): chi at m=1..{r['mmax']}:")
        lines.append("  " + " ".join(r["values"]))
    return "\n".join(lines)


def cmd_catalog(args) -> tuple[dict, int]:
    if args.action == "list":
        return {"command": "catalog", "entries": catalog_names()}, EXIT_OK
    sf = catalog_entry(args.name)
    return {
        "command": "catalog",
        "entry": args.name,
        "document": scheme_file_to_document(sf),
    }, EXIT_OK


def _text_catalog(doc) -> str:
    if "entries" in doc:
        return "\n".join(doc["entries"])
    return json.dumps(doc["document"], indent=2, sort_keys=True)


_TEXT_RENDERERS = {
    "validate": _text_validate,
    "classify": _text_classify,
    "sigma-ample": _text_sigma_ample,
    "gkdim": _text_gkdim,
    "growth": _text_growth,
    "chi": _text_chi,
    "catalog": _text_catalog,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmaample",
        description="Exact sigma-ampleness, growth, and GK-dimension decisions "
        "on numerical divisor lattices.",
    )
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output format (structured = canonical JSON)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="accepted but has no effect; batches run serially",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, auto=True, divisor=True, oracle=True, mmax=False, eps=True):
        p.add_argument("input", help="scheme file path or catalog entry name")
        if auto:
            p.add_argument("--auto", action="append", required=True,
                           help="automorphism name (repeatable)")
        if divisor:
            p.add_argument("--divisor", action="append", required=True,
                           help="divisor name (repeatable)")
        if oracle:
            p.add_argument("--oracle", default=None, help="oracle name")
        if mmax:
            p.add_argument("--mmax", type=int, default=12, help="series length")
        if eps:
            p.add_argument("--eps", type=Fraction, default=Fraction(1, 1000),
                           help="spectral radius enclosure width (P/Q)")

    p = sub.add_parser("validate", help="validate a scheme document")
    p.add_argument("input", help="scheme file path or catalog entry name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify automorphisms")
    add_common(p, divisor=False, oracle=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sigma-ample", help="decide sigma-ampleness")
    add_common(p, eps=False)
    p.set_defaults(func=cmd_sigma_ample)

    p = sub.add_parser("gkdim", help="GK dimension of the twisted ring")
    add_common(p, eps=False)
    p.set_defaults(func=cmd_gkdim)

    p = sub.add_parser("growth", help="growth report (polynomial or exponential)")
    add_common(p, mmax=True)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("chi", help="Euler characteristic series of partial sums")
    add_common(p, oracle=False, mmax=True, eps=False)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("catalog", help="list or show builtin entries")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and args.name is None:
        print("error: catalog show requires an entry name", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    try:
        doc, code = args.func(args)
    except (SchemeParseError, InvalidSchemeData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnknownName as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.format == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(_TEXT_RENDERERS[args.command](doc))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
