"""Command-line interface.

Subcommands: validate, classify, sigma-ample, gkdim, growth, chi, catalog.
Inputs are scheme description files (JSON) or builtin catalog names; the
positional INPUT tries the filesystem first, then the catalog. Reports go to
stdout, text by default or canonical JSON with --format structured;
diagnostics go to stderr. Exit codes: 0 success, 2 parse or validation
error, 3 unknown name, 4 precondition failure.

The query commands (classify, sigma-ample, gkdim, growth, chi) share one
batch loop. It loads and validates INPUT and resolves --oracle (for the
commands that take it) before any query runs, then answers each
(--auto, --divisor) pair in input order (--auto alone for classify) and
wraps the results in one {command, input, [oracle], results} document.
Each query command has a ``cmd_<name>(args, sf, oracle, aname, dname)``
that answers one query (None for an option the command lacks) and a
``_text_<name>`` that renders one result; text output is the rendered
results joined by newlines. ``validate`` and ``catalog`` build their whole
document in ``cmd_<name>(args)``. ``build_parser`` declares each command
once, with its options, its function and its renderer, and gives arguments
only to the command that argv selects; ``main`` finds the functions on the
module when it runs. Repeated --auto and --divisor are evaluated serially;
--jobs N is accepted for compatibility and has no effect.
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
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SchemeParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
        sf = parse_scheme_file(text)
    else:
        sf = catalog_entry(name_or_path)
    if enforce_valid:
        for action in sf.automorphisms.values():
            engine.require_valid(sf.scheme, action)
    return sf


def _interval_json(iv) -> dict:
    return {"lo": format_rational(iv.lo), "hi": format_rational(iv.hi)}


def _report_json(report) -> dict:
    return {
        "valid": report.valid,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def cmd_validate(args) -> tuple[dict, int]:
    sf = load_input(args.input, enforce_valid=False)
    reports = {
        name: validate_action(sf.scheme, action) for name, action in sf.automorphisms.items()
    }
    actions = [{"name": name, **_report_json(report)} for name, report in reports.items()]
    oracles = []
    stability = []
    for name, oracle in sf.oracles.items():
        oracles.append({"name": name, **_report_json(oracle_report(oracle, sf.scheme.rank))})
        for aname, action in sf.automorphisms.items():
            if reports[aname].valid:
                sreport = action_stability_report(oracle, action)
                stability.append({"oracle": name, "action": aname, **_report_json(sreport)})
    scheme = _report_json(scheme_consistency_report(sf.scheme))
    valid = all(entry["valid"] for entry in [*actions, *oracles, scheme])
    doc = {
        "command": "validate",
        "input": args.input,
        "valid": valid,
        "scheme": scheme,
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


def cmd_classify(args, sf, oracle, aname, dname) -> dict:
    action = sf.action(aname)
    poly = char_poly(action.matrix)
    result: dict = {
        "action": aname,
        "char_poly": {
            "coefficients": [str(c) for c in poly.coeffs],
            "text": poly.format(),
        },
    }
    cls = engine.classify(action.matrix, args.eps)
    result["quasi_unipotent"] = cls.quasi_unipotent
    if cls.quasi_unipotent:
        result["unipotent_power"] = cls.unipotent_power
        result["jordan_index"] = cls.jordan_index
        result["jordan_index_even"] = cls.jordan_index % 2 == 0
    else:
        result["spectral_radius"] = _interval_json(cls.radius)
    return result


def _text_classify(r) -> str:
    head = f"action {r['action']}: char poly {r['char_poly']['text']}"
    if r["quasi_unipotent"]:
        parity = "even" if r["jordan_index_even"] else "odd (not geometrically realizable)"
        return (
            f"{head}\n  quasi-unipotent: unipotent power {r['unipotent_power']}, "
            f"jordan index {r['jordan_index']} ({parity})"
        )
    iv = r["spectral_radius"]
    mid = float(Fraction(iv["lo"]) + (Fraction(iv["hi"]) - Fraction(iv["lo"])) / 2)
    return (
        f"{head}\n  not quasi-unipotent: spectral radius in [{iv['lo']}, {iv['hi']}] "
        f"(~{mid:.5f})"
    )


def cmd_sigma_ample(args, sf, oracle, aname, dname) -> dict:
    verdict = engine.is_sigma_ample(sf.scheme, sf.action(aname), oracle, sf.divisor(dname))
    result: dict = {"action": aname, "divisor": dname, "sigma_ample": verdict.sigma_ample}
    if verdict.sigma_ample:
        result["witness"] = verdict.witness
    else:
        result["reason"] = verdict.reason
    if verdict.unipotent_power is not None:
        # the reduced partial sums at m = 1 (the summed divisor), 2 and 3
        sums = [[format_rational(p.evaluate(m)) for p in verdict.family] for m in (1, 2, 3)]
        result["unipotent_power"] = verdict.unipotent_power
        result["reduction"] = {"summed_divisor": sums[0], "partial_sums": sums}
    return result


def _text_sigma_ample(r) -> str:
    head = f"({r['action']}, {r['divisor']}):"
    if r["sigma_ample"]:
        return (
            f"{head} sigma-ample, witness m={r['witness']} "
            f"after reduction to the power {r['unipotent_power']}"
        )
    return f"{head} not sigma-ample ({r['reason']})"


def cmd_gkdim(args, sf, oracle, aname, dname) -> dict:
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
                "monomial_coefficients": [format_rational(c) for c in comp.polynomial.coeffs],
                "binomial_coefficients": [
                    format_rational(c) for c in binomial_coefficients(comp.polynomial)
                ],
            }
            for comp in profile.components
        ],
    }


def _text_gkdim(r) -> str:
    lines = [f"({r['action']}, {r['divisor']}): GK dimension {r['gk_dimension']}"]
    for comp in r["components"]:
        lines.append(
            f"  component {comp['name']}: degree {comp['degree']}, "
            f"leading {comp['leading']}, monomial {comp['monomial_coefficients']}"
        )
    return "\n".join(lines)


def cmd_growth(args, sf, oracle, aname, dname) -> dict:
    report = engine.growth_report(
        sf.scheme, sf.action(aname), oracle, sf.divisor(dname), args.mmax, args.eps
    )
    result: dict = {"action": aname, "divisor": dname, "mmax": args.mmax}
    if report.gk_dimension is not None:
        result["kind"] = "polynomial"
        result["gk_dimension"] = report.gk_dimension
        result["hilbert_degree"] = report.hilbert_degree
    else:
        result["kind"] = "exponential"
        result["spectral_radius"] = _interval_json(report.radius)
        result["ratios"] = [format_rational(r) for r in report.ratio_samples]
        result["threshold_exceeded"] = report.threshold_exceeded
    return result


def _text_growth(r) -> str:
    head = f"({r['action']}, {r['divisor']}):"
    if r["kind"] == "polynomial":
        return (
            f"{head} polynomial growth, GK dimension {r['gk_dimension']} "
            f"(Hilbert degree {r['hilbert_degree']})"
        )
    approx = f", last ratio ~{float(Fraction(r['ratios'][-1])):.5f}" if r["ratios"] else ""
    return (
        f"{head} exponential growth, radius {r['spectral_radius']['lo']} .. "
        f"{r['spectral_radius']['hi']}{approx}, "
        f"root statistic above 1.001: {r['threshold_exceeded']}"
    )


def cmd_chi(args, sf, oracle, aname, dname) -> dict:
    series = engine.euler_char_series(sf.scheme, sf.action(aname), sf.divisor(dname), args.mmax)
    return {
        "action": aname,
        "divisor": dname,
        "mmax": args.mmax,
        "values": [format_rational(v) for v in series],
    }


def _text_chi(r) -> str:
    return f"({r['action']}, {r['divisor']}): chi at m=1..{r['mmax']}:\n  " + " ".join(r["values"])


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


def _answer_batch(args) -> dict:
    """Load INPUT and resolve the oracle, then answer the queries in input order."""
    sf = load_input(args.input)
    doc = {"command": args.command, "input": args.input}
    oracle = None
    if "oracle" in args:
        oracle = sf.oracle(args.oracle)
        doc["oracle"] = args.oracle or next(iter(sf.oracles))
    divisors = args.divisor if "divisor" in args else [None]
    doc["results"] = [args.func(args, sf, oracle, a, d) for a in args.auto for d in divisors]
    return doc


# The options a query command may take after INPUT, in declaration order.
_OPTIONS = {
    "auto": {"action": "append", "required": True, "help": "automorphism name (repeatable)"},
    "divisor": {"action": "append", "required": True, "help": "divisor name (repeatable)"},
    "oracle": {"default": None, "help": "oracle name"},
    "mmax": {"type": int, "default": 12, "help": "series length"},
    "eps": {
        "type": Fraction,
        "default": Fraction(1, 1000),
        "help": "spectral radius enclosure width (P/Q)",
    },
}


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``. Every command is named on the top-level
    parser, with its help line, so its help and its invalid-choice message
    list them all; only the command that argv selects (its first command
    name: no top-level option takes one as its value) gets its arguments."""
    # name, help, options after INPUT (None: catalog's own arguments),
    # the function main calls and the text renderer
    commands = (
        ("validate", "validate a scheme document", "", cmd_validate, _text_validate),
        ("classify", "classify automorphisms", "auto eps", cmd_classify, _text_classify),
        ("sigma-ample", "decide sigma-ampleness", "auto divisor oracle",
         cmd_sigma_ample, _text_sigma_ample),
        ("gkdim", "GK dimension of the twisted ring", "auto divisor oracle",
         cmd_gkdim, _text_gkdim),
        ("growth", "growth report (polynomial or exponential)", "auto divisor oracle mmax eps",
         cmd_growth, _text_growth),
        ("chi", "Euler characteristic series of partial sums", "auto divisor mmax",
         cmd_chi, _text_chi),
        ("catalog", "list or show builtin entries", None, cmd_catalog, _text_catalog),
    )
    names = {command[0] for command in commands}
    selected = next((arg for arg in argv if arg in names), None)
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
    for name, help_text, options, func, render in commands:
        if name != selected:
            sub.add_parser(name, help=help_text, add_help=False)
            continue
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, render=render)
        if options is None:
            p.add_argument("action", choices=("list", "show"))
            p.add_argument("name", nargs="?", default=None)
            continue
        p.add_argument("input", help="scheme file path or catalog entry name")
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    if args.command == "catalog" and args.action == "show" and args.name is None:
        print("error: catalog show requires an entry name", file=sys.stderr)
        return EXIT_UNKNOWN_NAME
    batch = "auto" in args
    try:
        doc, code = (_answer_batch(args), EXIT_OK) if batch else args.func(args)
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
        print("\n".join(map(args.render, doc["results"])) if batch else args.render(doc))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
