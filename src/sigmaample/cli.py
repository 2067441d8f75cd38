"""Command-line interface.

Subcommands: validate, classify, sigma-ample, gkdim, growth, chi, catalog.
Inputs are scheme description files (JSON) or builtin catalog names; the
positional INPUT tries the filesystem first, then the catalog. Reports go to
stdout, text by default or canonical JSON with --format structured;
diagnostics go to stderr, one ``error:`` line per failure. Exit codes: 0
success, 2 parse or validation error (an unreadable INPUT file included), 3
unknown name, 4 precondition failure, 1 for a stdout closed early.
``entry`` (the console script and ``python -m``) flushes stdout and stderr
and then ends the process with ``os._exit``, so atexit hooks, subprocess
coverage among them, do not run there; in-process callers use ``main``,
which returns the status.

The query commands (classify, sigma-ample, gkdim, growth, chi) share one
batch loop. It loads INPUT, validates its actions and resolves --oracle
(for the commands that take it) before any query runs, then answers each
(--auto, --divisor) pair in input order (--auto alone for classify) and
wraps the results in one {command, input, [oracle], results} document.
Just before an action's first query, ``engine.require_valid`` is given the
command's oracle, so sigma-ample, gkdim and growth refuse an action that
does not keep the oracle's cone (exit 2), as the engine's queries do.
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
import os
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import Sequence

from . import engine
from .catalog import catalog_entry, catalog_names
from .errors import InvalidSchemeData, SchemeParseError, SigmaAmpleError, UnknownName
from .intmat import char_poly
from .lattice import CheckResult, scheme_checks, validate as validate_action
from .numpoly import binomial_coefficients
from .schemefile import (
    SchemeFile,
    format_rational,
    parse_scheme_file,
    rational_from_text,
    scheme_file_to_document,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNKNOWN_NAME = 3
EXIT_PRECONDITION = 4

# The exit status of each failure main reports, first match wins: a library
# error, or a ValueError from an engine check.
_EXIT_STATUS = {
    SchemeParseError: EXIT_PARSE,
    InvalidSchemeData: EXIT_PARSE,
    UnknownName: EXIT_UNKNOWN_NAME,
    SigmaAmpleError: EXIT_PRECONDITION,
    ValueError: EXIT_PRECONDITION,
}


def load_input(name_or_path: str) -> SchemeFile:
    """Resolve and read INPUT: an existing path first (a pipe or a directory
    too), then a catalog name. A path that cannot be read or decoded is a
    SchemeParseError. The actions are not validated here."""
    path = Path(name_or_path)
    if not path.exists():
        return catalog_entry(name_or_path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemeParseError(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise SchemeParseError(f"cannot read {name_or_path}: {exc.strerror or exc}") from None
    return parse_scheme_file(text)


def _interval_json(iv) -> dict:
    return {"lo": format_rational(iv.lo), "hi": format_rational(iv.hi)}


def _report_json(checks) -> dict:
    return {
        "valid": all(c.passed for c in checks),
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }


def cmd_validate(args) -> tuple[dict, int]:
    sf = load_input(args.input)
    actions = [
        {"name": name, **_report_json(validate_action(sf.scheme, action))}
        for name, action in sf.automorphisms.items()
    ]
    oracles = []
    stability = []
    for name, oracle in sf.oracles.items():
        rank = CheckResult("rank", oracle.rank == sf.scheme.rank, f"oracle rank {oracle.rank}")
        oracles.append({"name": name, **_report_json((rank, *oracle.invariant_checks()))})
        for entry in actions:
            if entry["valid"]:
                checks = oracle.stability_checks(sf.action(entry["name"]))
                stability.append({"oracle": name, "action": entry["name"], **_report_json(checks)})
    scheme = _report_json(scheme_checks(sf.scheme))
    valid = all(entry["valid"] for entry in [*actions, *oracles, *stability, scheme])
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
    """One status line per section entry, the scheme's only when it fails,
    each followed by a ``name: detail`` line per failed check."""
    lines = [f"input {doc['input']}: {'valid' if doc['valid'] else 'INVALID'}"]
    entries = [] if doc["scheme"]["valid"] else [("scheme", doc["scheme"])]
    entries += [(f"action {e['name']}", e) for e in doc["actions"]]
    entries += [(f"oracle {e['name']}", e) for e in doc["oracles"]]
    entries += [(f"cone stability {e['oracle']}/{e['action']}", e) for e in doc["cone_stability"]]
    for label, entry in entries:
        lines.append(f"  {label}: {'ok' if entry['valid'] else 'FAILED'}")
        lines += [f"    {c['name']}: {c['detail']}" for c in entry["checks"] if not c["passed"]]
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


def _approx(x: Fraction) -> str:
    """x to 5 places, rounded half to even from the exact value, so no size overflows."""
    whole, frac = divmod(round(abs(x) * 10**5), 10**5)
    return f"{'-' if x < 0 else ''}{whole}.{frac:05d}"


def _text_classify(r) -> str:
    head = f"action {r['action']}: char poly {r['char_poly']['text']}"
    if r["quasi_unipotent"]:
        parity = "even" if r["jordan_index_even"] else "odd (not geometrically realizable)"
        return (
            f"{head}\n  quasi-unipotent: unipotent power {r['unipotent_power']}, "
            f"jordan index {r['jordan_index']} ({parity})"
        )
    iv = r["spectral_radius"]
    mid = _approx((Fraction(iv["lo"]) + Fraction(iv["hi"])) / 2)
    return f"{head}\n  not quasi-unipotent: spectral radius in [{iv['lo']}, {iv['hi']}] (~{mid})"


def cmd_sigma_ample(args, sf, oracle, aname, dname) -> dict:
    verdict = engine.is_sigma_ample(sf.scheme, sf.action(aname), oracle, sf.divisor(dname))
    result: dict = {"action": aname, "divisor": dname, "sigma_ample": verdict.sigma_ample}
    if verdict.sigma_ample:
        result["witness"] = verdict.witness
    else:
        result["reason"] = verdict.reason
    if verdict.unipotent_power is not None:
        # the reduced partial sums sum_j C(m, j) v_j / d at m = 1 (the summed
        # divisor), 2 and 3, one row of C(m, j) each (they vanish for j > m)
        denom, vectors = verdict.family
        sums = [
            [format_rational(Fraction(sum(map(mul, row, c)), denom)) for c in zip(*vectors)]
            for row in ((1, 1), (1, 2, 1), (1, 3, 3, 1))
        ]
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
    approx = f", last ratio ~{_approx(Fraction(r['ratios'][-1]))}" if r["ratios"] else ""
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
    if args.name is None:
        raise UnknownName("catalog show requires an entry name")
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
    """Load INPUT, validate its actions and resolve the oracle, then answer
    the queries in input order. Just before an action's first query, the
    engine's gate refuses the action, for a command with an oracle, if it
    does not keep the oracle's cone."""
    sf = load_input(args.input)
    for action in sf.automorphisms.values():
        engine.require_valid(sf.scheme, action)
    doc = {"command": args.command, "input": args.input}
    oracle = None
    if "oracle" in args:
        oracle = sf.oracle(args.oracle)
        doc["oracle"] = args.oracle or next(iter(sf.oracles))
    divisors = args.divisor if "divisor" in args else [None]
    doc["results"] = []
    for aname in args.auto:
        engine.require_valid(sf.scheme, sf.action(aname), oracle)
        doc["results"] += [args.func(args, sf, oracle, aname, d) for d in divisors]
    return doc


def _eps(text: str) -> Fraction:
    """--eps read by the scheme files' rule for rationals, so exponent
    notation such as 1e-20000 is refused before it can set a bisection's
    length; every complaint is one argparse error line."""
    try:
        return rational_from_text(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}") from None


# The options a query command may take after INPUT, in declaration order.
_OPTIONS = {
    "auto": {"action": "append", "required": True, "help": "automorphism name (repeatable)"},
    "divisor": {"action": "append", "required": True, "help": "divisor name (repeatable)"},
    "oracle": {"default": None, "help": "oracle name"},
    "mmax": {"type": int, "default": engine.DEFAULT_MMAX, "help": "series length"},
    "eps": {
        "type": _eps,
        "default": engine.DEFAULT_EPS,
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
    batch = "auto" in args
    try:
        doc, code = (_answer_batch(args), EXIT_OK) if batch else args.func(args)
    except tuple(_EXIT_STATUS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(status for kind, status in _EXIT_STATUS.items() if isinstance(exc, kind))
    if args.format == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(map(args.render, doc["results"])) if batch else args.render(doc))
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (| head): point it at devnull, so that no
        # later flush can fail again, and end with 1 and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if sys.stderr is not None:  # None when the process started with fd 2 closed
        sys.stderr.flush()
    # every byte is out: skip the interpreter's teardown, which writes nothing
    os._exit(code)


if __name__ == "__main__":
    entry()
