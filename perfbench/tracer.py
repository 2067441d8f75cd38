"""Per-layer tracing of one CLI invocation, from outside the package.

Run as ``python perfbench/tracer.py SPANS.json CLI-ARGS...``: it imports
``sigmaample``, replaces every public function of the traced modules (and
``SymmetricForm.evaluate``) by a timing wrapper under every name that refers
to it, runs ``sigmaample.cli.main`` on the arguments, and writes the spans
and counters to SPANS.json at exit. Stdout is left to the CLI alone.

``aggregate`` and ``layer_metrics`` turn the span files of a run into the
per-layer metrics. A function that no longer exists is reported as absent,
with zero time.
"""
from __future__ import annotations

import atexit
import functools
import inspect
import json
import math
import sys
from time import perf_counter_ns

MODULES = ("intmat", "intpoly", "numpoly", "lattice", "ampleness", "engine", "schemefile", "catalog", "cli")
METHODS = {"lattice": {"SymmetricForm": ("evaluate",)}}


class Recorder:
    """Spans (label, start, end, parent) and counters, kept in memory.

    Counter bookkeeping runs on a clock of its own that is subtracted from
    every span, so it does not show up as the callers' self time."""

    def __init__(self):
        self.labels: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.skew = 0
        self.counters: dict[str, float] = {}
        self.seen_matrices: set = set()
        self.originals: dict[str, object] = {}

    def now(self) -> int:
        return perf_counter_ns() - self.skew

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, label: str, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        hook = HOOKS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                self.stack.pop()
                self.spans[index] = (label_id, start, end, parent)
            if hook is not None:
                t0 = perf_counter_ns()
                try:
                    hook(self, args, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the function's signature changed; its counter is skipped
                    self.add("trace.hook_errors", 1)
                self.skew += perf_counter_ns() - t0
            return result

        return traced

    def dump(self, path: str, absent: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"labels": self.labels, "spans": self.spans, "counters": self.counters, "absent": absent}, fh
            )


def _hook_quasi_unipotence(rec: Recorder, args, result) -> None:
    key = args[0].rows
    if key in rec.seen_matrices:
        rec.add("intmat.quasi_unipotence.repeats", 1)
    rec.seen_matrices.add(key)


def _hook_mat_pow(rec: Recorder, args, result) -> None:
    rec.peak("intmat.mat_pow.max_bits", max(abs(c).bit_length() for row in result.rows for c in row))


def _hook_char_poly(rec: Recorder, args, result) -> None:
    rec.peak("intmat.char_poly.max_size", args[0].size)


def _hook_bisection(rec: Recorder, args, result) -> None:
    bound = rec.originals["intpoly.cauchy_root_bound"](args[0].coeffs)
    rec.add("intpoly.bisection_steps", round(math.log2((2 * bound + 2) / result.width)))


def _hook_scan(rec: Recorder, args, result) -> None:
    bound = max(rec.originals["numpoly.cauchy_bound"](p) for p in args[0])
    rec.add("numpoly.cauchy_scan_len", bound if result is None or result > bound else result)


HOOKS = {
    "intmat.quasi_unipotence": _hook_quasi_unipotence,
    "intmat.mat_pow": _hook_mat_pow,
    "intmat.char_poly": _hook_char_poly,
    "intpoly.largest_real_root_interval": _hook_bisection,
    "numpoly.exists_common_positive": _hook_scan,
}


def _is_traceable(obj, module_name: str) -> bool:
    if isinstance(obj, functools._lru_cache_wrapper):
        return obj.__wrapped__.__module__ == module_name
    return inspect.isfunction(obj) and obj.__module__ == module_name


def install(rec: Recorder) -> None:
    """Wrap the traced functions and rebind every sigmaample name for them."""
    import sigmaample  # noqa: F401  (imports every submodule but cli)
    import sigmaample.cli  # noqa: F401

    wrappers = {}
    for short in MODULES:
        module = sys.modules.get(f"sigmaample.{short}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if not name.startswith("_") and _is_traceable(obj, module.__name__):
                rec.originals[f"{short}.{name}"] = obj
                wrappers[id(obj)] = rec.wrap(f"{short}.{name}", obj)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name, None)
            for method in methods:
                if cls is not None and hasattr(cls, method):
                    setattr(cls, method, rec.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))
    for module_name, module in list(sys.modules.items()):
        if module_name == "sigmaample" or module_name.startswith("sigmaample."):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and not name.startswith("__"):
                    setattr(module, name, wrappers[id(obj)])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    absent = [name for name in TRACED_NAMES if name not in rec.labels]
    atexit.register(rec.dump, spans_path, absent)
    import sigmaample.cli

    return sigmaample.cli.main(cli_args)


# ---------------------------------------------------------------- parent side

# Functions whose time or counts the per-layer metrics read.
TRACED_NAMES = (
    "intmat.quasi_unipotence",
    "intmat.mat_pow",
    "intmat.char_poly",
    "intmat.spectral_radius",
    "intpoly.sturm_chain",
    "intpoly.largest_real_root_interval",
    "intpoly.sign_variations",
    "intpoly.square_free_part",
    "numpoly.exists_common_positive",
    "ampleness.symbolic_constraints",
    "ampleness.is_ample",
    "lattice.validate",
    "lattice.SymmetricForm.evaluate",
    "engine.classify",
    "engine.is_sigma_ample",
    "engine.gk_profile",
    "engine.euler_char_series",
    "engine.growth_report",
    "engine.partial_sum",
    "schemefile.parse_scheme_file",
    "catalog.catalog_entry",
)


def aggregate(span_files: list[str]) -> dict:
    """Self time, inclusive time and call count per label, and summed or
    maximal counters, over the span files of a run."""
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        labels, spans = data["labels"], data["spans"]
        child_ns = [0] * len(spans)
        for label_id, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (label_id, start, end, parent) in enumerate(spans):
            label = labels[label_id]
            self_ns[label] = self_ns.get(label, 0) + (end - start) - child_ns[i]
            calls[label] = calls.get(label, 0) + 1
            if not any(labels[spans[p][0]] == label for p in _ancestors(spans, parent)):
                total_ns[label] = total_ns.get(label, 0) + (end - start)
        for name, value in data["counters"].items():
            if name.endswith(("max_bits", "max_size")):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        absent.update(data["absent"])
    return {"self_ns": self_ns, "total_ns": total_ns, "calls": calls, "counters": counters, "absent": sorted(absent)}


def _ancestors(spans, parent: int):
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


# name, unit, better, and the end-to-end metric and workload it should move.
PER_LAYER = [
    ("intmat.quasi_unipotence.self_ms", "ms/query", "lower", "queries_per_s and invocation_tail_ms on salem_ladder; invocation_tail_ms on unipotent_ladder"),
    ("intmat.quasi_unipotence.calls", "1/query", "lower", "queries_per_s on salem_ladder and unipotent_ladder"),
    ("intmat.quasi_unipotence.repeat_ratio", "ratio", "lower", "invocation_tail_ms on unipotent_ladder (batches reuse classifications)"),
    ("intmat.mat_pow.self_ms", "ms/query", "lower", "queries_per_s on salem_ladder"),
    ("intmat.mat_pow.max_bits", "bits", "lower", "peak_rss_mb on salem_ladder"),
    ("intmat.char_poly.self_ms", "ms/query", "lower", "every end-to-end metric on salem_ladder; none on unipotent_ladder"),
    ("intmat.char_poly.max_size", "rows", "lower", "every end-to-end metric on salem_ladder (64 = Kronecker square at rank 8)"),
    ("intmat.spectral_radius.self_ms", "ms/query", "lower", "every end-to-end metric on salem_ladder; none on unipotent_ladder"),
    ("intmat.spectral_radius.calls", "1/query", "lower", "salem_ladder only; 0 on unipotent_ladder"),
    ("intpoly.sturm_chain.self_ms", "ms/query", "lower", "invocation_p50_ms and queries_per_s on salem_ladder"),
    ("intpoly.sturm_chain.calls_per_radius", "ratio", "lower", "invocation_p50_ms and queries_per_s on salem_ladder"),
    ("intpoly.largest_real_root_interval.self_ms", "ms/query", "lower", "invocation_p50_ms and queries_per_s on salem_ladder"),
    ("intpoly.sign_variations.self_ms", "ms/query", "lower", "queries_per_s on salem_ladder (Sturm sequence evaluation, most of the bisection)"),
    ("intpoly.square_free_part.self_ms", "ms/query", "lower", "queries_per_s on salem_ladder (Fraction gcd on the Kronecker char poly)"),
    ("intpoly.bisection_steps", "1/call", "lower", "invocation_p50_ms and queries_per_s on salem_ladder"),
    ("numpoly.exists_common_positive.self_ms", "ms/query", "lower", "queries_per_s on unipotent_ladder"),
    ("numpoly.cauchy_scan_len", "1/call", "lower", "queries_per_s on unipotent_ladder"),
    ("ampleness.symbolic_constraints.self_ms", "ms/query", "lower", "queries_per_s on unipotent_ladder"),
    ("ampleness.is_ample.calls", "1/query", "lower", "queries_per_s on unipotent_ladder"),
    ("lattice.validate.self_ms", "ms/query", "lower", "invocation_tail_ms on unipotent_ladder; invocation_p50_ms on catalog_cli"),
    ("lattice.SymmetricForm.evaluate.self_ms", "ms/query", "lower", "invocation_tail_ms on unipotent_ladder (threefolds)"),
    ("lattice.SymmetricForm.evaluate.calls", "1/query", "lower", "invocation_tail_ms on unipotent_ladder (threefolds)"),
    ("engine.classify.self_ms", "ms/query", "lower", "salem_ladder and catalog_cli (classify, growth)"),
    ("engine.is_sigma_ample.self_ms", "ms/query", "lower", "unipotent_ladder and catalog_cli (sigma-ample)"),
    ("engine.gk_profile.self_ms", "ms/query", "lower", "unipotent_ladder and catalog_cli (gkdim, growth)"),
    ("engine.euler_char_series.self_ms", "ms/query", "lower", "unipotent_ladder and catalog_cli (chi, growth)"),
    ("engine.growth_report.self_ms", "ms/query", "lower", "every workload running growth"),
    ("engine.partial_sum.self_ms", "ms/query", "lower", "queries_per_s on unipotent_ladder (direct partial sums up to the witness)"),
    ("schemefile.parse_scheme_file.self_ms", "ms/query", "lower", "invocation_p50_ms on salem_ladder and unipotent_ladder"),
    ("catalog.catalog_entry.self_ms", "ms/query", "lower", "invocation_p50_ms on catalog_cli"),
    ("cli.startup_ms", "ms", "lower", "invocation_p50_ms on catalog_cli"),
    ("cli.command_self_ms", "ms/invocation", "lower", "invocation_p50_ms on catalog_cli"),
    ("cli.jobs2_speedup", "ratio", "higher", "queries_per_s on unipotent_ladder if --jobs 2 is used"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall time over untraced wall time"),
]


def layer_metrics(agg: dict, queries: int, invocations: int) -> dict[str, float]:
    """The per-layer metrics that come from spans and counters."""
    self_ms = {k: v / 1e6 for k, v in agg["self_ns"].items()}
    calls, counters = agg["calls"], agg["counters"]
    per_query = max(queries, 1)
    out = {}
    for name, unit, _, _ in PER_LAYER:
        if name.endswith(".self_ms") and unit == "ms/query":
            out[name] = self_ms.get(name[: -len(".self_ms")], 0.0) / per_query
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0) / per_query
    qu_calls = calls.get("intmat.quasi_unipotence", 0)
    out["intmat.quasi_unipotence.repeat_ratio"] = counters.get("intmat.quasi_unipotence.repeats", 0) / qu_calls if qu_calls else 0.0
    out["intmat.mat_pow.max_bits"] = counters.get("intmat.mat_pow.max_bits", 0)
    out["intmat.char_poly.max_size"] = counters.get("intmat.char_poly.max_size", 0)
    radius_calls = calls.get("intmat.spectral_radius", 0)
    out["intpoly.sturm_chain.calls_per_radius"] = calls.get("intpoly.sturm_chain", 0) / radius_calls if radius_calls else 0.0
    bisections = calls.get("intpoly.largest_real_root_interval", 0)
    out["intpoly.bisection_steps"] = counters.get("intpoly.bisection_steps", 0) / bisections if bisections else 0.0
    scans = calls.get("numpoly.exists_common_positive", 0)
    out["numpoly.cauchy_scan_len"] = counters.get("numpoly.cauchy_scan_len", 0) / scans if scans else 0.0
    commands = sum(v for k, v in self_ms.items() if k.startswith("cli.cmd_"))
    out["cli.command_self_ms"] = commands / max(invocations, 1)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
