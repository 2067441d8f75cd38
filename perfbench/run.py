"""End-to-end benchmark of the ``sigmaample`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It is a closed loop with one client:
each query is a fresh ``python -m sigmaample.cli --format structured ...``
process, started only after the previous one ended, which is what a user of
the CLI pays per command (interpreter start, import, parse, validate,
compute). Inputs are scheme files generated from the seed; the program sees
nothing else. Every output is checked independently (see check.py).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
loop through tracer.py for the per-layer metrics, then replays the traced
invocations untraced (overhead, byte-identical stdout) and the batched ones
with ``--jobs 2``. ``--workload all`` runs every workload in turn and prints
each one's table. The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = {
    "catalog_cli": gen.catalog_inputs,
    "salem_ladder": gen.salem_inputs,
    "unipotent_ladder": gen.unipotent_inputs,
}
SETUP_REPEATS = 3
INVOCATION_CAP_S = 60.0
STARTUP_PROBES = 7

END_TO_END = [
    ("invocation_p50_ms", "ms"),
    ("invocation_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class Invocation:
    __slots__ = ("query", "wall", "rss_mb", "code", "stdout", "failures")

    def __init__(self, query, wall, rss_mb, code, stdout):
        self.query, self.wall, self.rss_mb, self.code, self.stdout = query, wall, rss_mb, code, stdout
        self.failures: list[str] = []


class Runner:
    """Starts one CLI process at a time and reaps it with wait4, which gives
    the wall time and the child's own peak RSS."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def use_pycache(self, path: Path) -> None:
        self.env["PYTHONPYCACHEPREFIX"] = str(path)

    def run(self, argv: list[str]) -> tuple[int | None, float, float, str]:
        """(exit code or None on timeout, wall seconds, peak RSS MB, stdout)."""
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env, cwd=self.root)
            pidfd = os.pidfd_open(proc.pid)
            ready = []
            try:
                ready, _, _ = select.select([pidfd], [], [], INVOCATION_CAP_S)
            finally:
                os.close(pidfd)
                if not ready:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = proc.returncode if ready else None
        return code, wall, usage.ru_maxrss / 1024, out_path.read_text(encoding="utf-8")

    def cli(self, args: list[str], jobs: int = 1, spans: Path | None = None) -> list[str]:
        head = [sys.executable]
        head += [str(HERE / "tracer.py"), str(spans)] if spans else ["-m", "sigmaample.cli"]
        return head + ["--format", "structured", "--jobs", str(jobs)] + args


def setup(workload: str, seed: int, runner: Runner, work: Path, repeat: int):
    """Generate and write the inputs, then make one untimed warm-up call with
    a fresh bytecode cache, so that it pays the compile."""
    start = time.perf_counter()
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    docs, queries = WORKLOADS[workload](random.Random(seed), str(inputs.relative_to(runner.root)))
    for path, doc in docs.items():
        (runner.root / path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    runner.use_pycache(work / f"pycache{repeat}")
    code, _, _, _ = runner.run(runner.cli(queries[0]["argv"]))
    if code != 0:
        raise SystemExit(f"error: warm-up invocation failed with exit code {code}")
    return time.perf_counter() - start, docs, queries


def timed_loop(runner: Runner, queries: list[dict], seconds: float, trace_dir: Path | None):
    done: list[Invocation] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        query = queries[len(done) % len(queries)]
        spans = trace_dir / f"{len(done)}.json" if trace_dir else None
        code, wall, rss, stdout = runner.run(runner.cli(query["argv"], spans=spans))
        done.append(Invocation(query, wall, rss, code, stdout))
    return done


def check_all(invocations: list[Invocation], checker) -> None:
    verdicts: dict = {}
    for inv in invocations:
        if inv.code is None:
            inv.failures = [f"timeout after {INVOCATION_CAP_S:.0f} s at rank {inv.query['rank']}"]
            continue
        key = (id(inv.query), inv.code, inv.stdout)
        if key not in verdicts:
            verdicts[key] = checker.check(inv.query, inv.code, inv.stdout)
        inv.failures = verdicts[key]


def slot_weights(invocations: list[Invocation]) -> list[float]:
    """1 / (invocations of the same deck slot): every slot of the deck then
    counts once, wherever in the deck the time window happened to end."""
    counts: dict[int, int] = {}
    for inv in invocations:
        counts[inv.query["slot"]] = counts.get(inv.query["slot"], 0) + 1
    return [1 / counts[inv.query["slot"]] for inv in invocations]


def weighted_quantile(values: list[float], weights: list[float], level: float) -> float:
    """Smallest value whose cumulative weight reaches ``level`` of the total."""
    pairs = sorted(zip(values, weights))
    target, cumulative = level * sum(weights), 0.0
    for value, weight in pairs:
        cumulative += weight
        if cumulative >= target - 1e-12:
            return value
    return pairs[-1][0]


def end_to_end(invocations, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Latency quantiles and throughput of the deck mix, from the timed
    invocations weighted per deck slot. The tail is the highest percentile
    with at least ten invocations beyond it."""
    walls = [inv.wall for inv in invocations]
    weights = slot_weights(invocations)
    answered = [0 if inv.failures else inv.query["queries"] for inv in invocations]
    failed = sum(1 for inv in invocations if inv.failures)
    level = max(0.5, 1 - 10 / len(walls)) if len(walls) > 10 else 1.0
    metrics = {
        "invocation_p50_ms": weighted_quantile(walls, weights, 0.5) * 1000,
        "invocation_tail_ms": weighted_quantile(walls, weights, level) * 1000,
        "queries_per_s": sum(a * w for a, w in zip(answered, weights)) / sum(t * w for t, w in zip(walls, weights)),
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
        "setup_s": statistics.median(setup_times),
    }
    notes = [
        f"error_rate {failed / len(invocations):.4f} ({failed} of {len(invocations)} invocations failed)",
        f"invocation_tail_ms is p{100 * level:.1f} of {len(walls)} invocations",
    ]
    return metrics, notes


def startup_ms(runner: Runner) -> float:
    times = []
    for _ in range(STARTUP_PROBES):
        code, wall, _, _ = runner.run([sys.executable, "-c", "import sigmaample.cli"])
        if code != 0:
            raise SystemExit("error: importing sigmaample.cli failed")
        times.append(wall * 1000)
    return statistics.median(times)


def traced_extras(runner: Runner, invocations: list[Invocation], seconds: float):
    """Replay the first quarter of the traced window untraced (overhead and
    byte-identical stdout), then its batched invocations with --jobs 2."""
    replay, spent = [], 0.0
    for inv in invocations:
        if spent >= seconds / 4:
            break
        replay.append(inv)
        spent += inv.wall
    traced_wall = untraced_wall = 0.0
    serial: list[tuple[Invocation, float]] = []
    for inv in replay:
        code, wall, _, stdout = runner.run(runner.cli(inv.query["argv"]))
        if code != inv.code or stdout != inv.stdout:
            inv.failures = inv.failures + ["traced stdout differs from untraced stdout"]
        traced_wall += inv.wall
        untraced_wall += wall
        serial.append((inv, wall))
    batched = [(inv, wall) for inv, wall in serial if inv.query["queries"] > 1] or serial
    jobs1 = jobs2 = 0.0
    for inv, wall in batched:
        code, wall2, _, stdout = runner.run(runner.cli(inv.query["argv"], jobs=2))
        if code != inv.code or stdout != inv.stdout:
            inv.failures = inv.failures + ["--jobs 2 stdout differs from --jobs 1 stdout"]
        jobs1 += wall
        jobs2 += wall2
    notes = [
        f"trace overhead measured on {len(replay)} invocations",
        f"jobs2 speedup measured on {len(batched)} invocations",
    ]
    extras = {"trace.overhead_ratio": traced_wall / untraced_wall, "cli.jobs2_speedup": jobs1 / jobs2}
    return extras, notes, [wall for _, wall in serial]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            seconds_taken, docs, queries = setup(workload, seed, runner, work, repeat)
            setup_times.append(seconds_taken)
        trace_dir = work / "spans" if trace else None
        if trace_dir:
            trace_dir.mkdir()
        invocations = timed_loop(runner, queries, seconds, trace_dir)
        from check import Checker

        check_all(invocations, Checker(docs))
        metrics, notes = end_to_end(invocations, setup_times)
        units = dict(END_TO_END)
        if trace:
            extras, extra_notes, untraced_walls = traced_extras(runner, invocations, seconds)
            answered = sum(inv.query["queries"] for inv in invocations)
            agg = tracer.aggregate(sorted(str(p) for p in trace_dir.glob("*.json")))
            layers = tracer.layer_metrics(agg, answered, len(invocations))
            layers.update(extras)
            layers["cli.startup_ms"] = startup_ms(runner)
            top = sorted(agg["self_ns"].items(), key=lambda kv: -kv[1])[:6]
            notes += extra_notes + [
                f"absent functions: {', '.join(agg['absent']) or 'none'}; "
                f"counter hooks skipped: {int(agg['counters'].get('trace.hook_errors', 0))}",
                "largest self times: " + ", ".join(f"{k} {v / 1e6 / answered:.1f} ms/query" for k, v in top),
            ]
            notes += _acceptance(workload, agg, layers, untraced_walls)
            metrics = layers
            units = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
        failures = [f for inv in invocations for f in inv.failures]
        return {
            "correct": not failures,
            "attempted": len(invocations),
            "failed": sum(1 for inv in invocations if inv.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            "notes": notes,
            "failures": failures[:20],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def _acceptance(workload: str, agg: dict, layers: dict, untraced_walls: list[float]) -> list[str]:
    """What the traced run says about the workload's purpose."""
    if workload == "salem_ladder":
        spectral = ("intmat.quasi_unipotence", "intmat.spectral_radius")
        inclusive = sum(agg["total_ns"].get(k, 0) for k in spectral)
        own = sum(agg["self_ns"].get(k, 0) for k in spectral)
        beyond = agg["total_ns"].get("cli.main", 1)
        return [
            f"quasi_unipotence + spectral_radius take {100 * inclusive / beyond:.1f}% of the time in "
            f"cli.main (beyond interpreter start and import) with their callees, {100 * own / beyond:.1f}% "
            "as self time"
        ]
    if workload == "unipotent_ladder":
        return [f"spectral_radius calls: {agg['calls'].get('intmat.spectral_radius', 0)}"]
    p50 = statistics.median(untraced_walls) * 1000
    return [f"cli.startup_ms is {100 * layers['cli.startup_ms'] / p50:.1f}% of the untraced invocation p50 ({p50:.1f} ms)"]


def print_report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} invocations, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:14.4f} {m['unit']}")
    for note in result["notes"]:
        print(f"  note: {note}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "sigmaample" / "cli.py").is_file():
        print("error: run from the root of a sigmaample checkout (src/sigmaample is missing)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        print_report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
