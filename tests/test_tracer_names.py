"""The names the per-layer tracer reads still resolve in ``sigmaample``.

``perfbench/tracer.py`` wraps functions by name and reports a name it
cannot find as "absent" with zero time, so a rename would silently empty a
per-layer metric. This reads the tracer (without editing or installing it)
and checks each name it times, each function its counter hooks call, and
the ``NumericalPolynomial.coeffs`` attribute the bisection hook reads.
"""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import sigmaample.cli  # noqa: F401  (loads every submodule the tracer wraps)
from sigmaample.intpoly import largest_real_root_interval
from sigmaample.numpoly import NumericalPolynomial, exists_common_positive

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(tracer, label: str):
    """The object the tracer would wrap under the label, or None."""
    short, *path = label.split(".")
    module = importlib.import_module(f"sigmaample.{short}")
    if len(path) == 1:
        obj = getattr(module, path[0], None)
        return obj if obj is not None and tracer._is_traceable(obj, module.__name__) else None
    cls = getattr(module, path[0], None)
    return getattr(cls, path[1], None)


def test_every_traced_name_resolves(tracer):
    missing = [label for label in tracer.TRACED_NAMES if _resolve(tracer, label) is None]
    assert missing == []


def test_counter_hooks_run_on_the_current_api(tracer):
    rec = tracer.Recorder()
    for label in ("intpoly.cauchy_root_bound", "numpoly.cauchy_bound"):
        rec.originals[label] = _resolve(tracer, label)
        assert rec.originals[label] is not None, label
    p = NumericalPolynomial.of(-2, 0, 1)
    assert p.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    width, start = Fraction(1, 64), Fraction(4)
    tracer._hook_bisection(rec, (p, width, start), largest_real_root_interval(p, width, start))
    ps = [p, NumericalPolynomial.of(-3, 1)]
    tracer._hook_scan(rec, (ps,), exists_common_positive(ps))
    assert rec.counters["intpoly.bisection_steps"] > 0
    assert rec.counters["numpoly.cauchy_scan_len"] == 4
