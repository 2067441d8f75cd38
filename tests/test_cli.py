import errno
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sigmaample
from sigmaample import cli, engine, intmat
from sigmaample.ampleness import PolyhedralCone, SurfacePositiveCone
from sigmaample.cli import main
from sigmaample.schemefile import SchemeFile, format_rational, serialize_scheme_file
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import InvalidSchemeData, SchemeParseError, SigmaAmpleError, UnknownName
from sigmaample.lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
)
from conftest import (
    child_env,
    permutation_transvections,
    run_bounded,
    swapcone_document,
    unipotent_matrices,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "structured", *argv)
    return code, (json.loads(out) if out else None), err


def test_classify_composite(capsys):
    code, doc, _ = run_json(capsys, "classify", "wehler_k3", "--auto", "s1s2")
    assert code == 0
    (result,) = doc["results"]
    assert result["char_poly"]["text"] == "x^2-14x+1"
    assert result["char_poly"]["coefficients"] == ["1", "-14", "1"]
    assert result["quasi_unipotent"] is False
    lo, hi = (Fraction(result["spectral_radius"][k]) for k in ("lo", "hi"))
    assert hi - lo <= Fraction(1, 1000)


def test_classify_involution(capsys):
    code, doc, _ = run_json(capsys, "classify", "wehler_k3", "--auto", "s1")
    (result,) = doc["results"]
    assert result["quasi_unipotent"] is True
    assert result["unipotent_power"] == 2
    assert result["jordan_index"] == 0


def test_classify_shear(capsys):
    code, doc, _ = run_json(capsys, "classify", "abelian_square", "--auto", "shear")
    (result,) = doc["results"]
    assert (result["unipotent_power"], result["jordan_index"]) == (1, 2)


def test_eps_flag_tightens_radius(capsys):
    _, doc, _ = run_json(
        capsys, "classify", "wehler_k3", "--auto", "s1s2", "--eps", "1/100000"
    )
    (result,) = doc["results"]
    lo, hi = (Fraction(result["spectral_radius"][k]) for k in ("lo", "hi"))
    assert hi - lo <= Fraction(1, 100000)


@pytest.mark.parametrize(
    "eps_args, lo, hi",
    [
        # cells of the grid k 15/2^j (S = 1 + 14 = 15) for j = 14 and 44
        ((), "228195/16384", "114105/8192"),
        (
            ("--eps", "1/1000000000000"),
            "245027542491435/17592186044416",
            "122513771245725/8796093022208",
        ),
    ],
)
def test_radius_enclosure_endpoints_are_pinned(capsys, eps_args, lo, hi):
    _, doc, _ = run_json(capsys, "classify", "wehler_k3", "--auto", "s1s2", *eps_args)
    (result,) = doc["results"]
    assert result["spectral_radius"] == {"lo": lo, "hi": hi}
    # exact containment of 7 + 4 sqrt 3: (x - 7)^2 against 48 at both ends
    assert 7 < Fraction(lo) and (Fraction(lo) - 7) ** 2 < 48 < (Fraction(hi) - 7) ** 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "wehler_k3", "--auto", "s1s2"],
        ["growth", "wehler_k3", "--auto", "s1s2", "--divisor", "H1"],
    ],
)
def test_malformed_eps_is_parse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--eps", "abc"])
    assert exc.value.code == 2
    assert "--eps" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-20000", "1e-999999999", "1E-5", "1/0"])
def test_eps_in_exponent_notation_or_over_zero_is_parse_error(capsys, eps):
    # exponent notation would set a 20000-digit or billion-digit bisection
    # target, so it is refused before Fraction reads it, as in scheme files
    argv = ["classify", "wehler_k3", "--auto", "s1s2", "--eps", eps]
    done = run_bounded("-m", "sigmaample.cli", *argv)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[-1] == (
        f"sigmaample classify: error: argument --eps: bad rational {eps!r}: "
        + ("Fraction(1, 0)" if eps == "1/0" else "exponent notation is not accepted")
    )
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and time.perf_counter() - started < 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "wehler_k3", "--auto", "s1s2", "--eps", "0"],
        # a quasi-unipotent action needs no radius, but the bound is still checked
        ["classify", "wehler_k3", "--auto", "s1", "--eps", "0"],
        ["growth", "abelian_square", "--auto", "shear", "--divisor", "D111", "--eps", "0"],
    ],
)
def test_non_positive_eps_is_precondition_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "error: eps must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["growth", "abelian_square", "--auto", "shear", "--divisor", "D111", "--mmax", "-3"],
        ["growth", "wehler_k3", "--auto", "s1s2", "--divisor", "H1plusH2", "--mmax", "0"],
        ["chi", "wehler_k3", "--auto", "id", "--divisor", "H1", "--mmax", "0"],
    ],
)
def test_non_positive_mmax_is_precondition_failure(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "error: m_max must be >= 1\n"


def test_sigma_ample_yes(capsys):
    code, doc, _ = run_json(
        capsys, "sigma-ample", "wehler_k3", "--auto", "s1", "--divisor", "H1"
    )
    assert code == 0
    (result,) = doc["results"]
    assert result["sigma_ample"] is True
    assert result["unipotent_power"] == 2
    assert result["witness"] == 1
    assert result["reduction"]["summed_divisor"] == ["2", "0"]
    assert result["reduction"]["partial_sums"][0] == ["2", "0"]


def test_sigma_ample_not_quasi_unipotent(capsys):
    code, doc, _ = run_json(
        capsys, "sigma-ample", "wehler_k3", "--auto", "s1s2", "--divisor", "H1"
    )
    (result,) = doc["results"]
    assert result["sigma_ample"] is False
    assert result["reason"] == "not-quasi-unipotent"


def test_sigma_ample_no_partial_sum(capsys):
    code, doc, _ = run_json(
        capsys, "sigma-ample", "wehler_k3", "--auto", "id", "--divisor", "minusH1"
    )
    (result,) = doc["results"]
    assert result["reason"] == "no-ample-partial-sum"


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10).flatmap(lambda n: st.tuples(
    st.one_of(unipotent_matrices(n), permutation_transvections(n)),
    st.lists(st.fractions(-9, 9, max_denominator=6), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any),
)))
def test_structured_reduction_trace_is_the_partial_sums_at_multiples_of_q(case):
    # a zero surface form keeps every matrix valid, and the facets are the
    # orbit under P^T of a functional w that (P^T)^q fixes, so P keeps the
    # cone: w is the last nonzero (U^T - I)^k v, with U = P^q unipotent and
    # v the drawn functional; the trace reads neither
    matrix, coords, facet = case
    n, divisor = matrix.size, DivisorClass.of(*coords)
    reduction = intmat.unipotent_reduction(matrix)
    unipotent_t, transposed = reduction.matrix.transpose(), matrix.transpose()
    w, step = None, tuple(facet)
    while any(step):
        w, step = step, tuple(a - b for a, b in zip(unipotent_t.column_action(step), step))
    facets = [w]
    for _ in range(reduction.power - 1):
        facets.append(transposed.column_action(facets[-1]))
    top = ComponentDescriptor("X", 2, SymmetricForm.of(n, 2, {}.items()))
    sf = SchemeFile(
        SchemeDescriptor(n, (top,)),
        {"cone": PolyhedralCone(n, tuple(facets))},
        {"P": AutomorphismAction("P", matrix)},
        {"D": divisor},
    )
    result = cli.cmd_sigma_ample(None, sf, sf.oracle(), "P", "D")
    q, reduction = result["unipotent_power"], result["reduction"]
    assert reduction["summed_divisor"] == reduction["partial_sums"][0]
    for m, got in enumerate(reduction["partial_sums"], 1):
        expected = engine.partial_sum(matrix, divisor, q * m)
        assert got == [format_rational(c) for c in expected.coords]


def test_gkdim_p2(capsys):
    code, doc, _ = run_json(capsys, "gkdim", "p2", "--auto", "id", "--divisor", "D")
    (result,) = doc["results"]
    assert result["gk_dimension"] == 3


def test_gkdim_abelian(capsys):
    code, doc, _ = run_json(
        capsys, "gkdim", "abelian_square", "--auto", "shear", "--divisor", "D111"
    )
    (result,) = doc["results"]
    assert result["gk_dimension"] == 5
    comp = result["components"][0]
    assert comp["degree"] == 4
    assert comp["leading"] == "2/3"
    assert comp["binomial_coefficients"][-1] == "16"  # 2/3 m^4 + 16/3 m^2 in binomials


def test_growth_exponential(capsys):
    code, doc, _ = run_json(
        capsys,
        "growth",
        "wehler_k3",
        "--auto",
        "s1s2",
        "--divisor",
        "H1plusH2",
        "--mmax",
        "12",
    )
    (result,) = doc["results"]
    assert result["kind"] == "exponential"
    assert result["threshold_exceeded"] is True
    last = Fraction(result["ratios"][-1])
    assert abs(last - Fraction(139282, 10000)) < Fraction(2, 100) * Fraction(139282, 10000)


def test_growth_polynomial(capsys):
    code, doc, _ = run_json(
        capsys, "growth", "p2", "--auto", "id", "--divisor", "D"
    )
    (result,) = doc["results"]
    assert result == {
        "action": "id",
        "divisor": "D",
        "mmax": 12,
        "kind": "polynomial",
        "gk_dimension": 3,
        "hilbert_degree": 2,
    }


def test_text_classify_approximates_a_radius_beyond_the_float_range(tmp_path, capsys):
    # x^2 - 10^400 x + 1: the radius is just below 10^400, past the largest float
    big = "1" + "0" * 400
    doc = {
        "rank": 2,
        "components": [{"name": "X", "dim": 1, "top_form": []}],
        "oracles": [{"name": "ample", "kind": "polyhedral", "data": {"facets": [["1", "0"]]}}],
        "automorphisms": [{"name": "big", "matrix": [[big, "1"], ["-1", "0"]]}],
        "divisors": [],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "classify", str(path), "--auto", "big")
    assert (code, err) == (0, "")
    approx = re.fullmatch(r".*\(~(\d+\.\d{5})\)", out.splitlines()[-1]).group(1)
    assert abs(Fraction(approx) - 10**400) < Fraction(1, 1000)


@pytest.mark.parametrize(
    "ratio, text",
    [(str(10**400), f"{10**400}.00000"), ("1/200000", "0.00000"), ("3/200000", "0.00002"),
     ("-1/3", "-0.33333"), ("139282/10000", "13.92820")],
    ids=["1e400", "tie_to_even_down", "tie_to_even_up", "negative", "trailing_zero"],
)
def test_text_growth_approximates_the_last_ratio_exactly(ratio, text):
    # rounded half to even from the exact value: 1/200000 is a tie that the
    # float 5e-06, a little above it, would round up
    r = {
        "action": "a",
        "divisor": "D",
        "kind": "exponential",
        "spectral_radius": {"lo": "1", "hi": "2"},
        "ratios": ["1", ratio],
        "threshold_exceeded": True,
    }
    assert f", last ratio ~{text}, " in cli._text_growth(r)


def test_chi_series(capsys):
    code, doc, _ = run_json(
        capsys, "chi", "wehler_k3", "--auto", "id", "--divisor", "H1", "--mmax", "3"
    )
    (result,) = doc["results"]
    assert result["values"] == ["3", "6", "11"]


def test_catalog_list(capsys):
    code, doc, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    assert len(doc["entries"]) >= 5
    assert "wehler_k3" in doc["entries"]


def test_catalog_show(capsys):
    code, doc, _ = run_json(capsys, "catalog", "show", "wehler_k3")
    forms = doc["document"]["components"][0]["top_form"]
    assert {"index": [0, 1], "value": "4"} in forms
    names = {a["name"] for a in doc["document"]["automorphisms"]}
    assert {"s1", "s2", "s1s2"} <= names


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_entry_and_its_shown_file_give_equal_results(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    code, out, _ = run(capsys, "catalog", "show", name)
    assert code == 0
    path.write_text(out, encoding="utf-8")
    sf = catalog_entry(name)
    queries = []
    for aname in sf.automorphisms:
        queries.append(("classify", "--auto", aname))
        for dname in sf.divisors:
            queries += [
                (command, "--auto", aname, "--divisor", dname)
                for command in ("sigma-ample", "gkdim", "growth", "chi")
            ]
    for command, *rest in queries:
        by_name, by_file = (
            run(capsys, "--format", "structured", command, source, *rest)
            for source in (name, str(path))
        )
        assert by_name[0] == by_file[0], (command, rest)
        if by_name[0] == 0:
            results = [json.loads(out)["results"] for _, out, _ in (by_name, by_file)]
            assert results[0] == results[1], (command, rest)
        else:
            assert by_name[2] == by_file[2], (command, rest)


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "nope")
    assert code == 3
    assert "nope" in err


def test_validate_catalog(capsys):
    code, doc, _ = run_json(capsys, "validate", "wehler_k3")
    assert code == 0
    assert doc["valid"] is True


def _invalid_file(tmp_path) -> str:
    doc = json.loads(serialize_scheme_file(catalog_entry("wehler_k3")))
    doc["automorphisms"].append({"name": "double", "matrix": [["2", "0"], ["0", "2"]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_rejects_doubled_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "--format", "structured", "validate", _invalid_file(tmp_path))
    assert code == 2
    report = json.loads(out)
    assert report["valid"] is False
    double = next(a for a in report["actions"] if a["name"] == "double")
    failing = [c for c in double["checks"] if not c["passed"]]
    assert any("det=4" in c["detail"] for c in failing)


def test_other_commands_refuse_invalid_files(tmp_path, capsys):
    code, _, err = run(capsys, "classify", _invalid_file(tmp_path), "--auto", "s1")
    assert code == 2
    assert "double" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"rank": 2,,}', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line" in err


def test_malformed_multi_index_is_parse_error(tmp_path, capsys):
    sf = catalog_entry("wehler_k3")
    doc = json.loads(serialize_scheme_file(sf))
    doc["components"][0]["top_form"][1]["index"] = [1, 0]
    path = tmp_path / "decreasing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "non-decreasing" in err


@pytest.mark.parametrize(
    "text",
    ["[" * 2000 + "]" * 2000, '{"rank": ' + "1" * 4301 + "}"],
    ids=["deep_nesting", "long_integer"],
)
def test_undecodable_json_exits_2(text, tmp_path, capsys):
    path = tmp_path / "undecodable.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: document: ") and err.count("\n") == 1


def test_exponent_notation_exits_2(tmp_path):
    # Fraction would expand the coordinate into a billion-digit integer
    doc = json.loads(serialize_scheme_file(catalog_entry("p1")))
    doc["divisors"][0]["coords"] = ["1e999999999"]
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    done = run_bounded("-m", "sigmaample.cli", "validate", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: divisors[0].coords[0]: bad rational '1e999999999': exponent notation is not accepted\n"


@pytest.mark.parametrize("todd", [False, True], ids=["top_form_only", "todd_invariant"])
def test_validate_empty_forms_of_large_dimension(todd, tmp_path):
    # dimension 2000 on rank 3: C(2002, 2000) basis tuples per form, all zero
    dim = 2000
    doc = {
        "rank": 3,
        "components": [
            {"name": "X", "dim": dim, "top_form": [], "todd": [[]] * (dim + 1) if todd else None}
        ],
        # the shear's transpose fixes e_1, so this facet is stable
        "oracles": [{"name": "ample", "kind": "polyhedral", "data": {"facets": [["0", "1", "0"]]}}],
        "automorphisms": [
            {"name": "id", "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            {
                "name": "shear",
                "matrix": [["1", "2", "0"], ["0", "1", "0"], ["0", "-1", "1"]],
                "todd_invariant": todd,
            },
        ],
        "divisors": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    done = run_bounded("-m", "sigmaample.cli", "--format", "structured", "validate", str(path))
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["valid"] is True


def test_non_utf8_file_exits_2(tmp_path, capsys):
    text = '{"rank": 2, "components": [{"name": "\xe9"}]}'
    path = tmp_path / "latin1.json"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: byte {text.index(chr(0xe9))}: not UTF-8 (invalid continuation byte)\n"


def test_unreadable_file_exits_2(tmp_path, monkeypatch, capsys):
    # a raising read_text, since a chmod 000 file stays readable to root
    path = tmp_path / "locked.json"
    path.write_text(serialize_scheme_file(catalog_entry("wehler_k3")), encoding="utf-8")

    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    for argv in (["validate", str(path)], ["classify", str(path), "--auto", "s1"]):
        assert run(capsys, *argv) == (2, "", f"error: cannot read {path}: Permission denied\n")


def test_directory_input_is_read_as_a_path(tmp_path, monkeypatch, capsys):
    # an existing path is read, so a directory named like a catalog entry
    # shadows the entry, as a regular file does
    (tmp_path / "p1").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "validate", "p1") == (2, "", f"error: cannot read p1: {os.strerror(errno.EISDIR)}\n")


def test_piped_input_is_read():
    shown = run_bounded("-m", "sigmaample.cli", "catalog", "show", "p1").stdout
    done = subprocess.run(
        [sys.executable, "-m", "sigmaample.cli", "validate", "/dev/stdin"],
        input=shown, capture_output=True, text=True, timeout=10, env=child_env(),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("input /dev/stdin: valid\n")


def _swapcone(tmp_path) -> str:
    """``swapcone_document`` written to a file."""
    path = tmp_path / "swapcone.json"
    path.write_text(json.dumps(swapcone_document()), encoding="utf-8")
    return str(path)


def test_validate_counts_cone_stability(tmp_path, capsys):
    path = _swapcone(tmp_path)
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        f"input {path}: INVALID",
        "  action swap: ok",
        "  oracle ample: ok",
        "  cone stability ample/swap: FAILED",
        "    facet_set_stable: facets map to [(-2, 1)]",
    ]


def test_text_validate_names_a_failed_scheme_check(tmp_path, capsys):
    doc = json.loads(serialize_scheme_file(catalog_entry("p1")))
    doc["euler_char"] = "5"
    path = tmp_path / "bad_euler.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (2, "")
    assert out.splitlines()[:3] == [
        f"input {path}: INVALID",
        "  scheme: FAILED",
        "    euler_char_consistent: todd constants sum to 1, declared 5",
    ]


def test_gkdim_agrees_with_sigma_ample_on_an_unstable_cone(tmp_path, capsys):
    path = _swapcone(tmp_path)
    query = ["--auto", "swap", "--divisor", "D"]
    refused = (
        "error: action 'swap' does not keep the oracle's cone: "
        "facet_set_stable (facets map to [(-2, 1)])\n"
    )
    for command in ("sigma-ample", "gkdim", "growth"):
        assert run(capsys, command, path, *query) == (2, "", refused)
    # classify takes no oracle, so it still answers
    assert run(capsys, "classify", path, "--auto", "swap")[0] == 0


def test_query_errors_come_in_input_order(capsys):
    # the first query's unknown divisor is met before the second --auto
    argv = ["sigma-ample", "wehler_k3", "--auto", "s1", "--auto", "nope", "--divisor", "nope2"]
    assert run(capsys, *argv) == (3, "", "error: no divisor named 'nope2'\n")


def test_closed_stdout_exits_1_without_traceback():
    # the read end is closed before the child starts, so its first flush of
    # stdout fails with EPIPE whatever the timing
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sigmaample.cli", "catalog", "show", "wehler_k3"],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=10, env=child_env(),
        )
    finally:
        os.close(w)
    # nothing on stderr: no Traceback, no "Exception ignored ... BrokenPipeError"
    assert (done.returncode, done.stderr) == (1, "")


def test_catalog_show_without_a_name_is_unknown_name(capsys):
    assert run(capsys, "catalog", "show") == (3, "", "error: catalog show requires an entry name\n")


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class _FreshError(SigmaAmpleError):
    """A library error that no table names."""


# every library error, _FreshError among them, and ValueError
_FAILURES = [SigmaAmpleError, *_subclasses(SigmaAmpleError), ValueError]


@pytest.mark.parametrize("kind", _FAILURES, ids=lambda kind: kind.__name__)
def test_exit_status_of_each_failure(kind, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise kind("refused here")

    if issubclass(kind, (SchemeParseError, InvalidSchemeData)):
        expected = 2
    elif issubclass(kind, UnknownName):
        expected = 3
    else:
        expected = 4
    monkeypatch.setattr(cli, "cmd_chi", fail)
    argv = ["chi", "wehler_k3", "--auto", "id", "--divisor", "H1"]
    assert run(capsys, *argv) == (expected, "", "error: refused here\n")


def _run_entry(argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``entry()`` in a child, as the console script runs it: it ends its
    process with ``os._exit``, so it cannot run inside the test process. The
    child's stdout is block-buffered, as a console script's is
    (``child_env`` drops PYTHONUNBUFFERED), so bytes that are not flushed
    before the exit are lost."""
    return subprocess.run(
        [sys.executable, "-c", "from sigmaample.cli import entry; entry()", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=30, env=child_env(),
    )


def test_console_script_runs_cli_entry(tmp_path):
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'sigmaample = "sigmaample.cli:entry"' in pyproject
    broken = tmp_path / "broken.json"
    broken.write_text('{"rank": 2,,}', encoding="utf-8")
    err = ""
    for argv, expected in ((["validate", "wehler_k3"], 0), (["validate", str(broken)], 2)):
        done = _run_entry(argv)
        assert done.returncode == expected
        err += done.stderr
    assert err == "error: line 1 column 12: Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "pipe"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "structured", "catalog", "show", "wehler_k3"],
        ["sigma-ample", "abelian_square", "--auto", "shear", "--auto", "swap",
         "--divisor", "D111", "--divisor", "fiber1", "--divisor", "minusD"],
        ["--format", "structured", "validate", "INVALID"],
        ["gkdim", "wehler_k3", "--auto", "s1s2", "--divisor", "H1"],
    ],
    ids=["catalog-show", "sigma-ample-batch", "exit-2", "exit-4"],
)
def test_entry_flushes_every_byte_before_it_exits(argv, to_file, tmp_path, capsys):
    argv = [_invalid_file(tmp_path) if a == "INVALID" else a for a in argv]
    expected = run(capsys, *argv)
    if to_file:
        with open(tmp_path / "stdout", "w+", encoding="utf-8") as out:
            done = _run_entry(argv, stdout=out)
            out.seek(0)
            stdout = out.read()
    else:
        done = _run_entry(argv)
        stdout = done.stdout
    assert (done.returncode, stdout, done.stderr) == expected


def test_unknown_input_name(capsys):
    code, _, err = run(capsys, "classify", "no_such_entry", "--auto", "id")
    assert code == 3


def test_unknown_action_name(capsys):
    code, _, err = run(capsys, "classify", "wehler_k3", "--auto", "zeta")
    assert code == 3


def test_precondition_failure_exit_code(capsys):
    code, _, err = run(
        capsys, "gkdim", "wehler_k3", "--auto", "id", "--divisor", "minusH1"
    )
    assert code == 4
    assert "ample" in err


def test_gkdim_refuses_non_quasi_unipotent(capsys):
    code, _, err = run(
        capsys, "gkdim", "wehler_k3", "--auto", "s1s2", "--divisor", "H1"
    )
    assert code == 4
    assert "quasi-unipotent" in err


def test_growth_with_vanishing_euler_characteristic(tmp_path, capsys):
    # a file validate accepts, whose chi at m=1 is (H1+H2)^2 / 2 - 6 = 0
    doc = json.loads(serialize_scheme_file(catalog_entry("wehler_k3")))
    doc["components"][0]["todd"][0] = [{"index": [], "value": "-6"}]
    doc.pop("euler_char")
    path = tmp_path / "vanishing_chi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run(
        capsys, "growth", str(path), "--auto", "s1s2", "--divisor", "H1plusH2"
    )
    assert (code, out) == (4, "")
    assert err == "error: Euler characteristic vanished at m=1\n"


def test_chi_without_todd_data(tmp_path, capsys):
    doc = json.loads(serialize_scheme_file(catalog_entry("wehler_k3")))
    doc["components"][0]["todd"] = None
    doc.pop("euler_char")
    path = tmp_path / "no_todd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(
        capsys, "chi", str(path), "--auto", "id", "--divisor", "H1"
    )
    assert code == 4
    assert "Todd" in err


def test_reports_are_byte_identical_across_runs(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run(
            capsys, "--format", "structured", "classify", "wehler_k3", "--auto", "s1s2"
        )
        outputs.add(out)
    assert len(outputs) == 1
    shown = set()
    for _ in range(2):
        _, out, _ = run(capsys, "--format", "structured", "catalog", "show", "abelian_square")
        shown.add(out)
    assert len(shown) == 1


def test_batch_queries_with_jobs(capsys):
    code, doc, _ = run_json(
        capsys,
        "--jobs",
        "4",
        "sigma-ample",
        "wehler_k3",
        "--auto",
        "s1",
        "--auto",
        "s2",
        "--divisor",
        "H1",
        "--divisor",
        "H2",
    )
    assert code == 0
    assert [(r["action"], r["divisor"]) for r in doc["results"]] == [
        ("s1", "H1"),
        ("s1", "H2"),
        ("s2", "H1"),
        ("s2", "H2"),
    ]
    assert all(r["sigma_ample"] for r in doc["results"])


def test_text_format_mentions_key_facts(capsys):
    code, out, _ = run(capsys, "classify", "wehler_k3", "--auto", "s1s2")
    assert "x^2-14x+1" in out
    assert "not quasi-unipotent" in out


def test_file_input_round_trip(tmp_path, capsys):
    path = tmp_path / "wehler.json"
    path.write_text(serialize_scheme_file(catalog_entry("wehler_k3")), encoding="utf-8")
    code, doc, _ = run_json(
        capsys, "sigma-ample", str(path), "--auto", "s1", "--divisor", "H1"
    )
    assert code == 0
    assert doc["results"][0]["sigma_ample"] is True


def test_oracle_flag_required_with_multiple_oracles(tmp_path, capsys):
    doc = json.loads(serialize_scheme_file(catalog_entry("wehler_k3")))
    doc["oracles"].append(
        {
            "name": "extra",
            "kind": "surface_positive_cone",
            "data": {"component": "X", "reference_ample": ["1", "0"], "obstructions": []},
        }
    )
    path = tmp_path / "two_oracles.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "sigma-ample", str(path), "--auto", "s1", "--divisor", "H1")
    assert code == 3
    assert "oracle" in err
    code, out, _ = run(
        capsys,
        "--format",
        "structured",
        "sigma-ample",
        str(path),
        "--auto",
        "s1",
        "--divisor",
        "H1",
        "--oracle",
        "extra",
    )
    assert code == 0
    assert json.loads(out)["oracle"] == "extra"


def test_file_without_oracles_says_so(tmp_path, capsys):
    doc = json.loads(serialize_scheme_file(catalog_entry("wehler_k3")))
    doc["oracles"] = []
    path = tmp_path / "no_oracles.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "sigma-ample", str(path), "--auto", "s1", "--divisor", "H1")
    assert code == 3
    assert out == ""
    assert err == "error: the input defines no oracle\n"


def test_classify_a_complex_dominant_pair(tmp_path, capsys, monkeypatch):
    # the companion matrix of x^4 + x^3 - 2x^2 - 2x + 1: its largest real
    # root is ~1.28879, below the pair of modulus ~1.41161, so the count at
    # the upper end of the cell on p's own Sturm chain refuses it, and the
    # count of roots beyond each midpoint above that end finds the radius
    doc = {
        "rank": 4,
        "components": [{"name": "X", "dim": 2, "top_form": []}],
        "automorphisms": [{"name": "c", "matrix": [
            ["0", "0", "0", "-1"], ["1", "0", "0", "2"], ["0", "1", "0", "2"], ["0", "0", "1", "-1"],
        ]}],
        "divisors": [],
    }
    path = tmp_path / "companion.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = []
    count = intmat._roots_beyond
    monkeypatch.setattr(
        intmat, "_roots_beyond", lambda p, r: calls.append((r, count(p, r))) or calls[-1][1]
    )
    assert run(capsys, "validate", str(path))[0] == 0
    code, out, err = run_json(capsys, "classify", str(path), "--auto", "c")
    assert (code, err) == (0, "")
    # 1.28879 lies in the cell [1759, 1760] * 3/4096 of the grid over [0, 3]
    (certificate, beyond), *fallback = calls
    assert certificate == Fraction(165, 128) and beyond > 0
    assert fallback and all(r > certificate for r, _ in fallback)
    assert out["results"][0]["spectral_radius"] == {"lo": "5781/4096", "hi": "723/512"}


def test_cross_process_byte_determinism():
    env = child_env()
    cmd = [
        sys.executable,
        "-m",
        "sigmaample.cli",
        "--format",
        "structured",
        "classify",
        "wehler_k3",
        "--auto",
        "s1s2",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
    second = subprocess.run(cmd, capture_output=True, check=True, env=env).stdout
    assert first == second


def test_cli_import_loads_no_code_generation_modules():
    # dataclasses and what it imports cost milliseconds on every CLI start;
    # modules the interpreter loaded before the import do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sigmaample.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, text=True, env=child_env()
    ).stdout.split()
    assert "sigmaample.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded)


def test_no_package_module_imports_dataclasses():
    package = Path(sigmaample.__file__).parent
    pattern = re.compile(r"^\s*(from|import)\s+dataclasses\b", re.MULTILINE)
    assert [p.name for p in sorted(package.glob("*.py")) if pattern.search(p.read_text())] == []


def test_classify_computes_each_characteristic_polynomial_once(capsys):
    for cache in (
        intmat.char_poly,
        intmat.unipotent_reduction,
        engine._first_validation_failure,
    ):
        cache.cache_clear()
    assert main(["classify", "wehler_k3", "--auto", "s1s2"]) == 0
    info = intmat.char_poly.cache_info()
    # one Berkowitz run per action of the file (validation), then the
    # printed polynomial, quasi-unipotence and the spectral radius read it
    assert (info.misses, info.hits) == (4, 3)


def test_each_action_is_checked_against_the_oracle_cone_once(monkeypatch, capsys):
    engine._first_validation_failure.cache_clear()
    seen = []
    checks = SurfacePositiveCone.stability_checks

    def spy(oracle, action):
        seen.append(action.name)
        return checks(oracle, action)

    monkeypatch.setattr(SurfacePositiveCone, "stability_checks", spy)
    query = ["wehler_k3", "--auto", "id", "--auto", "s1", "--divisor", "H1", "--divisor", "H2"]
    for command in ("sigma-ample", "gkdim"):
        assert main([command, *query]) == 0
    capsys.readouterr()
    # gkdim and its own sigma-ample verdict read the cache the first batch filled
    assert seen == ["id", "s1"]


# The usage block of every parser at 80 columns: the command table must
# declare the same arguments, in the same order, as the hand-built parsers.
USAGE = {
    None: (
        "usage: sigmaample [-h] [--format {text,structured}] [--jobs JOBS]\n"
        "                  {validate,classify,sigma-ample,gkdim,growth,chi,catalog} ...\n"
    ),
    "validate": "usage: sigmaample validate [-h] input\n",
    "classify": "usage: sigmaample classify [-h] --auto AUTO [--eps EPS] input\n",
    "sigma-ample": (
        "usage: sigmaample sigma-ample [-h] --auto AUTO --divisor DIVISOR\n"
        "                              [--oracle ORACLE]\n"
        "                              input\n"
    ),
    "gkdim": (
        "usage: sigmaample gkdim [-h] --auto AUTO --divisor DIVISOR [--oracle ORACLE]\n"
        "                        input\n"
    ),
    "growth": (
        "usage: sigmaample growth [-h] --auto AUTO --divisor DIVISOR [--oracle ORACLE]\n"
        "                         [--mmax MMAX] [--eps EPS]\n"
        "                         input\n"
    ),
    "chi": "usage: sigmaample chi [-h] --auto AUTO --divisor DIVISOR [--mmax MMAX] input\n",
    "catalog": "usage: sigmaample catalog [-h] {list,show} [name]\n",
}


@pytest.mark.parametrize("command", list(USAGE))
def test_help_usage_block(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out[: out.index("\n\n") + 1] == USAGE[command]


DISPATCH = {
    "validate": ["validate", "p1"],
    "classify": ["classify", "p1", "--auto", "id"],
    "sigma_ample": ["sigma-ample", "p1", "--auto", "id", "--divisor", "D"],
    "gkdim": ["gkdim", "p1", "--auto", "id", "--divisor", "D"],
    "growth": ["growth", "p1", "--auto", "id", "--divisor", "D"],
    "chi": ["chi", "p1", "--auto", "id", "--divisor", "D"],
    "catalog": ["catalog", "list"],
}


@pytest.mark.parametrize("name", list(DISPATCH))
def test_main_calls_the_module_level_command_function(name, monkeypatch, capsys):
    # main must find cmd_<name> on the module when it runs, so that a
    # rebinding (a tracer's timing wrapper, a test double) takes effect
    original = getattr(cli, f"cmd_{name}")
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, f"cmd_{name}", counting)
    assert main(DISPATCH[name]) == 0
    assert calls
