import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

import circlekit.circle
import circlekit.cli
import circlekit.integrals
from circlekit.arith import ProblemInstance, divisor_sieve, exact_S_direct
from circlekit.budget import DEFAULT_BUDGET
from circlekit.cli import (
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    REPORT_SCHEMA,
    main,
)
from circlekit.errors import (
    BudgetError,
    DomainError,
    NumericalIntegrityError,
    PrecisionError,
    SizeError,
    VerificationMismatch,
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses malformed flags before main's try
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_table_all_match(capsys):
    code, out, _ = run(capsys, "delta", "--k", "3..12")
    assert code == EXIT_OK
    assert out.count("MATCH") == 10 and "MISMATCH" not in out


def test_delta_k20_formula_row(capsys):
    code, out, _ = run(capsys, "delta", "--k", "20")
    assert code == EXIT_OK
    assert "7611/167200" in out  # 1/22 + 1/15200


def test_delta_rejects_small_k(capsys):
    code, _, err = run(capsys, "delta", "--k", "2")
    assert code == EXIT_USAGE
    assert "k must be >= 3" in err


def test_series_q1(capsys):
    code, out, _ = run(capsys, "series", "--k", "3", "--q-max", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["series"]["sigma1"] == 1.0
    jsonschema.validate(report, REPORT_SCHEMA)


def test_series_csv_running_sums(capsys):
    code, out, _ = run(capsys, "series", "--k", "3", "--q-max", "8", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert [row["q"] for row in rows] == [str(q) for q in range(1, 9)]
    assert float(rows[0]["sigma1"]) == 1.0
    assert float(rows[1]["A_k"]) == 0.0  # density vanishes at q=2


def test_verify_trivial_x(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "3", "--x", "1", "--q-max", "5"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    record = report["records"][0]
    assert record["exact"] == 3
    assert record["methods"] == {"direct": 3, "convolution": 3}


def test_verify_report_schema_and_trend(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "3", "--x", "100,1000", "--q-max", "50"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["diagnostics"]["residual_trend"] in ("decreasing", "FAIL-SOFT")
    assert report["delta_table"][0]["match"] is True
    assert [set(entry) for entry in report["integrals"]] == [{"k", "which", "value", "error"}] * 2


def test_verify_deterministic_output(capsys, tmp_path):
    args = ["verify", "--k", "3", "--x", "10,100", "--q-max", "20"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--k", "3", "--x", "1,4", "--q-max", "5",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert [int(r["exact"]) for r in rows] == [3, 23]


def test_verify_takes_no_B(capsys):
    # verify's J1 and J2 come from the reduced volume; only integral truncates a sweep
    code, out, err = run(capsys, "verify", "--k", "3", "--x", "10", "--B", "400")
    assert (code, out) == (EXIT_USAGE, "")
    assert "unrecognized arguments: --B" in err


# one integrals entry of each shape: the sweep's (integral) and the reduced volume's (verify)
INTEGRAL_ENTRIES = {
    "sweep": {"k": 3, "which": 1, "B": 400.0, "value": 0.99698, "quadrature_error": 2.8e-10,
              "tail_bound": 6.0e-05},
    "volume": {"k": 3, "which": 1, "value": 0.99698, "error": 7.1e-15},
}


@pytest.mark.parametrize("shape", INTEGRAL_ENTRIES)
def test_integral_entry_missing_a_required_field_fails_the_schema(shape):
    entry = INTEGRAL_ENTRIES[shape]
    meta = {"command": "verify", "version": "0", "flags": {}, "seed": 0, "budget": 1}
    jsonschema.validate({"meta": meta, "integrals": [entry]}, REPORT_SCHEMA)
    for field in entry:
        partial = {key: value for key, value in entry.items() if key != field}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"meta": meta, "integrals": [partial]}, REPORT_SCHEMA)


def test_verify_rejects_k_range(capsys):
    code, _, err = run(capsys, "verify", "--k", "3..5", "--x", "10")
    assert code == EXIT_USAGE
    assert "single k" in err


def test_verify_ignores_duplicate_x(capsys):
    base = ["verify", "--k", "3", "--q-max", "20"]
    code, out, _ = run(capsys, *base, "--x", "100,100,1000")
    assert code == EXIT_OK
    repeated = json.loads(out)
    code, out, _ = run(capsys, *base, "--x", "100,1000")
    assert code == EXIT_OK
    single = json.loads(out)
    assert repeated["records"] == single["records"]
    assert repeated["diagnostics"] == single["diagnostics"]


@pytest.mark.parametrize(
    "argv",
    [
        ["integral", "--k", "3", "--B", "nan"],
        ["integral", "--k", "3", "--B", "inf"],
    ],
)
def test_non_finite_B_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert "finite" in err


def test_integral_sweep_budget_refused_up_front(capsys, monkeypatch):
    # B = 1e6 would need about 1.4e13 sweep nodes; refused before allocating
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1000000")
    code, _, err = run(capsys, "integral", "--k", "3", "--B", "1e6")
    assert code == EXIT_BUDGET
    assert "singular-integral sweep" in err


@pytest.mark.parametrize(
    "grid, code, prefix",
    [("32", EXIT_USAGE, "usage error:"), ("10000000", EXIT_BUDGET, "budget error:")],
)
def test_integral_refuses_grid_before_the_sweep(capsys, monkeypatch, grid, code, prefix):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --grid was checked")

    monkeypatch.setattr(circlekit.integrals, "_sweep", no_sweep)
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    got, out, err = run(capsys, "integral", "--k", "3", "--B", "2000", "--grid", grid)
    assert (got, out) == (code, "")
    assert err.startswith(prefix)


def test_integral_refuses_the_sweep_before_the_oracle(capsys, monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the sweep's budget was checked")

    monkeypatch.setattr(circlekit.integrals, "volume_midpoint", no_oracle)
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    got, out, err = run(capsys, "integral", "--k", "3", "--B", "1e6", "--grid", "64")
    assert (got, out) == (EXIT_BUDGET, "")
    assert "singular-integral sweep" in err


def test_series_budget_refused_up_front(capsys, monkeypatch):
    # Q = 10^6 is charged 10^6 (1000 + 3) units; refused before any local density
    def no_density(q, k):
        raise AssertionError("local density computed before the budget check")

    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1000000")
    monkeypatch.setattr("circlekit.series._spectrum_density", no_density)
    code, out, err = run(capsys, "series", "--k", "3", "--q-max", "1000000")
    assert code == EXIT_BUDGET
    assert out == ""
    assert "singular series" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--k", "3..5"],
        ["integral", "--k", "3..5", "--B", "5"],
        ["diagnostics", "hua", "--k", "3..5"],
    ],
)
def test_single_k_commands_reject_k_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert f"{argv[0]} takes a single k" in err
    assert out == ""


def test_integral_with_oracle(capsys):
    code, out, _ = run(
        capsys, "integral", "--k", "3", "--which", "1", "--B", "200", "--grid", "64"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    entry = report["integrals"][0]
    assert entry["oracle_gap"] < 1e-3


def test_integral_csv_carries_the_oracle_columns_with_grid(capsys):
    # the volume oracle --grid computes is written to the CSV too, and the
    # CSV rows hold the JSON entry's cells
    argv = ["integral", "--k", "3", "--B", "20", "--grid", "64"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["k", "which", "B", "value", "quadrature_error", "tail_bound",
                      "oracle", "oracle_gap"]
    entries = json.loads(run(capsys, *argv)[1])["integrals"]
    assert rows == [[str(e[c]) for c in header] for e in entries]
    code, out, _ = run(capsys, "integral", "--k", "3", "--B", "20", "--format", "csv")
    assert out.splitlines()[0] == "k,which,B,value,quadrature_error,tail_bound"


def test_integral_reports_B_unrounded(capsys):
    # every other float is cut to 12 significant digits; B echoes the flag
    code, out, _ = run(capsys, "integral", "--k", "3", "--which", "1", "--B", "5.0123456789012345")
    assert code == EXIT_OK
    assert json.loads(out)["integrals"][0]["B"] == 5.0123456789012345


def test_integral_scan_csv(capsys):
    code, out, _ = run(
        capsys, "integral", "--k", "3", "--which", "1", "--B", "5", "--scan", "6",
        "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 6
    assert set(rows[0]) == {"beta", "re_density", "im_density", "envelope_ratio"}
    assert float(rows[0]["re_density"]) == pytest.approx(3.0, abs=1e-9)


def test_integral_scan_csv_runs_neither_sweep_nor_oracle(capsys, monkeypatch):
    # the CSV holds only the scan rows; the sweep and the oracle are still
    # charged, so an over-budget grid keeps its exit code
    def refuse(*args, **kwargs):
        raise AssertionError("the scan's CSV ran a computation it does not print")

    monkeypatch.setattr(circlekit.cli, "j_values", refuse)
    monkeypatch.setattr(circlekit.cli, "j_volume_oracle", refuse)
    argv = ["integral", "--k", "3", "--which", "1", "--B", "400", "--scan", "3", "--grid", "64"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK and len(out.splitlines()) == 4
    code, out, err = run(capsys, *argv[:-1], "100000", "--format", "csv")
    assert (code, out) == (EXIT_BUDGET, "") and "volume oracle" in err


def test_diagnostics_hua(capsys):
    code, out, _ = run(
        capsys, "diagnostics", "hua", "--k", "3", "--j", "2", "--y", "100",
        "--format", "csv",
    )
    assert code == EXIT_OK
    row = next(csv.DictReader(out.splitlines()))
    assert row["count"] == "20260"


def test_diagnostics_dirichlet(capsys):
    code, out, _ = run(
        capsys, "diagnostics", "dirichlet", "--samples", "50", "--tau", "100",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["diagnostics"]["failures"] == 0


def test_diagnostics_minor_csv_columns(capsys):
    code, out, _ = run(
        capsys, "diagnostics", "minor", "--k", "3", "--x", "10000",
        "--samples", "20", "--format", "csv",
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert set(rows[0]) == {"alpha", "a", "q", "lambda", "observed", "bound", "ratio"}
    assert len(rows) == 20


# each probe's flags, and the library call that computes its table at them
PROBE_TABLES = {
    "vk": (["--k", "4", "--x", "10000", "--q-max", "6"],
           lambda: circlekit.circle.vk_envelope_scan(10000, 4, 6)),
    "expansion": (["--k", "3", "--x", "1000"],
                  lambda: circlekit.circle.expansion_envelope_scan(1000, 3)),
    "minor": (["--k", "3", "--x", "10000", "--samples", "30", "--seed", "2"],
              lambda: circlekit.circle.minor_arc_bound_profile(10000, 3, 30, 2)),
    "dirichlet": (["--samples", "40", "--tau", "37.5", "--seed", "1"],
                  lambda: circlekit.circle.dirichlet_contract_scan(40, 37.5, 1)),
    "hua": (["--k", "3", "--y", "30", "--j", "2"], None),
}


@pytest.mark.parametrize("probe", sorted(PROBE_TABLES))
def test_probe_table_is_its_csv_and_its_json_summary(capsys, probe):
    # the library's column table alone decides the CSV: its names are the
    # header, and it has one row per sample; JSON reports its largest
    # ratio, or for dirichlet the count of zero ratios.  hua's table is
    # its JSON block, one row.
    flags, compute = PROBE_TABLES[probe]
    code, out, _ = run(capsys, "diagnostics", probe, *flags)
    assert code == EXIT_OK
    block = json.loads(out)["diagnostics"]
    code, out, _ = run(capsys, "diagnostics", probe, *flags, "--format", "csv")
    assert code == EXIT_OK
    header, *rows = csv.reader(out.splitlines())
    if compute is None:
        [row] = rows
        assert {"probe": "hua", **dict(zip(header, map(int, row)))} == block
        return
    columns = {name: column.tolist() for name, column in compute().columns.items()}
    assert header == list(columns)
    assert len(rows) > 0
    assert all(len(column) == len(rows) for column in columns.values())
    ratios = columns["ratio"]
    if probe == "dirichlet":
        assert block["failures"] == ratios.count(0)
    else:
        assert block["constant"] == float(f"{max(ratios):.12g}")


# the rounding helper each CSV cell passes through, the rows and the
# columns rounded by it
@pytest.mark.parametrize("argv, helper, rows, rounded", [
    (("diagnostics", "dirichlet", "--samples", "50", "--tau", "100"), "_cell", 50, 7),
    (("series", "--k", "3", "--q-max", "8"), "_sig12", 8, 3),
])
def test_json_reports_build_no_csv_rows(monkeypatch, capsys, argv, helper, rows, rounded):
    original, calls = getattr(circlekit.cli, helper), []
    monkeypatch.setattr(circlekit.cli, helper, lambda v: calls.append(v) or original(v))
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and json.loads(out)
    json_calls = len(calls)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK and len(out.splitlines()) == rows + 1
    # the CSV pass repeats the JSON report's calls and adds one per cell
    assert len(calls) - 2 * json_calls == rows * rounded


def test_sieve_command(capsys):
    code, out, _ = run(capsys, "sieve", "--n", "1000")
    assert code == EXIT_OK
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["sieve"]["sum_d"] == 7069
    assert report["sieve"]["sum_d_squared"] == 75083


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "10")
    code, _, err = run(capsys, "sieve", "--n", "10000")
    assert code == 4
    assert "budget" in err.lower()


def test_out_of_memory_exits_4_without_traceback(capsys, monkeypatch):
    # stands in for an allocation the budget does not cover, such as the
    # sweep nodes of `integral --k 3 --B 11000` under a 4 GiB address space
    def exhausted(B):
        raise MemoryError("Unable to allocate 8.6 GiB")

    monkeypatch.setattr(circlekit.integrals, "_beta_edges", exhausted)
    code, out, err = run(capsys, "integral", "--k", "3", "--B", "400")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "budget error: out of memory: Unable to allocate 8.6 GiB\n"


LIBRARY_FAILURES = [
    (BudgetError(10, 5, "sieve"), 4, "budget error: "),
    (MemoryError("Unable to allocate 1 GiB"), 4, "budget error: out of memory: "),
    (VerificationMismatch("direct=1 convolution=2"), 3, "verification mismatch: "),
    (NumericalIntegrityError("cancellation"), 5, "numerical integrity error: "),
    (PrecisionError("rounding"), 5, "numerical integrity error: "),
    (DomainError("bad k"), 2, "usage error: "),
    (SizeError("too large"), 2, "usage error: "),
]


@pytest.mark.parametrize(
    "failure, code, prefix", LIBRARY_FAILURES, ids=[type(f[0]).__name__ for f in LIBRARY_FAILURES]
)
def test_each_failure_maps_to_its_exit_code_and_prefix(capsys, monkeypatch, failure, code, prefix):
    def fail(limit):
        raise failure

    monkeypatch.setattr(circlekit.cli, "divisor_sieve", fail)
    got, out, err = run(capsys, "sieve", "--n", "10")
    assert (got, out, err) == (code, "", f"{prefix}{failure}\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [["sieve", "--n", "10"], ["delta", "--k", "3"]], ids=["sieve", "delta"]
)
def test_closed_stdout_exits_141_without_traceback(argv, buffered):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "circlekit.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == ""


def test_malformed_budget_is_usage_error():
    env = dict(os.environ, CIRCLEKIT_BUDGET="abc")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "circlekit.cli", "sieve", "--n", "10"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == EXIT_USAGE
    assert "CIRCLEKIT_BUDGET" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e3x"])
def test_malformed_budget_values_rejected(capsys, monkeypatch, raw):
    monkeypatch.setenv("CIRCLEKIT_BUDGET", raw)
    code, _, err = run(capsys, "sieve", "--n", "10")
    assert code == EXIT_USAGE
    assert "CIRCLEKIT_BUDGET" in err


def test_empty_budget_means_default(capsys, monkeypatch):
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "")
    code, out, _ = run(capsys, "sieve", "--n", "10")
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["budget"] == DEFAULT_BUDGET


def test_verify_mismatch_exits_3_without_report(capsys, monkeypatch, tmp_path):
    honest = circlekit.cli.exact_S_convolution
    monkeypatch.setattr(
        circlekit.cli, "exact_S_convolution", lambda *a, **kw: honest(*a, **kw) + 1
    )
    out_file = tmp_path / "report.json"
    base = ["verify", "--k", "3", "--x", "10", "--q-max", "5", "--method", "both"]
    code, out, err = run(capsys, *base)
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.startswith("verification mismatch:")
    assert "k=3, x=10" in err
    inst = ProblemInstance(x=10, k=3)
    direct = exact_S_direct(inst, divisor_sieve(inst.max_value))
    assert f"direct={direct}" in err and f"convolution={direct + 1}" in err
    code, out, _ = run(capsys, *base, "--out", str(out_file))
    assert code == EXIT_MISMATCH
    assert out == "" and not out_file.exists()


@pytest.mark.parametrize("case", ["budget", "mismatch"])
def test_verify_exact_values_come_before_the_constants(capsys, monkeypatch, case):
    def no_constants(*args, **kwargs):
        raise AssertionError("constants computed before the exact values")

    monkeypatch.setattr(circlekit.cli, "sigma_truncated", no_constants)
    if case == "budget":
        # 10^11 ordered tuples: the direct route's budget refuses
        code, out, err = run(capsys, "verify", "--k", "3", "--x", "1000000")
        assert (code, out) == (EXIT_BUDGET, "")
        assert err.startswith("budget error:")
        return
    convolution = circlekit.cli.exact_S_convolution
    monkeypatch.setattr(
        circlekit.cli, "exact_S_convolution", lambda *a, **kw: convolution(*a, **kw) + 1
    )
    code, out, err = run(capsys, "verify", "--k", "3", "--x", "10", "--method", "both")
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err.startswith("verification mismatch:")


# A k past the largest float, the last k below 2^63, and 2^63.
BIG_K = "1" + "0" * 400
LAST_K = str(2**63 - 1)
PAST_K = str(2**63)
# a k range of about 10^23 entries
HUGE_RANGE = "3..1" + "0" * 23

# Inputs at the edge of each command's domain: (argv, exit code, stderr
# prefix).  A case with EXIT_OK runs, and its prefix is unused.
EDGE_CASES = [
    (["diagnostics", "dirichlet", "--tau", "nan", "--samples", "2"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "dirichlet", "--tau", "inf", "--samples", "2"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "dirichlet", "--tau", "nan", "--samples", "0"], EXIT_USAGE, "usage error:"),
    # q tau passes the largest float: each bound is 0.0, as in Python floats, with no warning
    (["diagnostics", "dirichlet", "--tau", "1e300", "--samples", "10"], EXIT_OK, ""),
    (["diagnostics", "vk", "--k", "3", "--x", "0"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "vk", "--k", "0", "--x", "100"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "minor", "--k", "3", "--x", "0"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", "3", "--B", "5", "--grid", "10000000"], EXIT_BUDGET, "budget error:"),
    (["integral", "--k", "3", "--B", "5", "--grid", "0"], EXIT_USAGE, "usage error:"),
    # the 2g = 64 grid would be valid; the g = 32 one is not
    (["integral", "--k", "3", "--B", "5", "--grid", "32"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", "3", "--B", "5", "--scan", "0"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", "3", "--B", "5", "--scan", "-3"], EXIT_USAGE, "usage error:"),
    # refused by the scan's density before any of it is computed
    (["integral", "--k", "0", "--B", "50", "--scan", "10"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", "-1", "--B", "50", "--scan", "10"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", "-2", "--B", "50", "--scan", "10"], EXIT_USAGE, "usage error:"),
    # budgeted before the scan or the sweep starts
    (["integral", "--k", "3", "--B", "400", "--scan", "10000000"], EXIT_BUDGET, "budget error:"),
    # B*B overflows a float
    (["integral", "--k", "3", "--B", "1e300"], EXIT_BUDGET, "budget error:"),
    # 300 (27e6 * 6 + 3), about 4.9e10 element adds in the j = 3 power
    (["diagnostics", "hua", "--k", "3", "--j", "3", "--y", "300"], EXIT_BUDGET, "budget error:"),
    # within budget, but the count may pass Python's 4,300-digit int-to-str
    # limit: refused before any add
    (["diagnostics", "hua", "--k", "1", "--j", "14", "--y", "2"], EXIT_USAGE, "usage error:"),
    (["verify", "--k", "3", "--x", "100", "--method", "direct",
      "--out", "/nonexistent/dir/f.json"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "minor", "--samples", "-4"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "dirichlet", "--samples", "-1"], EXIT_USAGE, "usage error:"),
    # numpy's default_rng takes no negative seed; refused before any work
    (["diagnostics", "minor", "--k", "3", "--seed", "-1"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "dirichlet", "--seed", "-1"], EXIT_USAGE, "usage error:"),
    # the probes are charged before their loops: 2.3e10, 1.1e10 and 2e15 units
    (["diagnostics", "dirichlet", "--samples", "1000000000"], EXIT_BUDGET, "budget error:"),
    (["diagnostics", "minor", "--k", "3", "--x", "1000000", "--samples", "10000000"],
     EXIT_BUDGET, "budget error:"),
    (["diagnostics", "vk", "--k", "3", "--x", "10000", "--q-max", "100000"],
     EXIT_BUDGET, "budget error:"),
    # refused on the Weyl and complete sums before any offset is formed
    (["diagnostics", "vk", "--k", "3", "--x", "1" + "0" * 400], EXIT_BUDGET, "budget error:"),
    # within budget at k = 200, but x is past the largest float
    (["diagnostics", "vk", "--k", "200", "--x", "1" + "0" * 400], EXIT_USAGE, "usage error:"),
    (["diagnostics", "minor", "--samples", "1", "--k", "200", "--x", "1" + "0" * 400],
     EXIT_USAGE, "usage error:"),
    (["diagnostics", "expansion", "--k", "200", "--x", "1" + "0" * 400],
     EXIT_USAGE, "usage error:"),
    (["diagnostics", "vk", "--k", "3", "--x", "10000", "--q-max", "1000000000"],
     EXIT_BUDGET, "budget error:"),
    (["diagnostics", "vk", "--k", "3", "--x", "100", "--q-max", "0"], EXIT_USAGE, "usage error:"),
    (["series", "--k", "-1", "--q-max", "10"], EXIT_USAGE, "usage error:"),
    (["series", "--k", "0", "--q-max", "10"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "hua", "--k", "-1", "--y", "5"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "hua", "--k", "0", "--y", "5"], EXIT_USAGE, "usage error:"),
    (["verify", "--k", "3", "--x", ",,"], EXIT_USAGE, "usage error:"),
    # 21 rows of 1.6e8 divisor terms, charged before the sieve
    (["diagnostics", "expansion", "--k", "3", "--x", "40000000"], EXIT_BUDGET, "budget error:"),
    # about 1500 small-beta nodes, each on the one small-beta table that
    # serves every k
    (["integral", "--k", "20000", "--B", "20"], EXIT_OK, ""),
    # 8 error terms at 29 candidate cutoffs for each of 10^8 k, before any row
    (["delta", "--k", "3..100000000"], EXIT_BUDGET, "budget error:"),
    # a range past sys.maxsize entries, which len() cannot count: delta is
    # refused by its charge, every single-k command by its k
    (["delta", "--k", HUGE_RANGE], EXIT_BUDGET, "budget error:"),
    (["verify", "--k", HUGE_RANGE], EXIT_USAGE, "usage error:"),
    (["integral", "--k", HUGE_RANGE], EXIT_USAGE, "usage error:"),
    (["series", "--k", HUGE_RANGE], EXIT_USAGE, "usage error:"),
    (["diagnostics", "vk", "--k", HUGE_RANGE], EXIT_USAGE, "usage error:"),
    # sieve takes no k, so the range is never expanded into a list
    (["sieve", "--n", "10", "--k", "3..100000000"], EXIT_USAGE, "usage:"),
    # k from 2^63 on, past the int64 exponent of every k-th power, is
    # refused before any phase, power or x^(1/k)
    (["integral", "--k", BIG_K, "--B", "5"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", BIG_K, "--B", "5", "--scan", "3"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "vk", "--k", BIG_K, "--x", "10"], EXIT_USAGE, "usage error:"),
    (["verify", "--k", BIG_K, "--x", "100"], EXIT_USAGE, "usage error:"),
    (["verify", "--k", BIG_K, "--x", "100", "--method", "conv"], EXIT_USAGE, "usage error:"),
    (["integral", "--k", PAST_K, "--B", "5"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "vk", "--k", PAST_K, "--x", "1000", "--q-max", "3"],
     EXIT_USAGE, "usage error:"),
    (["verify", "--k", PAST_K, "--x", "100"], EXIT_USAGE, "usage error:"),
    # the last k below 2^63 runs: one n4, Weyl powers by squaring
    (["integral", "--k", LAST_K, "--B", "20"], EXIT_OK, ""),
    (["diagnostics", "vk", "--k", LAST_K, "--x", "1000", "--q-max", "3"], EXIT_OK, ""),
    (["verify", "--k", LAST_K, "--x", "100"], EXIT_OK, ""),
    (["series", "--k", LAST_K, "--q-max", "10"], EXIT_OK, ""),
    # k where a rule uniform in u would pass 2^22 nodes: the same rules as
    # any k, and Weyl sums forming n^k in about 2 log2(k) multiplies
    (["diagnostics", "vk", "--k", "300000", "--x", "10", "--q-max", "1"], EXIT_OK, ""),
    (["diagnostics", "vk", "--k", "3000000", "--x", "10", "--q-max", "1"], EXIT_OK, ""),
    (["integral", "--k", "300000", "--B", "1", "--scan", "1"], EXIT_OK, ""),
    (["integral", "--k", "30000", "--B", "10", "--scan", "1"], EXIT_OK, ""),
    # 8.6e13 direct tuples at x = 4e7, charged before the 1.2e8 sieve
    (["verify", "--k", "3", "--method", "direct", "--x", "40000000"],
     EXIT_BUDGET, "budget error:"),
    (["verify", "--k", "3", "--method", "both", "--x", "40000000"],
     EXIT_BUDGET, "budget error:"),
    # 2 * Y^k past int64, refused by bit length before Y^k is formed
    (["diagnostics", "hua", "--k", "20000", "--y", "2", "--j", "2"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "hua", "--k", "20000", "--y", "2", "--j", "3"], EXIT_USAGE, "usage error:"),
    (["diagnostics", "hua", "--k", "1" + "0" * 39, "--y", "2", "--j", "2"],
     EXIT_USAGE, "usage error:"),
    # t = 2^19999 powers a side, refused before t is formed
    (["diagnostics", "hua", "--k", "3", "--y", "2", "--j", "20000"], EXIT_USAGE, "usage error:"),
]


# numpy warns of an overflow or an invalid value, where Python floats raise or stay silent
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code, prefix", EDGE_CASES, ids=[" ".join(case[0]) for case in EDGE_CASES]
)
def test_edge_inputs_exit_cleanly(capsys, argv, code, prefix):
    # tracemalloc sees numpy's arrays too: a refusal that comes after a
    # large rule, table or sort is built fails here
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got, out, err = run(capsys, *argv)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == code
    if code == EXIT_OK:
        # a case that runs writes its report, silently, within a second
        assert json.loads(out)["meta"]["command"] == argv[0]
        assert err == "" and seconds < 1.0
    else:
        assert out == ""
        assert err.startswith(prefix)
    assert peak < 16 * 2**20


def test_budget_error_prints_a_huge_charge_by_its_bit_length(capsys):
    # --q-max 10^4000 charges about 2 * 10^12000 units, past the digits
    # Python converts an int to
    code, out, err = run(capsys, "diagnostics", "vk", "--k", "3", "--x", "10",
                         "--q-max", "1" + "0" * 4000)
    assert (code, out) == (EXIT_BUDGET, "")
    assert "requires a 39865-bit number of units" in err


def test_integral_charges_the_sweep_before_the_scan(capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the sweep's charge")

    monkeypatch.setattr(circlekit.cli, "density_profile", no_scan)
    # the sweep's 600 small-beta nodes at 696 table entries each pass the
    # budget, as would the scan's one point
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1000")
    code, out, err = run(capsys, "integral", "--k", "3", "--B", "10", "--scan", "1")
    assert (code, out) == (EXIT_BUDGET, "")
    assert "singular-integral sweep" in err


@pytest.mark.parametrize("argv", [
    ["integral", "--k", "3", "--B", "5"],
    ["integral", "--k", "3", "--B", "5", "--scan", "3"],
    ["diagnostics", "vk", "--k", "3", "--x", "100"],
], ids=["sweep", "scan", "vk"])
def test_small_beta_rules_are_charged_before_they_are_built(capsys, monkeypatch, argv):
    # with the small-beta rule sized at 10^12 nodes, each command is refused
    # by its charge before any small-beta phase is evaluated
    def no_rule(*args, **kwargs):
        raise AssertionError("a small-beta phase was evaluated before its charge")

    for module in (circlekit.integrals, circlekit.circle):
        monkeypatch.setattr(module, "UNIT_RULE_NODES", 10**12)
    monkeypatch.setattr(circlekit.integrals, "LOG_RULE_NODES", 10**12)
    monkeypatch.setattr(circlekit.integrals, "_small_phases", no_rule)
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_BUDGET, "")
    assert err.startswith("budget error:")


@pytest.mark.parametrize("command", ["delta", "verify", "series", "integral"])
def test_seed_is_not_a_flag_outside_diagnostics(capsys, command):
    # none of these commands draws a random number
    with pytest.raises(SystemExit) as info:
        main([command, "--k", "3", "--seed", "1"])
    assert info.value.code == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_diagnostics_takes_a_seed(capsys):
    code, out, _ = run(capsys, "diagnostics", "dirichlet", "--samples", "5", "--seed", "4")
    assert code == EXIT_OK
    meta = json.loads(out)["meta"]
    assert meta["seed"] == 4 and meta["flags"]["seed"] == 4


@pytest.mark.parametrize("xs", ["100000000", "0,100"])
def test_verify_refuses_sizes_before_the_constants(capsys, monkeypatch, xs):
    def no_constants(*args, **kwargs):
        raise AssertionError("constants computed before the sizes were checked")

    monkeypatch.setattr(circlekit.cli, "sigma_truncated", no_constants)
    monkeypatch.setattr(circlekit.cli, "j_values", no_constants)
    monkeypatch.setattr(circlekit.cli, "j_volume", no_constants)
    code, out, err = run(capsys, "verify", "--k", "3", "--x", xs, "--method", "conv")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:")


# the series is charged Q (isqrt(Q) + 3) units: 2.8e9 at Q = 2 * 10^6
@pytest.mark.parametrize("q_max, code, prefix", [("0", EXIT_USAGE, "usage error:"),
                                                  ("2000000", EXIT_BUDGET, "budget error:")])
def test_verify_refuses_q_max_before_the_exact_sums(capsys, monkeypatch, q_max, code, prefix):
    def no_exact_sum(*args, **kwargs):
        raise AssertionError("exact sums computed before --q-max was checked")

    for name in ("divisor_sieve", "exact_S_direct", "exact_S_convolution"):
        monkeypatch.setattr(circlekit.cli, name, no_exact_sum)
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    got, out, err = run(capsys, "verify", "--k", "3", "--method", "conv", "--x", "3000000",
                        "--q-max", q_max)
    assert (got, out) == (code, "")
    assert err.startswith(prefix)


def test_delta_out_to_directory_is_usage_error(capsys, tmp_path):
    # refused before the table is printed
    code, out, err = run(capsys, "delta", "--k", "3", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:")
    assert str(tmp_path) in err


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_refused_before_any_work(capsys, monkeypatch, tmp_path, where):
    def no_series(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(circlekit.cli, "sigma_truncated", no_series)
    target = tmp_path if where == "directory" else tmp_path / "missing" / "f.json"
    code, out, err = run(capsys, "verify", "--k", "3", "--x", "100", "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: cannot write --out")
    assert not (tmp_path / "missing").exists()
