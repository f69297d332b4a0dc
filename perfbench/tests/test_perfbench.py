"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(REPO / "perfbench"), str(REPO / "src")]

import circlekit  # noqa: E402
import circlekit.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def _named_units(result: dict) -> set:
    return {(name, m["unit"]) for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_is_correct_and_reports_every_layer_metric(workload):
    out = run.run(workload, seed=3, seconds=0.0, trace=True, root=REPO, tiny=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0, out["log"]
    # one untraced and one traced pass, every op checked in both
    assert result["attempted"] == 2 * len(generate(workload, 3, tiny=True))
    assert _named_units(result) == {(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] > 0.9


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run("dual-oracle", seed=0, seconds=0.0, trace=False, root=REPO, tiny=True)["result"]
    assert _named_units(result) == {(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_are_seeded():
    for name in WORKLOADS:
        assert generate(name, 7) == generate(name, 7)
        assert generate(name, 7) != generate(name, 8)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_injected_wrong_exact_value_is_a_failed_op(monkeypatch):
    ops = generate("verify-large", 1, tiny=True) + generate("dual-oracle", 1, tiny=True)
    honest = circlekit.arith.exact_S_convolution
    monkeypatch.setattr(circlekit.cli, "exact_S_convolution", lambda *a, **kw: honest(*a, **kw) + 1)
    monkeypatch.setattr(circlekit, "exact_S_convolution", lambda *a, **kw: honest(*a, **kw) + 1)
    passes = worker.run_passes(ops, 0.0, trace=False)["passes"]
    attempted, failures = checks.gate(ops, passes, checks.ExactReference())
    assert attempted == len(ops)
    # the verify call and every dual-oracle case are wrong
    assert len(failures) == len(ops), failures
    assert "reference" in failures[0]


def test_report_that_differs_between_passes_is_a_failed_op():
    ops = generate("arcs", 2, tiny=True)[:1]
    passes = worker.run_passes(ops, 0.0, trace=False)["passes"] * 2
    second = json.loads(json.dumps(passes[1]))
    second["results"][0]["report"] += " "
    attempted, failures = checks.gate(ops, [passes[0], second], checks.ExactReference())
    assert (attempted, len(failures)) == (2, 1)
    assert "differs" in failures[0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 4.0, 0, 5),
        Span("a.child", 2.0, 3.0, 1, 1),
        Span("b", 3.0, 6.0, 0, 7),  # overlaps a: counted once
        Span("c", 9.0, 12.0, 0, 1),  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0])


def test_layer_metrics_sum_calls_units_and_self_time_per_pass():
    spans = [
        Span("arith.divisor_sieve", 0.0, 2.0, -1, 100),
        Span("arith.exact_S_direct", 2.0, 6.0, -1, 40),
        Span("arith.divisor_sieve", 3.0, 4.0, 1, 100),
    ]
    metrics = layer_metrics(spans, passes=2)
    assert metrics["arith.divisor_sieve.calls"] == 1.0
    assert metrics["arith.divisor_sieve.units"] == 100.0
    assert metrics["arith.divisor_sieve.units_per_s"] == pytest.approx(200 / 3.0)
    assert metrics["arith.exact_S_direct.self_s"] == pytest.approx(1.5)
    assert metrics["circle.hua_count.calls"] == 0.0


def test_tracer_wraps_functions_where_callers_look_them_up():
    original = circlekit.arith.divisor_sieve
    tracer = Tracer()
    tracer.install()
    try:
        assert circlekit.cli.divisor_sieve is not original
        sid = tracer.begin("cli.main")
        circlekit.cli.main(["sieve", "--n", "1000"])
        tracer.end(sid)
    finally:
        tracer.uninstall()
    assert circlekit.cli.divisor_sieve is original
    assert circlekit.divisor_sieve is original
    sieve = [s for s in tracer.spans if s.name == "arith.divisor_sieve"]
    assert len(sieve) == 1 and sieve[0].units == 1000 and sieve[0].parent == sid


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "arcs", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
