"""One workload process: runs passes of the given operations and times them.

Reads {"ops": [...], "seconds": s, "trace": bool} as JSON on stdin and
writes one JSON object to stdout: the reports of every pass, each
pass's wall and CPU time, the process's peak RSS and, when traced, the
per-layer metrics.  Passes repeat until `seconds` of them have been
measured, at least one.  Correctness is checked by the caller, outside
this process and outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import circlekit
import circlekit.cli

from spans import CLI_SPAN, Tracer, coverage, layer_metrics


def _run_cli(argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    out = io.StringIO()
    sid = tracer.begin(CLI_SPAN) if tracer else -1
    try:
        with contextlib.redirect_stdout(out):
            code = circlekit.cli.main(argv)
    finally:
        if tracer:
            tracer.end(sid, units=len(out.getvalue().encode()))
    return code, out.getvalue()


def _run_dual(k: int, x: int) -> tuple[int, str]:
    inst = circlekit.ProblemInstance(x=x, k=k)
    table = circlekit.divisor_sieve(inst.max_value)
    values = {
        "direct": circlekit.exact_S_direct(inst, table),
        "auto": circlekit.exact_S_convolution(inst, table),
        "ntt": circlekit.exact_S_convolution(inst, table, transform="ntt"),
    }
    return 0, json.dumps(values, sort_keys=True)


def run_op(op: dict, tracer: Tracer | None) -> dict:
    """Run one operation; an exception is recorded, not raised."""
    try:
        if op["kind"] == "cli":
            code, report = _run_cli(op["argv"], tracer)
        else:
            code, report = _run_dual(op["k"], op["x"])
    except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
        return {"code": None, "report": "", "error": traceback.format_exc()}
    return {"code": code, "report": report, "error": None}


def run_passes(ops: list[dict], seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    passes = []
    try:
        measured = 0.0
        while not passes or measured < seconds:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            results = [run_op(op, tracer) for op in ops]
            wall = time.perf_counter() - wall0
            passes.append(
                {"wall_s": wall, "cpu_s": time.process_time() - cpu0, "results": results}
            )
            measured += wall
    finally:
        if tracer:
            tracer.uninstall()
    out = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        out["layers"] = layer_metrics(tracer.spans, len(passes))
        out["coverage"] = coverage(tracer.spans, measured)
        out["coverage_below_cli"] = coverage(tracer.spans, measured, below_cli=True)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    result = run_passes(job["ops"], float(job["seconds"]), bool(job["trace"]))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
