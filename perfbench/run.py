"""circlekit benchmark: one workload, one seed, one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 10 --trace 0

The library is imported from ./src.  The run

1. times `setup_s`: interpreter start until `circlekit` and
   `circlekit.cli` are imported, the median of SETUP_REPEATS fresh
   interpreters started before and after the workers;
2. generates the workload's operations from the seed and runs them in a
   fresh worker process (perfbench/worker.py), untraced, for at least
   --seconds; with --trace 1 a second worker runs the same operations
   with every layer function wrapped in spans;
3. checks every operation's output (perfbench/checks.py), outside the
   timed region; a miss is a failed operation;
4. prints the machine record, one line per failure, and last a JSON
   line {"correct", "attempted", "failed", "metrics"}.  The metrics
   are the end-to-end set without tracing and the per-layer set with
   it; both are listed in BENCHMARK.json.

fail_ratio is `failed / attempted` of the last line: the benchmark's
metrics must never read zero, so it is not repeated there.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
# setup samples per run, split before and after the workers so that a
# slow spell of the machine does not move all of them
SETUP_REPEATS = 15
SETUP_CODE = "import time, circlekit, circlekit.cli; print(time.monotonic())"
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not measure; the run prints no result."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, repeats: int) -> list[float]:
    """Seconds from spawning an interpreter until circlekit.cli is imported."""
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError("importing circlekit took over 60 s") from exc
        if done.returncode != 0:
            raise BenchError(f"importing circlekit failed:\n{done.stderr}")
        times.append(float(done.stdout) - start)
    return times


def run_worker(ops: list[dict], seconds: float, trace: bool, env: dict) -> dict:
    job = json.dumps({"ops": ops, "seconds": seconds, "trace": trace})
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=job, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def _blas_threads() -> int | None:
    # OpenBLAS as loaded by numpy; None when another BLAS is in use
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _first_line(path: str, key: str) -> str:
    try:
        with open(path) as handle:
            return next((line.split(":", 1)[1].strip() for line in handle if line.startswith(key)), "")
    except OSError:
        return ""


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
        revision = commit.stdout.strip() if commit.returncode == 0 else "not a git checkout"
    except OSError:
        revision = "git not available"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": _first_line("/proc/cpuinfo", "model name") or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": revision,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    return {"calls": "count", "self_s": "s", "units": "units", "units_per_s": "1/s"}[name.rsplit(".", 1)[1]]


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False) -> dict:
    """Measure one workload; returns the result object and a log of lines."""
    src = root / "src"
    if not (src / "circlekit" / "__init__.py").is_file():
        raise BenchError(f"no circlekit sources under {src}; run from the repository root")
    env = child_env(src)
    setup = measure_setup(env, SETUP_REPEATS // 2)
    ops = generate(workload, seed, tiny)
    plain = run_worker(ops, seconds, False, env)
    traced = run_worker(ops, seconds, True, env) if trace else None
    setup += measure_setup(env, SETUP_REPEATS - len(setup))

    # the gate imports circlekit itself, only after the timed workers ran
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from checks import ExactReference, gate

    passes = plain["passes"] + (traced["passes"] if traced else [])
    attempted, failures = gate(ops, passes, ExactReference())
    wall = statistics.median(p["wall_s"] for p in plain["passes"])
    if traced:
        metrics = {name: _metric(value, _layer_unit(name)) for name, value in traced["layers"].items()}
        metrics["trace.coverage"] = _metric(traced["coverage"], "ratio")
        metrics["trace.coverage_below_cli"] = _metric(traced["coverage_below_cli"], "ratio")
        metrics["trace.overhead_s"] = _metric(
            statistics.median(p["wall_s"] for p in traced["passes"]) - wall, "s"
        )
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(statistics.median(p["cpu_s"] for p in plain["passes"]), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(plain["peak_rss_mb"], "MiB"),
        }
    log = [
        f"workload {workload} seed {seed} ops/pass {len(ops)} passes {len(plain['passes'])}"
        + (f"+{len(traced['passes'])} traced" if traced else ""),
        f"fail_ratio {len(failures)}/{attempted}",
        "machine " + json.dumps(machine_record(root), sort_keys=True),
        *(f"FAILED {line}" for line in failures),
    ]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"log": log, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in out["log"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
