"""The threaded constants and exact sums: the same bits on any worker count.

j_values, the direct route's rows, the divisor sieve's windows and the
parity pieces of the cube spread independent work over
threads.ordered_map.  Their results must not
depend on how many workers run them, nor on how many threads numpy's
BLAS runs; a failure in a helper's share must surface as the same exit
code, and no helper may outlive the call.  j_volume, verify's source of
J1 and J2, and sigma_truncated run on the calling thread and must keep
their bits likewise.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from circlekit import arith, integrals, threads
from circlekit.cli import EXIT_BUDGET, EXIT_NUMERICAL, EXIT_OK, main
from circlekit.errors import NumericalIntegrityError
from circlekit.integrals import decay_envelope, j_density_batch, j_values, j_volume
from circlekit.series import sigma_truncated


def _all_node_sweep(k, B, which):
    """The sweep over whole node arrays: value, quadrature error and envelope."""
    edges = integrals._beta_edges(B)
    nodes, weights = integrals._panel_nodes(edges, 4)
    c_nodes, c_weights = integrals._panel_nodes(integrals._coarse_edges(edges), 4)
    values = j_density_batch(nodes, k, which)
    fine = 2.0 * float(np.sum(values * weights).real)
    coarse = 2.0 * float(np.sum(j_density_batch(c_nodes, k, which) * c_weights).real)
    envelope = float(decay_envelope(values, nodes, k, which).max())
    return fine, abs(fine - coarse), envelope


def _block_sums(k, edges, which, block):
    """2 Re of the panel quadrature over edges as the fsum, in block order, of
    the pairwise sums over blocks of `block` nodes; and the largest envelope."""
    step = block // 4
    sums, peak = [], 0.0
    for first in range(0, edges.size - 1, step):
        nodes, weights = integrals._panel_nodes(edges[first : first + step + 1], 4)
        values = j_density_batch(nodes, k, which)
        sums.append(float(np.sum(values * weights).real))
        peak = max(peak, float(decay_envelope(values, nodes, k, which).max()))
    return 2.0 * math.fsum(sums), peak


def _block_order_sweep(k, B, which, block):
    """The sweep in blocks of `block` nodes: value, quadrature error and envelope."""
    edges = integrals._beta_edges(B)
    fine, envelope = _block_sums(k, edges, which, block)
    coarse, _ = _block_sums(k, integrals._coarse_edges(edges), which, block)
    return fine, abs(fine - coarse), envelope


def test_ordered_map_keeps_order_and_joins(monkeypatch):
    baseline = threading.active_count()
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(threads, "WORKERS", workers)
        assert threads.ordered_map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
        assert threads.ordered_map(str, []) == []
        assert threading.active_count() == baseline


def test_ordered_map_raises_the_earliest_failure(monkeypatch):
    # items 3 and 4 fail in different shares; a serial loop meets 3 first
    def fn(x):
        if x in (3, 4):
            raise ValueError(x)
        return x

    baseline = threading.active_count()
    for workers in (1, 2, 3):
        monkeypatch.setattr(threads, "WORKERS", workers)
        with pytest.raises(ValueError) as info:
            threads.ordered_map(fn, range(8))
        assert info.value.args == (3,)
        assert threading.active_count() == baseline


class _PauseAfterFirstClaim:
    """A lock whose first release is followed by a pause: the thread that
    claimed item 0 sleeps between its claim and running it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._released = 0

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()
        self._released += 1
        if self._released == 1:
            time.sleep(0.2)


def test_ordered_map_runs_a_claim_made_before_a_later_failure(monkeypatch):
    # item 1 fails while item 0's thread pauses after claiming it; item 0
    # still runs, so its own failure, the one a serial loop meets, is raised
    def fn(x):
        raise ValueError(x)

    monkeypatch.setattr(threads, "WORKERS", 2)
    monkeypatch.setattr(
        threads, "threading", SimpleNamespace(Thread=threading.Thread, Lock=_PauseAfterFirstClaim)
    )
    with pytest.raises(ValueError) as info:
        threads.ordered_map(fn, range(2))
    assert info.value.args == (0,)


def test_ordered_map_under_fast_thread_switching(monkeypatch):
    # four workers, likely more than the CPUs, switching threads every microsecond
    def fn(x):
        if x >= 100 and x % 7 == 0:
            raise ValueError(x)
        return x + 1

    monkeypatch.setattr(threads, "WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert threads.ordered_map(lambda x: x + 1, range(500)) == list(range(1, 501))
            with pytest.raises(ValueError) as info:
                threads.ordered_map(fn, range(500))
            assert info.value.args == (105,)
    finally:
        sys.setswitchinterval(interval)


def test_ordered_map_runs_the_rest_while_one_item_waits(monkeypatch):
    # item 0 waits for every other item to finish; with fixed strides its
    # thread would own items 2, 4, ... and the wait would time out
    n = 7
    done = []
    rest_done = threading.Event()
    lock = threading.Lock()

    def fn(i):
        if i == 0:
            return rest_done.wait(timeout=10)
        with lock:
            done.append(i)
            if len(done) == n - 1:
                rest_done.set()
        return True

    monkeypatch.setattr(threads, "WORKERS", 2)
    baseline = threading.active_count()
    assert threads.ordered_map(fn, range(n)) == [True] * n
    assert threading.active_count() == baseline


# B = 400 has 46 full blocks of fine panels and a partial last one
@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize("B", [1.5, 10.0, 50.0, 400.0])
def test_j_values_bitwise_equal_on_any_worker_count(monkeypatch, k, B):
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(threads, "WORKERS", workers)
        runs.append([asdict(value) for value in j_values(k, B)])
    assert runs[0] == runs[1] == runs[2]
    assert [run["which"] for run in runs[0]] == [1, 2]


# blocks of 1024 nodes cut B = 50's 23,916 fine nodes into 23 full blocks and a partial one
@pytest.mark.parametrize("k, B, block", [(3, 1.5, None), (3, 10.0, None), (3, 50.0, 1024),
                                         (8, 50.0, 1024)])
def test_j_values_equal_the_whole_node_sweep(monkeypatch, k, B, block):
    # one block is one pairwise sum over every node, bit for bit; more
    # blocks add their pairwise sums by fsum, within rounding of the whole
    if block:
        monkeypatch.setattr(integrals, "_BLOCK", block)
    for result in j_values(k, B):
        fields = (result.value, result.quadrature_error, result.envelope_constant)
        value, gap, envelope = _all_node_sweep(k, B, result.which)
        if block is None:
            assert fields == (value, gap, envelope)
            continue
        assert fields == _block_order_sweep(k, B, result.which, block)
        assert abs(result.value - value) <= 1e-15 * abs(value)
        assert abs(result.quadrature_error - gap) <= 1e-15 * abs(value)
        assert result.envelope_constant == envelope


@pytest.mark.parametrize("k", [3, 8])
def test_j_volume_bitwise_equal_on_any_worker_count(monkeypatch, k):
    # j_volume maps nothing over threads: it runs on the calling thread alone
    def no_map(*args):
        raise AssertionError("j_volume started worker threads")

    monkeypatch.setattr(integrals, "ordered_map", no_map)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(threads, "WORKERS", workers)
        runs.append([asdict(j_volume(k, which)) for which in (1, 2)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("k", [3, 4])
def test_sigma_terms_equal_on_any_worker_count(monkeypatch, k):
    # sigma_truncated starts no worker thread: it runs on the calling thread alone
    def no_thread(*args):
        raise AssertionError("sigma_truncated started a worker thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(threads, "WORKERS", workers)
        result = sigma_truncated(2000, k)
        runs.append((result.terms, result.running1, result.running2))
    assert runs[0] == runs[1]


def test_helper_failure_maps_to_numerical_exit(monkeypatch, capsys):
    # B = 50 in 1024-node blocks is 24 sweep blocks; the first block a
    # helper claims fails, and the caller holds its own first block until then
    block_densities = integrals._block_densities
    failed_on = []
    helper_failed = threading.Event()

    def failing(betas, k, whiches):
        if threading.current_thread() is threading.main_thread():
            helper_failed.wait(timeout=10)
        elif not failed_on:
            failed_on.append(float(betas[0]))
            helper_failed.set()
            raise NumericalIntegrityError(f"forced at beta={failed_on[0]!r}")
        return block_densities(betas, k, whiches)

    monkeypatch.setattr(threads, "WORKERS", 2)
    monkeypatch.setattr(integrals, "_BLOCK", 1024)
    monkeypatch.setattr(integrals, "_block_densities", failing)
    baseline = threading.active_count()
    assert main(["integral", "--k", "3", "--which", "1", "--B", "50"]) == EXIT_NUMERICAL
    assert failed_on
    assert threading.active_count() == baseline
    err = capsys.readouterr().err
    assert err.startswith("numerical integrity error:") and f"beta={failed_on[0]!r}\n" in err


def test_memory_error_in_a_direct_row_maps_to_budget_exit(monkeypatch, capsys):
    gathered_sum = arith._gathered_sum
    failed_on = []

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            failed_on.append(threading.current_thread())
            raise MemoryError("forced in a helper's row")
        return gathered_sum(*args)

    monkeypatch.setattr(threads, "WORKERS", 2)
    monkeypatch.setattr(arith, "_gathered_sum", failing)
    baseline = threading.active_count()
    assert main(["verify", "--k", "3", "--x", "2000", "--method", "direct"]) == EXIT_BUDGET
    assert failed_on
    assert threading.active_count() == baseline
    err = capsys.readouterr().err
    assert err.startswith("budget error:") and err.count("\n") == 1


def test_memory_error_in_a_sieve_window_maps_to_budget_exit(monkeypatch, capsys):
    # verify's table of 7,537 entries in 64-entry windows; the first window
    # a helper claims fails, and the caller holds its own until then
    sieve_window = arith._sieve_window
    failed_on = []
    helper_failed = threading.Event()

    def failing(window, lo):
        if threading.current_thread() is threading.main_thread():
            helper_failed.wait(timeout=10)
        elif not failed_on:
            failed_on.append(lo)
            helper_failed.set()
            raise MemoryError("forced in a helper's window")
        return sieve_window(window, lo)

    monkeypatch.setattr(threads, "WORKERS", 2)
    monkeypatch.setattr(arith, "_SIEVE_WINDOW", 64)
    monkeypatch.setattr(arith, "_sieve_window", failing)
    baseline = threading.active_count()
    assert main(["verify", "--k", "3", "--x", "2000", "--method", "conv"]) == EXIT_BUDGET
    assert failed_on
    assert threading.active_count() == baseline
    err = capsys.readouterr().err
    assert err.startswith("budget error:") and err.count("\n") == 1


GRID_COMMANDS = [
    "integral --k 3 --B 400 --grid 64",
    "integral --k 8 --B 400 --grid 64",
    "integral --k 4 --which 2 --B 50 --grid 128",
]


def blas_sensitive_outputs() -> dict:
    """stdout of the volume-oracle commands and the hex of every field of
    j_values(k, 400) and of j_volume(k, 1) and (k, 2) for k = 3 and 8."""
    outputs = {}
    for command in GRID_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(command.split()) == EXIT_OK
        outputs[command] = out.getvalue()
    for k in (3, 8):
        fields = [astuple(value) for value in j_values(k, 400.0)]
        outputs[f"j_values({k}, 400)"] = [[float(f).hex() for f in row] for row in fields]
        fields = [astuple(j_volume(k, which)) for which in (1, 2)]
        outputs[f"j_volume({k})"] = [[float(f).hex() for f in row] for row in fields]
    return outputs


def test_outputs_do_not_depend_on_the_blas_thread_count(monkeypatch):
    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("CIRCLEKIT_BUDGET", None)
    here = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                                      env.get("PYTHONPATH")]))
    code = "import json, test_threads; print(json.dumps(test_threads.blas_sensitive_outputs()))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == blas_sensitive_outputs()
