import math
import tracemalloc
from dataclasses import asdict
from functools import cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import fresnel

from circlekit import integrals
from circlekit.errors import BudgetError, DomainError
from circlekit.integrals import (
    _square_sum_histogram,
    density_profile,
    j_density_batch,
    j_value,
    j_values,
    j_volume,
    j_volume_oracle,
    linear_phase_batch,
    log_phase_batch,
    log_weighted_integral,
    unit_phase_batch,
    unit_power_phase_integral,
    volume_midpoint,
)
from density_reference import j_density, whole_array_log_phase, whole_array_unit_phase
from volume_reference import J2_REFERENCE, j1_reference

LOG3 = math.log(3.0)


def test_unit_phase_at_zero():
    for k in (1, 2, 3, 8):
        assert unit_power_phase_integral(0.0, k) == pytest.approx(1.0, abs=1e-12)


def test_unit_phase_k1_closed_form():
    beta = 2.5
    closed = (np.exp(2j * np.pi * beta) - 1) / (2j * np.pi * beta)
    assert abs(unit_power_phase_integral(beta, 1) - closed) < 1e-9


def test_unit_phase_domain_and_tolerance_failure():
    for k in (0, -1, -2):
        with pytest.raises(DomainError, match="k must be >= 1"):
            unit_power_phase_integral(1.0, k)
        with pytest.raises(DomainError, match="k must be >= 1"):
            j_density_batch(np.array([1.0]), k, 1)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_unit_phase_decay_envelope(k):
    # |I(beta)| * (1+|beta|)^(1/k) stays under a small constant
    for beta in (1.0, 10.0, 100.0, 1000.0):
        value = abs(unit_power_phase_integral(beta, k))
        assert value * (1.0 + beta) ** (1.0 / k) <= 5.0


def test_unit_phase_fresnel_oracle():
    # k=2 has a closed form through the Fresnel functions
    for beta in (0.7, 3.3, 27.0, 240.0):
        s, c = fresnel(2.0 * math.sqrt(beta))
        closed = (c + 1j * s) / (2.0 * math.sqrt(beta))
        assert abs(unit_power_phase_integral(beta, 2) - closed) < 1e-9


def test_linear_phase_values():
    assert linear_phase_batch(0.0) == pytest.approx(3.0)
    assert abs(linear_phase_batch(1.0 / 3.0)) < 1e-12  # full period
    # seam continuity against direct quadrature
    beta = 1e-7
    nodes = (np.arange(30000) + 0.5) * (3.0 / 30000)
    brute = np.sum(np.exp(-2j * np.pi * beta * nodes)) * (3.0 / 30000)
    assert abs(linear_phase_batch(beta) - brute) < 1e-10


def masked_linear_phase(betas, upper):
    # the seam series on |beta| < 1e-6 and the closed form on a masked copy
    # of the rest, written into an empty array
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    tiny = np.abs(betas) < 1e-6
    if tiny.any():
        z = -2j * np.pi * upper * betas[tiny]
        total = np.ones(z.shape, dtype=complex)
        term = np.ones(z.shape, dtype=complex)
        for m in range(1, 9):
            term = term * z / (m + 1)
            total += term
        out[tiny] = upper * total
    rest = betas[~tiny]
    out[~tiny] = (1.0 - np.exp(-2j * np.pi * upper * rest)) / (2j * np.pi * rest)
    return out


@pytest.mark.parametrize("upper", [3.0, 4.0])
def test_linear_phase_equals_the_masked_rule(upper):
    # every fine node of j_values(3, 400) and the seam; the closed form runs
    # over the whole array and only the seam is overwritten
    nodes = integrals._panel_nodes(integrals._beta_edges(400.0), 4)[0]
    betas = np.concatenate([nodes, [0.0, 1e-7, -1e-7, 5e-7, 1e-310]])
    assert np.array_equal(linear_phase_batch(betas, upper), masked_linear_phase(betas, upper))
    for beta in (0.0, 1e-310, 1e-7, 2.5):
        value = linear_phase_batch(beta, upper)
        assert isinstance(value, np.ndarray) and value.shape == ()
        assert value == masked_linear_phase(beta, upper)


def test_log_weighted_values():
    assert log_weighted_integral(0.0) == pytest.approx(3 * LOG3 - 3, abs=1e-9)
    for beta in (0.9, 17.0):
        lhs = log_weighted_integral(-beta)
        rhs = log_weighted_integral(beta).conjugate()
        assert abs(lhs - rhs) < 1e-10


def test_log_weighted_decay_envelope():
    for beta in (1.0, 10.0, 100.0):
        value = abs(log_weighted_integral(beta))
        ratio = value * (1.0 + beta) / math.log(2.0 + beta)
        assert ratio <= 10.0


def test_batch_paths_match_reference():
    # the vectorized sweep evaluators and the panel quadratures must agree
    betas = np.array([0.0, 0.3, 1.7, 5.0, 9.99, 10.01, 25.0, 123.4, 400.0])
    for k in (2, 3, 5, 8):
        fast = unit_phase_batch(betas, k)
        for b, f in zip(betas, fast):
            assert abs(f - whole_array_unit_phase(float(b), k)) < 1e-9
    fast = log_phase_batch(betas)
    for b, f in zip(betas, fast):
        assert abs(f - whole_array_log_phase(float(b))) < 1e-9
    fast = linear_phase_batch(betas)
    for b, f in zip(betas, fast):
        assert abs(f - _linear_phase_mp(float(b))) < 1e-12


def _linear_phase_mp(beta: float) -> complex:
    # int_0^3 e(-beta u) du = (1 - e(-3 beta)) / (2 pi i beta), and 3 at beta = 0
    if beta == 0.0:
        return 3.0
    with mpmath.workdps(30):
        w = mpmath.mpc(0, 2 * mpmath.pi * beta)
        return complex((1 - mpmath.exp(-3 * w)) / w)


def _unit_phase_mp(beta: float, k: int) -> complex:
    # int_0^1 e(beta u^k) du = (1/k) z^(-1/k) gamma(1/k, z), z = -2 pi i beta
    with mpmath.workdps(30):
        z = mpmath.mpc(0, -2 * mpmath.pi * beta)
        a = mpmath.mpf(1) / k
        return complex(z ** (-a) * mpmath.gammainc(a, 0, z) / k)


def _log_phase_mp(beta: float, upper: float = 3.0) -> complex:
    # int_0^U e^(-w u) log u du = ((1 - e^(-Uw)) log U - E1(Uw) - log(Uw) - gamma) / w,
    # w = 2 pi i beta (integration by parts against e^(-w u) - 1); U log U - U at 0
    with mpmath.workdps(30):
        U = mpmath.mpf(upper)
        if beta == 0.0:
            return complex(U * mpmath.log(U) - U)
        w = mpmath.mpc(0, 2 * mpmath.pi * beta)
        value = (1 - mpmath.exp(-U * w)) * mpmath.log(U) - mpmath.e1(U * w)
        return complex((value - mpmath.log(U * w) - mpmath.euler) / w)


def _oracle_betas() -> np.ndarray:
    # the asymptotic crossover, beta = 400 and 1e4, and each beta up to 1e4
    # where 1/lam (unit phases) or 1/(3 lam) (log phase) is a power of two,
    # with its neighbours at a relative 1e-9
    bounds = [2.0**j / (2 * math.pi) for j in range(6, 17)]
    bounds += [2.0**j / (6 * math.pi) for j in range(8, 19)]
    sides = [b * f for b in bounds for f in (1 - 1e-9, 1.0, 1 + 1e-9)]
    return np.array(sorted([10.01, 400.0, 1e4] + [b for b in sides if 10.0 < b <= 1e4]))


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_unit_phase_batch_mpmath_oracle(k):
    betas = _oracle_betas()
    fast = unit_phase_batch(betas, k)
    for b, f in zip(betas, fast):
        assert abs(f - _unit_phase_mp(float(b), k)) < 1e-14, b


@pytest.mark.parametrize("k", [2, 3, 5, 8, 20, 1000, 30_000, 10**9, 2**63 - 1])
def test_unit_phase_batch_matches_the_incomplete_gamma_at_every_k(k):
    # s (-i lam)^(-s) gamma(s, -i lam), s = 1/k, on 40 betas of the
    # small-beta rule and three past it; one rule serves every k, so the
    # bound holds from k = 2 to the last k below 2^63
    betas = np.concatenate([np.linspace(0.25, 10.0, 40), [10.5, 50.0, 400.0]])
    fast = unit_phase_batch(betas, k)
    for b, f in zip(betas, fast):
        assert abs(f - _unit_phase_mp(float(b), k)) < 2e-15, b


def test_log_phase_batch_mpmath_oracle():
    betas = _oracle_betas()
    fast = log_phase_batch(betas)
    for b, f in zip(betas, fast):
        assert abs(f - _log_phase_mp(float(b))) < 1e-14, b
    # the closed form itself against 30-digit quadrature
    with mpmath.workdps(30):
        quad = mpmath.quad(
            lambda u: mpmath.exp(-2j * mpmath.pi * 10.01 * u) * mpmath.log(u),
            mpmath.linspace(0, 3, 32),
        )
    assert abs(complex(quad) - _log_phase_mp(10.01)) < 1e-20


def test_log_phase_batch_at_upper_4_mpmath_oracle():
    # the range the expansion residual integrates over; both regimes
    betas = np.array([0.0, 0.37, 1.9, 5.3, 9.99, 10.5, 17.3, 39.0])
    fast = log_phase_batch(betas, 4.0)
    for b, f in zip(betas, fast):
        assert abs(f - _log_phase_mp(float(b), 4.0)) < 5e-14, b


def guarded_unit_batch(betas, k):
    # each regime filled behind its own .any() guard, one k at a time
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    small = betas <= 10.0
    if small.any():
        out[small] = integrals._unit_batch_small(betas[small], k)
    if (~small).any():
        lam = integrals.TWO_PI * betas[~small]
        out[~small] = integrals._unit_batch_large(lam, 1.0 / lam, np.exp(1j * lam), k)
    return out


def guarded_log_batch(betas, upper):
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    small = betas <= 10.0
    if small.any():
        out[small] = integrals._log_batch_small(betas[small], upper)
    if (~small).any():
        out[~small] = integrals._log_batch_large(integrals.TWO_PI * betas[~small], upper)
    return out


REGIME_BETAS = {
    "empty": [],
    "all small": [0.0, 0.3, 4.4, 9.99, 10.0],
    "all large": [10.0 + 1e-12, 10.01, 37.5, 400.0, 1e4],
    "mixed unsorted": [400.0, 0.0, 10.01, 9.99, 10.0, 1e4, 2.5, 123.4, 0.3],
}


@pytest.mark.parametrize("betas", REGIME_BETAS.values(), ids=REGIME_BETAS.keys())
def test_phase_batches_equal_the_guarded_two_regime_fill(betas):
    betas = np.array(betas, dtype=float)
    for k in (2, 3, 8):
        assert np.array_equal(unit_phase_batch(betas, k), guarded_unit_batch(betas, k))
    *shared, log = integrals._phase_batches(betas, (2, 5), 3.0)
    assert all(np.array_equal(got, guarded_unit_batch(betas, k)) for got, k in zip(shared, (2, 5)))
    assert np.array_equal(log, guarded_log_batch(betas, 3.0))
    for upper in (3.0, 4.0):
        assert np.array_equal(log_phase_batch(betas, upper), guarded_log_batch(betas, upper))


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.0, 2000.0), k=st.sampled_from([2, 3, 5, 8]))
def test_batch_and_scalar_routes_agree(beta, k):
    assert abs(unit_phase_batch(np.array([beta]), k)[0] - whole_array_unit_phase(beta, k)) < 1e-9
    assert abs(log_phase_batch(np.array([beta]))[0] - whole_array_log_phase(beta)) < 1e-9
    for which in (1, 2):
        assert abs(j_density_batch(np.array([beta]), k, which)[0]
                   - j_density(beta, k, which)) < 1e-9


def test_density_at_zero():
    for k in (3, 4, 5):
        assert j_density(0.0, k, 1) == pytest.approx(3.0, abs=1e-9)
        assert j_density(0.0, k, 2) == pytest.approx(3 * LOG3 - 3, abs=1e-9)
    with pytest.raises(DomainError, match="which"):
        j_density_batch(np.array([0.0]), 3, 3)


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_density_decay_envelopes(k):
    exponent = 2.5 + 1.0 / k
    betas = np.array([0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0])
    values = np.abs(j_density_batch(betas, k, 1))
    ratios1 = values * (1.0 + betas) ** exponent
    values = np.abs(j_density_batch(betas, k, 2))
    ratios2 = values * (1.0 + betas) ** exponent / np.log(2.0 + betas)
    assert ratios1.max() <= 10.0, ratios1.max()
    assert ratios2.max() <= 10.0, ratios2.max()


def test_j_value_basic_contracts():
    jv = j_value(3, 1, 200.0)
    assert 0.0 < jv.value <= 3.0
    assert jv.quadrature_error < 1e-6
    assert jv.tail_bound < 1e-2
    with pytest.raises(DomainError):
        j_value(3, 1, 0.5)
    with pytest.raises(DomainError):
        j_values(3, 10.0, (1, 3))


@pytest.mark.parametrize("k", [3, 8])
def test_j_values_shared_sweep_matches_j_value(k):
    both = j_values(k, 400.0)
    assert [v.which for v in both] == [1, 2]
    for which, shared in zip((1, 2), both):
        assert asdict(shared) == asdict(j_value(k, which, 400.0))


@pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
def test_j_values_rejects_non_finite_B(B):
    with pytest.raises(DomainError, match="finite"):
        j_values(3, B)
    with pytest.raises(DomainError, match="finite"):
        j_value(3, 1, B)


def test_j_values_checks_budget_before_allocating(monkeypatch):
    # B = 1e6 would need about 1.4e13 nodes
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1000000")
    with pytest.raises(BudgetError) as info:
        j_values(3, 1e6)
    assert info.value.required > 10**13


def test_j_values_charges_the_small_beta_quadrature(monkeypatch):
    # B = 5: 71 fine and 36 coarse panels, 428 nodes, all at beta <= 10;
    # each meets the 440-node rule of both unit phases and the 536-node log
    # rule: 428 + 428 * (2 * 440 + 536) = 606,476 at every k
    for k in (3, 2**63 - 1):
        monkeypatch.setenv("CIRCLEKIT_BUDGET", "606476")
        j_values(k, 5.0)
        monkeypatch.setenv("CIRCLEKIT_BUDGET", "606475")
        with pytest.raises(BudgetError) as info:
            j_values(k, 5.0)
        assert info.value.required == 606_476


def test_density_profile_charges_every_rule_a_point_runs(monkeypatch):
    # 7 points, each on both unit phases' 440 nodes, and for which = 2 also
    # the log phase's 536: 6,160 and 9,912 units at every k
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1")
    for k in (3, 2**63 - 1):
        for which, units in ((1, 7 * 880), (2, 7 * 1416)):
            with pytest.raises(BudgetError) as info:
                density_profile(k, which, 5.0, 7)
            assert info.value.required == units, (k, which)


@pytest.mark.parametrize("B", [1.0, 1.5, 2.2, 5.0, 9.9, 10.0, 10.05, 10.3, 12.0, 50.0, 400.0])
def test_small_beta_count_from_edges_matches_every_node(B):
    edges = integrals._beta_edges(B)
    for grid in (edges, integrals._coarse_edges(edges)):
        nodes = integrals._panel_nodes(grid, 4)[0]
        assert integrals._small_nodes(grid) == np.count_nonzero(nodes <= 10.0)


@pytest.mark.parametrize("B", [1.0, 5.0, 10.0, 10.3, 19.99, 20.0, 20.01, 57.3, 400.0])
def test_sweep_charge_counts_the_small_nodes_of_every_edge(monkeypatch, B):
    # check_sweep counts on the edges of min(B, 20); the full fine and
    # coarse edges give the same count at every B
    edges = integrals._beta_edges(B)
    small = integrals._small_nodes(edges) + integrals._small_nodes(integrals._coarse_edges(edges))
    fine = integrals._fine_panels(B)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1")
    for k in (3, 8, 2**63 - 1):
        with pytest.raises(BudgetError) as info:
            integrals.check_sweep(k, B)
        units = 4 * (fine + (fine + 1) // 2)
        # each small node: two unit phases of 440 nodes and the log phase of 536
        assert info.value.required == units + small * (2 * 440 + 536), k


def test_j_values_memory():
    # B = 400 has about 1.5 million fine nodes, so one complex value per
    # node is 23 MiB: any array that spans the sweep breaks the bound,
    # while a block's nodes, phases and products stay a few MiB per worker
    for k in (3, 8):
        tracemalloc.start()
        try:
            j_values(k, 400.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2**20, k


def test_unit_phase_batch_in_chunks_matches_reference(monkeypatch):
    # a chunk smaller than the unit rule's 440 nodes: every chunk is one
    # beta's row
    monkeypatch.setattr(integrals, "_PHASE_CHUNK", 100)
    betas = np.linspace(0.0, 10.0, 699)
    batch = unit_phase_batch(betas, 100)
    for i in (0, 1, 2, 695, 696, 698):
        assert abs(batch[i] - whole_array_unit_phase(betas[i], 100)) < 1e-9


def test_small_rule_size_is_the_ten_per_oscillation_count():
    # ten uniform panels per oscillation at beta = 10, at least ten, merged
    # with the graded edges below 1: the unit rule on [1e-6, 1] has 16
    # uniform panels and 40 graded edges 1e-6 * 2^(n/2) up to 0.74, so 55
    # panels of 8 nodes; the log rule at U = 3 has 48 uniform panels and 20
    # graded edges 1e-6 * 2^n up to 0.52, 67 panels; at U = 4, 64 and 20, 83
    def written_out(upper):
        return math.ceil(10.0 * max(1.0, upper * 10.0 / (2.0 * math.pi)))

    assert [written_out(u) for u in (1.0, 3.0, 4.0)] == [16, 48, 64]
    assert (integrals.UNIT_RULE_NODES, integrals.LOG_RULE_NODES) == (8 * 55, 8 * 67)
    for upper, per_octave, panels in ((1.0, 2, 55), (3.0, 1, 67), (4.0, 1, 83)):
        nodes, weights = integrals._panel_nodes(integrals._small_edges(upper, per_octave), 8)
        assert nodes.size == weights.size == 8 * panels
        assert 1e-6 < nodes.min() and nodes.max() < upper
        assert abs(weights.sum() - (upper - 1e-6)) < 1e-14


def test_small_beta_rule_is_the_same_at_every_k():
    # the unit phases' nodes are v = u^k, so a k where a rule uniform in u
    # would pass 2^22 nodes (32,942 and up) runs on the same 440 nodes,
    # below 1 MiB traced
    for k in (32_942, 300_000, 10**9, 2**63 - 1):
        tracemalloc.start()
        try:
            values = unit_phase_batch(np.array([0.0, 1.0, 20.0]), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, k
        assert np.all(np.abs(values) <= 1.0) and values[0] == pytest.approx(1.0, abs=1e-15)
    # the log rule is sized by its upper limit, which the commands keep in [1, 4]
    for upper in (0.5, 4.5, 1e6, math.nan):
        with pytest.raises(DomainError, match="upper"):
            log_phase_batch(np.array([1.0]), upper)


def _small_rules():
    # (nodes, weights, sign) of the k = 2, 3, 8 unit rules and the log rule
    for k in (2, 3, 8):
        nodes, weights = integrals._panel_nodes(integrals._small_edges(1.0, 2), 8)
        s = 1.0 / k
        yield f"unit k={k}", (nodes, s * nodes ** (s - 1.0) * weights, 1.0)
    nodes, weights = integrals._panel_nodes(integrals._small_edges(3.0, 1), 8)
    yield "log", (nodes, np.log(nodes) * weights, -1.0)


SMALL_RULES = dict(_small_rules())


@pytest.mark.parametrize("rule", SMALL_RULES.values(), ids=SMALL_RULES.keys())
def test_small_batch_gives_each_beta_the_same_bits_in_any_batch(monkeypatch, rule):
    # every beta alone, in consecutive batches of each count, and in one
    # batch cut into one-row chunks or left as one chunk: the same bits
    nodes, weights, sign = rule

    def batches(betas, count):
        return np.concatenate([integrals._small_batch(betas[lo : lo + count], nodes, weights, sign)
                               for lo in range(0, betas.size, count)])

    betas = np.linspace(0.0, 10.0, 101)
    alone = batches(betas, 1)
    step = max(1, integrals._PHASE_CHUNK // nodes.size)
    for count in (2, 3, step, step + 1, 8 * step + 1):
        assert np.array_equal(batches(betas, count), alone), count
    for chunk in (1, betas.size * nodes.size):
        monkeypatch.setattr(integrals, "_PHASE_CHUNK", chunk)
        assert np.array_equal(batches(betas, betas.size), alone), chunk


@pytest.mark.parametrize("batch", [
    log_phase_batch,
    lambda betas: unit_phase_batch(betas, 3),
    lambda betas: j_density_batch(betas, 3, 2),
], ids=["log", "unit", "density"])
def test_small_beta_batches_peak_below_16_mib(batch):
    # 2^15 betas <= 10 against 536 log-phase nodes make a 268 MiB phase
    # table; it is formed _PHASE_CHUNK entries at a time, so the peak is
    # a few 2^15-entry batch arrays
    betas = np.linspace(0.0, 10.0, 2**15)
    tracemalloc.start()
    try:
        batch(betas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_j_value_doubling_stability():
    for which in (1, 2):
        half = j_value(3, which, 200.0)
        full = j_value(3, which, 400.0)
        assert abs(full.value - half.value) <= half.tail_bound


def test_volume_oracle_brackets_and_monotonicity():
    with pytest.raises(DomainError):
        volume_midpoint(3, 1, 32)
    with pytest.raises(DomainError):
        volume_midpoint(3, 3, 64)
    previous = 0.0
    for k in range(3, 9):
        vol = volume_midpoint(k, 1, 64)
        assert 0.9 < vol < 1.0  # excluded corner is small
        assert vol > previous  # u4^k shrinks as k grows
        previous = vol


def test_volume_oracle_grid_convergence():
    for which in (1, 2):
        a = volume_midpoint(3, which, 64)
        b = volume_midpoint(3, which, 128)
        assert abs(a - b) < 1e-3


def test_cross_oracle_reduced():
    # full-size comparison lives in the acceptance suite
    value = j_value(3, 1, 200.0).value
    oracle = j_volume_oracle(3, 1, grid=64)
    assert abs(value - oracle) < 1e-3


def test_square_sum_histogram_matches_brute_force():
    for grid in range(1, 17):
        odd = (2 * np.arange(grid) + 1) ** 2
        brute = np.bincount(
            (odd[:, None, None] + odd[None, :, None] + odd[None, None, :]).ravel()
        )
        sums, counts = _square_sum_histogram(grid)
        assert sums.tolist() == np.flatnonzero(brute).tolist()
        assert counts.tolist() == brute[sums].tolist()


def _sorted_float_midpoint(k, which, grid):
    # the midpoint rule over the sorted float square sums, as the reference
    centers = (np.arange(grid) + 0.5) / grid
    sq = centers * centers
    s3 = np.sort((sq[:, None, None] + sq[None, :, None] + sq[None, None, :]).ravel())
    total = 0.0
    for p in centers**k:
        m = int(np.searchsorted(s3, 3.0 - p, side="right"))
        total += m if which == 1 else float(np.log(s3[:m] + p).sum())
    return total / grid**4


@pytest.mark.parametrize("k", [3, 5, 8])
def test_volume_midpoint_matches_sorted_float_rule(k):
    assert volume_midpoint(k, 1, 64) == _sorted_float_midpoint(k, 1, 64)
    assert abs(volume_midpoint(k, 2, 64) - _sorted_float_midpoint(k, 2, 64)) <= 1e-15


def test_oracle_and_profile_reject_small_sizes(monkeypatch):
    # the 2g = 64 grid is valid, so the check must come before it runs
    def no_histogram(grid):
        raise AssertionError(f"grid {grid} evaluated before the grid check")

    monkeypatch.setattr("circlekit.integrals._square_sum_histogram", no_histogram)
    with pytest.raises(DomainError, match="grid"):
        j_volume_oracle(3, 1, 32)
    for points in (0, -3):
        with pytest.raises(DomainError, match="points"):
            density_profile(3, 1, 5.0, points)


# ---------------------------------------------------------------------------
# the singular integrals as reduced volumes
# ---------------------------------------------------------------------------

VOLUME_KS = [3, 4, 5, 8]
_j1_reference = cache(j1_reference)


def _volume_reference(k, which):
    return _j1_reference(k) if which == 1 else mpmath.mpf(J2_REFERENCE[k])


@pytest.mark.parametrize("k", VOLUME_KS)
def test_j_volume_j1_matches_mpmath(k):
    assert abs(j_volume(k, 1).value - float(_volume_reference(k, 1))) <= 1e-13


@pytest.mark.parametrize("k", VOLUME_KS)
def test_j_volume_j2_matches_committed_mpmath(k):
    assert abs(j_volume(k, 2).value - float(_volume_reference(k, 2))) <= 1e-13


@pytest.mark.parametrize("k", VOLUME_KS)
@pytest.mark.parametrize("which", [1, 2])
def test_j_volume_states_an_error_at_least_the_true_one(k, which):
    result = j_volume(k, which)
    assert (result.k, result.which) == (k, which)
    true_error = abs(mpmath.mpf(result.value) - _volume_reference(k, which))
    assert true_error <= result.error <= 1e-12


def test_j_volume_domain_and_budget(monkeypatch, no_array_allocation):
    for k, which in ((0, 1), (3, 0), (3, 3)):
        with pytest.raises(DomainError):
            j_volume(k, which)
    # 36 * 24^3 = 497,664 J2 nodes and 10 * 24^2 = 5,760 J1 nodes, refused
    # before any node array
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "497663")
    with pytest.raises(BudgetError, match="reduced-volume"):
        j_volume(3, 2)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "5759")
    with pytest.raises(BudgetError, match="reduced-volume"):
        j_volume(3, 1)


def test_j_volume_peaks_below_16_mib():
    tracemalloc.start()
    try:
        for which in (1, 2):
            j_volume(8, which)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
