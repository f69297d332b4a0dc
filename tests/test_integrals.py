import math
import tracemalloc
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import fresnel

from circlekit import integrals
from circlekit.errors import AccuracyError, BudgetError, DomainError
from circlekit.integrals import (
    _square_sum_histogram,
    density_profile,
    j_density,
    j_density_batch,
    j_value,
    j_values,
    j_volume_oracle,
    linear_phase_batch,
    log_phase_batch,
    log_weighted_integral,
    unit_phase_batch,
    unit_power_phase_integral,
    volume_midpoint,
)

LOG3 = math.log(3.0)


def test_unit_phase_at_zero():
    for k in (1, 2, 3, 8):
        assert unit_power_phase_integral(0.0, k) == pytest.approx(1.0, abs=1e-12)


def test_unit_phase_k1_closed_form():
    beta = 2.5
    closed = (np.exp(2j * np.pi * beta) - 1) / (2j * np.pi * beta)
    assert abs(unit_power_phase_integral(beta, 1) - closed) < 1e-9


def test_unit_phase_domain_and_tolerance_failure():
    with pytest.raises(DomainError):
        unit_power_phase_integral(1.0, 0)
    with pytest.raises(AccuracyError) as info:
        unit_power_phase_integral(3.7, 3, tol=0.0)  # unattainable request
    assert info.value.achieved >= 0.0


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
            assert abs(f - unit_power_phase_integral(float(b), k)) < 1e-9
    fast = log_phase_batch(betas)
    for b, f in zip(betas, fast):
        assert abs(f - log_weighted_integral(float(b))) < 1e-9
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


def _log_phase_mp(beta: float) -> complex:
    # int_0^3 e^(-w u) log u du = ((1 - e^(-3w)) log 3 - E1(3w) - log(3w) - gamma) / w,
    # w = 2 pi i beta (integration by parts against e^(-w u) - 1)
    with mpmath.workdps(30):
        w = mpmath.mpc(0, 2 * mpmath.pi * beta)
        log3 = mpmath.log(3)
        value = (1 - mpmath.exp(-3 * w)) * log3 - mpmath.e1(3 * w)
        return complex((value - mpmath.log(3 * w) - mpmath.euler) / w)


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


def guarded_unit_batch(betas, k):
    # each regime filled behind its own .any() guard, one k at a time
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    small = betas <= 10.0
    if small.any():
        out[small] = integrals._unit_batch_small(betas[small], k)
    if (~small).any():
        lam = integrals.TWO_PI * betas[~small]
        out[~small] = integrals._unit_batch_large(lam, np.exp(1j * lam), k)
    return out


def guarded_log_batch(betas):
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    small = betas <= 10.0
    if small.any():
        out[small] = integrals._log_batch_small(betas[small])
    if (~small).any():
        out[~small] = integrals._log_batch_large(betas[~small])
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
    shared = integrals._unit_phase_batches(betas, (2, 5))
    assert all(np.array_equal(got, guarded_unit_batch(betas, k)) for got, k in zip(shared, (2, 5)))
    assert np.array_equal(log_phase_batch(betas), guarded_log_batch(betas))


def whole_array_refine(rule, panels, tol):
    # every node of a refinement formed and summed as one array
    previous = None
    for _ in range(7):
        value = rule(panels)
        if previous is not None and abs(value - previous) < 0.5 * tol:
            return value
        previous = value
        panels *= 2
    raise AssertionError("no convergence")


def whole_array_unit_phase(beta, k):
    def rule(panels):
        nodes, weights = integrals._panel_nodes(np.linspace(0.0, 1.0, panels + 1), 8)
        return complex(np.sum(weights * np.exp(2j * np.pi * beta * nodes**k)))

    panels = max(4, math.ceil(10.0 * max(1.0, k * abs(beta) / (2 * math.pi))))
    return whole_array_refine(rule, panels, 1e-9)


def whole_array_log_phase(beta):
    def rule(panels):
        nodes, weights = integrals._panel_nodes(integrals._log_panel_edges(3.0, panels), 8)
        return complex(np.sum(weights * np.log(nodes) * np.exp(-2j * np.pi * beta * nodes)))

    panels = max(8, math.ceil(10.0 * max(1.0, 3.0 * abs(beta) / (2 * math.pi))))
    return complex(integrals._log_head(beta)) + whole_array_refine(rule, panels, 1e-8)


@pytest.mark.parametrize("beta", [0.0, -2.5, 3.7, 41.0, 1e3, 8e3])
def test_reference_rules_keep_their_bits_within_one_block(beta):
    # 8e3 at k = 8: 101,860 then 203,720 panels; the second spans two blocks
    for k in (2, 3, 8):
        got = unit_power_phase_integral(beta, k)
        want = whole_array_unit_phase(beta, k)
        if 2 * integrals.phase_panels(beta, k) <= integrals._RULE_PANELS:
            assert got == want, k
        else:
            assert abs(got - want) < 1e-12, k
    assert log_weighted_integral(beta) == whole_array_log_phase(beta)


def test_reference_rules_sum_in_bounded_blocks(monkeypatch):
    # beta = 13726, k = 3: 65,537 then 131,074 panels, 2^20 nodes, in
    # blocks of 2^10 panels; whole arrays of those nodes peaked near 70 MiB
    monkeypatch.setattr(integrals, "_RULE_PANELS", 1 << 10)
    for integral, reference, bound in (
        (lambda: unit_power_phase_integral(13726.0, 3), whole_array_unit_phase(13726.0, 3), 4),
        (lambda: log_weighted_integral(13726.0), whole_array_log_phase(13726.0), 8),
    ):
        tracemalloc.start()
        try:
            value = integral()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20
        assert abs(value - reference) < 1e-12


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.0, 2000.0), k=st.sampled_from([2, 3, 5, 8]))
def test_batch_and_scalar_routes_agree(beta, k):
    assert abs(unit_phase_batch(np.array([beta]), k)[0]
               - unit_power_phase_integral(beta, k)) < 1e-9
    assert abs(log_phase_batch(np.array([beta]))[0] - log_weighted_integral(beta)) < 1e-9
    for which in (1, 2):
        assert abs(j_density_batch(np.array([beta]), k, which)[0]
                   - j_density(beta, k, which)) < 1e-9


def test_density_at_zero():
    for k in (3, 4, 5):
        assert j_density(0.0, k, 1) == pytest.approx(3.0, abs=1e-9)
        assert j_density(0.0, k, 2) == pytest.approx(3 * LOG3 - 3, abs=1e-9)
    with pytest.raises(DomainError):
        j_density(0.0, 3, 3)


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
    # each meets 8 * 48 nodes of the k = 3 small-beta quadrature
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "164780")
    j_values(3, 5.0)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "164779")
    with pytest.raises(BudgetError) as info:
        j_values(3, 5.0)
    assert info.value.required == 164780


@pytest.mark.parametrize("B", [1.0, 1.5, 2.2, 5.0, 9.9, 10.0, 10.05, 10.3, 12.0, 50.0, 400.0])
def test_small_beta_count_from_edges_matches_every_node(B):
    edges = integrals._beta_edges(B)
    for grid in (edges, integrals._coarse_edges(edges)):
        nodes = integrals._panel_nodes(grid, 4)[0]
        assert integrals._small_nodes(grid) == np.count_nonzero(nodes <= 10.0)


def test_j_values_memory():
    # every node, weight and density value at once peaked at 145 MiB
    tracemalloc.start()
    try:
        j_values(3, 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_unit_phase_batch_in_chunks_matches_reference():
    # k = 100: 12736 quadrature nodes, so 2^22 phase entries hold 329 betas
    betas = np.linspace(0.0, 10.0, 700)
    batch = unit_phase_batch(betas, 100)
    for i in (0, 328, 329, 657, 658, 699):
        assert abs(batch[i] - unit_power_phase_integral(betas[i], 100)) < 1e-9


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
