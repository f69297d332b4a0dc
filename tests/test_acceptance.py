"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; shared heavyweight intermediates (divisor tables, series
partials, integral values) are computed once per session.
"""

import math
import time
from fractions import Fraction
from fractions import Fraction as F

import numpy as np
import pytest

from circlekit.arith import (
    ProblemInstance,
    divisor_sieve,
    exact_S_convolution,
    exact_S_direct,
)
from circlekit.circle import (
    ArcParameters,
    classify_batch,
    dirichlet_batch,
    expansion_envelope_scan,
    hua_count,
    vk_envelope_scan,
)
from circlekit.expsums import complete_power_sum, power_sum_spectrum
from circlekit.exponents import derive_delta
from circlekit.integrals import j_values, j_volume, j_volume_oracle, volume_midpoint
from circlekit.series import local_density, sigma_truncated
from density_reference import j_density


@pytest.fixture(scope="module")
def sweeps():
    # k -> (J1, J2) from the Fourier sweep at B = 400
    return {k: j_values(k, 400.0) for k in range(3, 9)}


def _print_pass(n: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {n} ({name}): PASS{suffix}")


def test_criterion_1_delta_table_exact():
    # Published values hard-coded here, independent of the library table.
    expected = {
        3: F(19, 60),
        4: F(5, 24),
        5: F(19, 140),
        6: F(25, 192),
        7: F(457, 4032),
    }
    for k in range(8, 13):
        expected[k] = F(1, k + 2) + F(1, 2 * k * k * (k - 1))
    start = time.perf_counter()
    for k in range(3, 13):
        assert derive_delta(k).delta == expected[k], f"delta mismatch at k={k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"delta table took {elapsed:.3f}s, budget 1s"
    _print_pass(1, "delta table exact", f"{elapsed * 1000:.0f} ms")


def test_criterion_2_dual_oracle_exactness():
    start = time.perf_counter()
    table = divisor_sieve(4 * 10**4)
    assert exact_S_direct(ProblemInstance(x=1, k=3), divisor_sieve(4)) == 3
    assert exact_S_direct(ProblemInstance(x=4, k=3), table) == 23
    pairs = 0
    for k in (3, 4, 5, 8):
        for x in (10, 10**2, 10**3, 10**4):
            inst = ProblemInstance(x=x, k=k)
            direct = exact_S_direct(inst, table)
            conv = exact_S_convolution(inst, table)
            assert direct == conv, f"mismatch at x={x}, k={k}: {direct} != {conv}"
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"dual-oracle run took {elapsed:.1f}s, budget 300s"
    _print_pass(2, "dual-oracle exactness", f"{pairs} pairs in {elapsed:.1f}s")


def test_criterion_3_gauss_and_crt():
    checked = 0
    for q in range(1, 500, 2):
        spectrum = power_sum_spectrum(q, 2)
        coprime = np.gcd(np.arange(q), q) == 1
        moduli = np.abs(spectrum[coprime]) ** 2
        assert np.abs(moduli - q).max() < 1e-6, f"Gauss modulus fails at q={q}"
        checked += int(coprime.sum())
    rng = np.random.default_rng(0)
    trials = 0
    while trials < 1000:
        q1 = int(rng.integers(2, 101))
        q2 = int(rng.integers(2, 101))
        if math.gcd(q1, q2) != 1 or q1 * q2 > 10**4:
            continue
        a = int(rng.integers(1, q1 * q2))
        if math.gcd(a, q1 * q2) != 1:
            continue
        k = int(rng.integers(2, 10))
        whole = complete_power_sum(q1 * q2, a, k)
        left = complete_power_sum(q1, a * pow(q2, k - 1, q1) % q1, k)
        right = complete_power_sum(q2, a * pow(q1, k - 1, q2) % q2, k)
        assert abs(whole - left * right) < 1e-8
        trials += 1
    _print_pass(3, "Gauss-sum identity", f"{checked} (q,a) pairs, {trials} CRT trials")


def test_criterion_4_integral_cross_oracle(sweeps):
    log3 = math.log(3.0)
    for k in (3, 4, 5):
        assert abs(j_density(0.0, k, 1) - 3.0) < 1e-9
        assert abs(j_density(0.0, k, 2) - (3 * log3 - 3)) < 1e-9
        # measured gaps at k = 3, 4, 5: 2.2e-7, 2.0e-6, 7.7e-7 (J1),
        # 5.9e-6, 4.6e-6, 6.3e-6 (J2)
        gap1 = abs(sweeps[k][0].value - j_volume_oracle(k, 1, grid=128))
        gap2 = abs(sweeps[k][1].value - j_volume_oracle(k, 2, grid=128))
        assert gap1 < 1e-5, f"plain cross-oracle gap {gap1:.2e} at k={k}"
        assert gap2 < 2e-5, f"log cross-oracle gap {gap2:.2e} at k={k}"
    # the sweep against the reduced volume (stated error ~1e-14); measured
    # gaps at k = 3, 4, 5: 1.6e-8, 4.9e-8, 9.0e-8 (J1), 5.0e-8, 2.6e-7, 5.3e-7 (J2)
    for k in range(3, 9):
        for sweep in sweeps[k]:
            gap = abs(sweep.value - j_volume(k, sweep.which).value)
            assert gap <= sweep.quadrature_error + sweep.tail_bound, (k, sweep.which, gap)
            if k <= 5:
                tol = 2e-7 if sweep.which == 1 else 1e-6
                assert gap < tol, f"J{sweep.which} sweep-volume gap {gap:.2e} at k={k}"
    # oracle's own grid convergence at the canonical resolutions; measured 9.0e-7
    assert abs(volume_midpoint(3, 1, 128) - volume_midpoint(3, 1, 256)) < 5e-6
    _print_pass(4, "singular-integral cross-oracle")


def test_criterion_5_series_tail_decay():
    for k in (3, 4, 5):
        assert local_density(1, k) == 1.0
        assert abs(local_density(2, k)) < 1e-12
        partials = {Q: sigma_truncated(Q, k) for Q in (25, 50, 100, 200, 400)}
        for Q in (25, 50, 100, 200):
            gap = abs(partials[2 * Q].sigma1 - partials[Q].sigma1)
            bound = 10.0 * Q ** (-0.5 - 1.0 / k)
            assert gap <= bound, f"tail gap {gap:.2e} > {bound:.2e} at Q={Q}, k={k}"
    _print_pass(5, "singular-series tail decay")


def test_criterion_6_residual_envelopes():
    # power-sum model residuals
    for k in (3, 4, 5):
        scan = vk_envelope_scan(10**4, k, q_max=50)
        assert scan.constant <= 10.0, f"V_k envelope C={scan.constant:.2f} at k={k}"
    # divisor-expansion residual, fitted constant stable across a decade
    constants = {}
    for x in (10**3, 10**4):
        constants[x] = expansion_envelope_scan(x, 3).constant
    ratio = constants[10**4] / constants[10**3]
    assert 0.25 <= ratio <= 4.0, f"expansion constant drifted by {ratio:.2f}"
    # moment counts
    for Y in (10, 100, 1000, 10**4):
        assert hua_count(Y, 3, 1) == Y
    envelope_ratios = []
    for Y in (10**2, 10**3, 10**4):
        count = hua_count(Y, 3, 2)
        envelope_ratios.append(count / Y**2 / Y**0.05)
    # growth exponent check: the fitted constant must not increase with Y
    assert all(
        b <= a * 1.001 for a, b in zip(envelope_ratios, envelope_ratios[1:])
    ), envelope_ratios
    assert max(envelope_ratios) <= 10.0
    _print_pass(
        6,
        "residual envelopes",
        f"expansion C: {constants[10**3]:.3f} -> {constants[10**4]:.3f}",
    )


def test_criterion_7_end_to_end_main_term(sweeps):
    k = 3
    partial = sigma_truncated(200, k)
    table = divisor_sieve(4 * 10**4)
    exact = {x: exact_S_convolution(ProblemInstance(x=x, k=k), table)
             for x in (10**2, 10**3, 10**4)}
    # J from the Fourier sweep and from the reduced volume (verify's)
    routes = {"sweep": [jv.value for jv in sweeps[k]],
              "volume": [j_volume(k, which).value for which in (1, 2)]}
    details = []
    for route, (j1, j2) in routes.items():
        c1 = partial.sigma1 * j1
        c2 = partial.sigma1 * j2 + partial.sigma2 * j1
        normalized = []
        for x, value in exact.items():
            scale = x ** (1.5 + 1.0 / k)
            main = c1 * scale * math.log(x) + c2 * scale
            normalized.append(abs(value - main) / scale)
        assert all(
            later < earlier for earlier, later in zip(normalized, normalized[1:])
        ), f"normalized residuals not strictly decreasing with J from the {route}: {normalized}"
        details.append(f"{route}: " + " -> ".join(f"{v:.4f}" for v in normalized))
    _print_pass(7, "end-to-end main term", "; ".join(details))


def test_criterion_8_dirichlet_and_arc_contracts():
    # one rng.random(n) call draws the doubles of n scalar draws
    rng = np.random.default_rng(1)
    for tau in (1e2, 1e3, 1e4):
        tau_frac = Fraction(tau)
        alphas = rng.random(10**4)
        a, q, _ = dirichlet_batch(alphas, tau)
        for alpha, a_, q_ in zip(alphas.tolist(), a.tolist(), q.tolist()):
            assert q_ <= tau
            assert math.gcd(a_, q_) == 1
            gap = abs(Fraction(alpha) - Fraction(a_, q_))
            assert gap * q_ * tau_frac <= 1
    params = ArcParameters.default(10**4, 3)
    tau_frac = Fraction(params.tau)
    alphas = 1.0 / params.tau + rng.random(10**4)
    major, arc_a, arc_q = classify_batch(alphas, params)
    _, q, _ = dirichlet_batch(alphas, params.tau)
    for alpha, major_, a_, q_, dirichlet_q in zip(
        alphas.tolist(), major.tolist(), arc_a.tolist(), arc_q.tolist(), q.tolist()
    ):
        exact = Fraction(alpha)
        if major_:
            assert q_ <= params.Q and 1 <= a_ <= q_
            assert math.gcd(a_, q_) == 1
            gap = abs(exact - Fraction(a_, q_))
            assert gap * q_ * tau_frac <= 1
        else:
            # minor frequencies must have their convergent beyond Q
            assert dirichlet_q > params.Q
    _print_pass(8, "Dirichlet and arc contracts")
