import math
from fractions import Fraction

import numpy as np
import pytest

from circlekit.arith import divisor_sieve
from circlekit.circle import (
    ArcParameters,
    DiagnosticBound,
    classify_arc,
    convergents,
    dirichlet_approx,
    dirichlet_contract_scan,
    divisor_expansion_residual,
    expansion_envelope_scan,
    hua_count,
    minor_arc_bound_profile,
    vk_approx,
    vk_envelope_scan,
    vk_residual,
)
from circlekit.errors import BudgetError, DomainError, SizeError


def exact_contract_holds(alpha: float, tau: float) -> bool:
    approx = dirichlet_approx(alpha, tau)
    if approx.q > tau or math.gcd(approx.a, approx.q) != 1:
        return False
    gap = abs(Fraction(alpha) - Fraction(approx.a, approx.q))
    return gap * approx.q * Fraction(float(tau)) <= 1


def test_dirichlet_examples():
    r = dirichlet_approx(0.5, 10)
    assert (r.a, r.q, r.lam) == (1, 2, 0.0)
    r = dirichlet_approx(math.pi - 3, 100)
    assert (r.a, r.q) == (1, 7)  # the convergent 1/7 of 0.14159...
    assert abs(r.lam) <= 1 / (7 * 100)


def test_dirichlet_domain():
    with pytest.raises(DomainError):
        dirichlet_approx(0.5, 0.5)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_dirichlet_rejects_non_finite_tau(tau):
    with pytest.raises(DomainError, match="finite"):
        dirichlet_approx(0.5, tau)
    with pytest.raises(DomainError, match="finite"):
        dirichlet_contract_scan(0, tau, seed=0)


@pytest.mark.parametrize("tau", [37.5, 1000.0])
def test_dirichlet_contract_scan(tau):
    rows, failures = dirichlet_contract_scan(300, tau, seed=5)
    assert failures == 0
    alphas = np.random.default_rng(5).random(300)
    assert [row["alpha"] for row in rows] == alphas.tolist()
    for row in rows:
        approx = dirichlet_approx(row["alpha"], tau)
        assert (row["a"], row["q"], row["lambda"]) == (approx.a, approx.q, approx.lam)
        assert row["observed"] == abs(approx.lam)
        assert row["bound"] == 1.0 / (approx.q * tau)
        assert row["ratio"] == 1


def test_dirichlet_contract_sweep():
    rng = np.random.default_rng(8)
    for tau in (100.0, 1000.0):
        for _ in range(1000):
            alpha = float(rng.random() * 3 - 1)
            assert exact_contract_holds(alpha, tau)


def test_convergents_of_rational():
    got = list(convergents(Fraction(355, 113)))
    assert got[-1] == (355, 113)
    assert got[0] == (3, 1)


def test_arc_parameters_default_and_validation():
    params = ArcParameters.default(10**4, 3)
    assert params.Q == 39  # floor((10^4)^(2/5))
    assert params.tau == pytest.approx(10**4 / 39)
    with pytest.raises(DomainError):
        ArcParameters(x=10**4, k=3, Q=5000, tau=10**4 / 5000.0)  # 2Q >= tau
    with pytest.raises(DomainError):
        ArcParameters(x=10**4, k=3, Q=2, tau=5000.0)  # log x >= 2Q
    with pytest.raises(DomainError):
        ArcParameters(x=10**4, k=3, Q=60, tau=160.0)  # Q > x^(2/(k+2))


def test_classify_arc_exact_rationals():
    params = ArcParameters.default(10**4, 3)
    verdict = classify_arc(1.0 / 3.0, params)
    assert verdict.major and (verdict.a, verdict.q) == (1, 3)
    verdict = classify_arc(38.0 / 39.0, params)
    assert verdict.major and verdict.q == 39


def test_classify_arc_farey_midpoint_minor():
    params = ArcParameters.default(10**4, 3)
    # adjacent Farey fractions 1/40 and 1/41, both q > Q = 39
    alpha = float(Fraction(1, 40) + Fraction(1, 41)) / 2
    assert not classify_arc(alpha, params).major


def test_classify_arc_window_domain():
    params = ArcParameters.default(10**4, 3)
    with pytest.raises(DomainError):
        classify_arc(1e-9, params)
    with pytest.raises(DomainError):
        classify_arc(1.5, params)


def brute_classify(alpha: float, params: ArcParameters):
    exact = Fraction(alpha)
    tau_frac = Fraction(params.tau)
    for q in range(1, params.Q + 1):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1 and abs(exact - Fraction(a, q)) * q * tau_frac <= 1:
                return (a, q)
    return None


def test_classify_matches_brute_force():
    params = ArcParameters.default(10**4, 3)
    rng = np.random.default_rng(9)
    for _ in range(150):
        alpha = float(1.0 / params.tau + rng.random())
        verdict = classify_arc(alpha, params)
        witness = brute_classify(alpha, params)
        assert verdict.major == (witness is not None)
        if witness is not None:
            assert (verdict.a, verdict.q) == witness


def test_major_arc_measure():
    # fraction of uniform samples classified major vs the analytic measure
    params = ArcParameters.default(10**4, 3)
    rng = np.random.default_rng(10)
    samples = 10**5
    hits = sum(
        classify_arc(float(1.0 / params.tau + rng.random()), params).major
        for _ in range(samples)
    )
    predicted = sum(
        sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1) * 2.0 / (q * params.tau)
        for q in range(1, params.Q + 1)
    )
    assert abs(hits / samples - predicted) / predicted < 0.2


def test_vk_at_beta_zero_q_one():
    for k in (3, 5):
        assert vk_approx(1, 1, 0.0, 10**4, k) == pytest.approx(
            (10**4) ** (1.0 / k), abs=1e-9
        )
    with pytest.raises(DomainError):
        vk_approx(2, 4, 0.0, 100, 3)


def test_vk_residual_integer_frequency():
    # at alpha = 1 the sum is exactly floor(x^(1/3)); the model gives x^(1/3),
    # so the residual is just the floor defect
    expected = (10**4) ** (1 / 3) - 21
    assert vk_residual(1, 1, 0.0, 10**4, 3) == pytest.approx(expected, abs=1e-9)


def test_vk_residual_envelope_small_scan():
    scan = vk_envelope_scan(10**4, 3, q_max=25)
    assert isinstance(scan, DiagnosticBound)
    assert scan.constant <= 10.0
    assert len(scan.rows) > 0


def test_expansion_residual_preconditions():
    x = 10**4
    table = divisor_sieve(4 * x)
    params = ArcParameters.default(x, 3)
    with pytest.raises(DomainError):
        divisor_expansion_residual(1, params.Q + 1, 0.0, x, table, params)
    with pytest.raises(DomainError):
        divisor_expansion_residual(1, 1, 1.0, x, table, params)  # |beta| too large
    with pytest.raises(DomainError):
        divisor_expansion_residual(2, 4, 0.0, x, table, params)  # gcd != 1
    with pytest.raises(DomainError):
        divisor_expansion_residual(1, 1, 0.0, x, divisor_sieve(100), params)


def test_expansion_residual_q1():
    x = 10**3
    table = divisor_sieve(4 * x)
    params = ArcParameters.default(x, 3)
    res = divisor_expansion_residual(1, 1, 0.0, x, table, params)
    assert res.ratio <= 10.0
    res = divisor_expansion_residual(2, 5, 1.0 / (2 * 5 * params.tau), x, table, params)
    assert res.ratio <= 10.0


def test_expansion_scan_slack_sensitivity():
    x = 10**3
    table = divisor_sieve(4 * x)
    tight = expansion_envelope_scan(x, 3, table, slack=0.02)
    base = expansion_envelope_scan(x, 3, table, slack=0.05)
    loose = expansion_envelope_scan(x, 3, table, slack=0.10)
    assert loose.constant <= base.constant <= tight.constant


def test_hua_diagonal():
    for Y in (1, 7, 100, 10**4):
        assert hua_count(Y, 3, 1) == Y


def test_hua_hand_value():
    # pair sums for Y=2, k=3: {2, 9, 9, 16} -> 1 + 4 + 1
    assert hua_count(2, 3, 2) == 6


def brute_hua(Y, k, j):
    from collections import Counter
    from itertools import product

    t = 2 ** (j - 1)
    counter = Counter()
    for tup in product(range(1, Y + 1), repeat=t):
        counter[sum(v**k for v in tup)] += 1
    return sum(v * v for v in counter.values())


def test_hua_matches_brute_force():
    for Y, k, j in ((6, 3, 2), (4, 4, 2), (5, 2, 2), (3, 3, 3)):
        assert hua_count(Y, k, j) == brute_hua(Y, k, j)


def test_hua_pair_sums_stay_in_int64():
    # 2 * 1290^6 fits int64 and no two sixth-power pair sums coincide here,
    # so only the ordered diagonal and swapped pairs count
    assert hua_count(1290, 6, 2) == 2 * 1290**2 - 1290
    # 2 * 5000^6 would wrap int64
    with pytest.raises(SizeError):
        hua_count(5000, 6, 2)


def test_hua_fourth_moment_log_growth():
    # k=2, j=2 is the classical fourth moment ~ Y^2 log Y
    ratios = [hua_count(Y, 2, 2) / (Y * Y * math.log(Y)) for Y in (100, 1000)]
    assert all(0 < r <= 10 for r in ratios)


def test_hua_budget_and_domain(monkeypatch):
    with pytest.raises(DomainError):
        hua_count(0, 3, 2)
    with pytest.raises(DomainError):
        hua_count(5, 3, 0)
    # a budget raise alone must not unlock allocations beyond the sort cap
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "10000000000000")
    with pytest.raises(SizeError):
        hua_count(10**6, 3, 2)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "100")
    with pytest.raises(BudgetError):
        hua_count(1000, 3, 2)


def test_minor_profile_k3():
    profile = minor_arc_bound_profile(10**4, 3, samples=1000, seed=0)
    assert len(profile.rows) == 1000
    assert np.isfinite(profile.constant)
    params = ArcParameters.default(10**4, 3)
    # minor samples must have convergent denominators beyond Q
    assert all(row["q"] > params.Q for row in profile.rows)


def test_minor_profile_k8_smooth_branch():
    profile = minor_arc_bound_profile(10**4, 8, samples=40, seed=1)
    assert len(profile.rows) == 40
    assert np.isfinite(profile.constant) and profile.constant > 0
