import math
from itertools import accumulate

import numpy as np
import pytest

from circlekit.constants import EULER_GAMMA
from circlekit.errors import BudgetError, DomainError, NumericalIntegrityError
from circlekit.series import (
    MainTerm,
    _real_part,
    local_density,
    local_density_direct,
    sigma_truncated,
)
from power_residue_reference import power_sum_spectrum_reference


def test_density_trivial_and_vanishing_moduli():
    assert local_density(1, 3) == 1.0
    assert local_density(1, 8) == 1.0
    # S_2(2,1) = e(1/2) + e(2) = 0, so every summand dies
    for k in (3, 4, 5, 8):
        assert abs(local_density(2, k)) < 1e-12


def test_density_hand_value_q4_k3():
    # phases: S_2(4,1) = 2+2i, S_3(4,1) = 2, plus conjugates at a=3:
    # A = 4^-5 * 2 Re[(2+2i)^3 * 2] = -64/1024
    assert local_density(4, 3) == pytest.approx(-1.0 / 16.0, abs=1e-12)


def test_density_two_code_paths_agree():
    for q in range(1, 41):
        for k in (3, 5):
            assert local_density(q, k) == pytest.approx(
                local_density_direct(q, k), abs=1e-10
            )
    for q in (60, 77, 120, 200):
        assert local_density(q, 4) == pytest.approx(
            local_density_direct(q, 4), abs=1e-9
        )


def test_density_multiplicative():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 40:
        q1 = int(rng.integers(2, 60))
        q2 = int(rng.integers(2, 60))
        if math.gcd(q1, q2) != 1:
            continue
        k = int(rng.integers(3, 9))
        lhs = local_density(q1 * q2, k)
        rhs = local_density(q1, k) * local_density(q2, k)
        assert abs(lhs - rhs) < 1e-8, (q1, q2, k)
        checked += 1


def test_density_domain_and_integrity_gate():
    with pytest.raises(DomainError):
        local_density(0, 3)
    with pytest.raises(NumericalIntegrityError):
        _real_part(1.0 + 1e-3j, q=17)


def test_sigma_q1_and_q2():
    p1 = sigma_truncated(1, 3)
    assert p1.sigma1 == 1.0
    assert p1.sigma2 == pytest.approx(2 * EULER_GAMMA, abs=1e-12)
    p2 = sigma_truncated(2, 3)
    assert p2.sigma1 == pytest.approx(p1.sigma1, abs=1e-12)
    assert p2.sigma2 == pytest.approx(p1.sigma2, abs=1e-12)


def _factorized_terms(Q, k, density=local_density):
    """A_k(q) for q <= Q by trial-division factorization, multiplying the
    prime-power densities in ascending prime order: the reference rule."""
    cache = {1: 1.0}
    for q in range(2, Q + 1):
        parts, n, p = [], q, 2
        while p * p <= n:
            if n % p == 0:
                pe = 1
                while n % p == 0:
                    pe *= p
                    n //= p
                parts.append(pe)
            p += 1
        if n > 1:
            parts.append(n)
        if len(parts) == 1:
            cache[q] = density(q, k)
        else:
            prod = 1.0
            for pe in parts:
                prod *= cache[pe]
            cache[q] = prod
    return [(q, cache[q]) for q in range(1, Q + 1)]


@pytest.mark.parametrize("Q", [1, 2, 210, 1000, 2310])
def test_sigma_terms_equal_the_factorized_rule(Q):
    for k in range(3, 9):
        assert sigma_truncated(Q, k).terms == _factorized_terms(Q, k), k


def _reference_density(q, k):
    """A_k(q) from the generator-route spectra and the gcd mask."""
    s2 = power_sum_spectrum_reference(q, 2)
    sk = power_sum_spectrum_reference(q, k)
    mask = np.gcd(np.arange(q), q) == 1
    return _real_part(complex((s2[mask] ** 3 * sk[mask]).sum()) / q**5, q)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_sigma_terms_equal_the_reference_spectra(k):
    assert sigma_truncated(600, k).terms == _factorized_terms(600, k, _reference_density)


@pytest.mark.usefixtures("no_array_allocation")
def test_density_refuses_moduli_past_int64_range():
    with pytest.raises(DomainError, match="q <= 2\\^31"):
        local_density(2**31 + 1, 3)


def test_sigma_prime_power_terms_are_local_densities():
    prime_powers = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]
    for k in (3, 4, 8):
        values = dict(sigma_truncated(128, k).terms)
        for q in prime_powers:
            assert values[q] == local_density(q, k), (q, k)


def test_sigma_fast_equals_direct():
    # the prime-power table against the spectrum evaluated at every q
    for k in (3, 6):
        partial = sigma_truncated(50, k)
        direct = [local_density(q, k) for q in range(1, 51)]
        assert [q for q, _ in partial.terms] == list(range(1, 51))
        for (_, value), expected in zip(partial.terms, direct):
            assert value == pytest.approx(expected, abs=1e-10)
        weighted = [(-2.0 * math.log(q) + 2.0 * EULER_GAMMA) * a for q, a in enumerate(direct, 1)]
        assert partial.sigma1 == pytest.approx(sum(direct), abs=1e-10)
        assert partial.sigma2 == pytest.approx(sum(weighted), abs=1e-10)


def test_running_sums_accumulate_the_terms():
    partial = sigma_truncated(60, 4)
    values = [a for _, a in partial.terms]
    weighted = [(-2.0 * math.log(q) + 2.0 * EULER_GAMMA) * a for q, a in partial.terms]
    assert partial.running1 == list(accumulate(values))
    assert partial.running2 == list(accumulate(weighted))
    assert partial.sigma1 == partial.running1[-1]
    assert partial.sigma2 == partial.running2[-1]


def test_main_term_shape():
    term = MainTerm(k=3, sigma1=0.9, sigma2=1.2, j1=1.0, j2=0.07)
    assert term.C1 == pytest.approx(0.9)
    assert term.C2 == pytest.approx(0.9 * 0.07 + 1.2 * 1.0)
    assert term.scale(100) == pytest.approx(100 ** (11 / 6))
    expected = term.C1 * 100 ** (11 / 6) * math.log(100) + term.C2 * 100 ** (11 / 6)
    assert term.value(100) == pytest.approx(expected)


def test_sigma_convergence_stability():
    a = sigma_truncated(200, 3)
    b = sigma_truncated(400, 3)
    assert abs(a.sigma1 - b.sigma1) < 5e-5  # stable to 4 decimals
    assert abs(a.sigma2 - b.sigma2) < 5e-4


def test_sigma_positive_leading_constant():
    # the computed leading constant should stay well away from zero
    for k in range(3, 9):
        partial = sigma_truncated(100, k)
        assert partial.sigma1 > 0, (k, partial.sigma1)


def test_sigma_domain():
    with pytest.raises(DomainError):
        sigma_truncated(0, 3)
    # k is checked before the budget, which Q = 10^6 would exceed
    for k in (0, -1):
        with pytest.raises(DomainError, match="k must be >= 1"):
            sigma_truncated(10**6, k)


def _tail_constants(Q, k):
    """Fitted constants of the doubling Q -> 2Q against the tail envelope
    Q^(-1/2-1/k); sigma2's weight carries an extra log, so its envelope
    gets a log(2 + Q) factor."""
    partial_q, partial_2q = sigma_truncated(Q, k), sigma_truncated(2 * Q, k)
    envelope = Q ** (-0.5 - 1.0 / k)
    c1 = abs(partial_2q.sigma1 - partial_q.sigma1) / envelope
    c2 = abs(partial_2q.sigma2 - partial_q.sigma2) / (envelope * math.log(2.0 + Q))
    return c1, c2


def test_tail_check_trivial_doubling():
    c1, c2 = _tail_constants(1, 3)
    assert c1 == pytest.approx(0.0, abs=1e-12)
    assert c2 == pytest.approx(0.0, abs=1e-12)


def test_tail_check_bounded_constants():
    constants = []
    for Q in (25, 50, 100):
        c1, c2 = _tail_constants(Q, 3)
        assert c1 <= 10.0
        assert c2 <= 10.0
        constants.append(c1)
    assert max(constants) <= 10.0  # non-diverging across doublings


def test_sigma_truncated_budget_is_q_triangle(monkeypatch):
    # Q (Q + 1) / 2 units: Q = 4 needs exactly 10, Q = 5 needs 15
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "10")
    assert sigma_truncated(4, 3).Q == 4
    with pytest.raises(BudgetError) as info:
        sigma_truncated(5, 3)
    assert info.value.required == 15
