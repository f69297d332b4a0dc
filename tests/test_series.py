import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from circlekit import series
from circlekit.errors import BudgetError, DomainError, NumericalIntegrityError
from circlekit.series import (
    MainTerm,
    _real_part,
    local_density,
    sigma_truncated,
)
from density_reference import local_density_direct
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
    assert p1.sigma2 == pytest.approx(2 * np.euler_gamma, abs=1e-12)
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


def _simple_odd_prime(q):
    """Whether some odd prime divides q exactly once: then q's term has a
    closed-form factor, and every other q's factors all come from spectra."""
    return any(q % p == 0 and q // p % p and all(p % f for f in range(2, p))
               for p in range(3, q + 1, 2))


# Measured at Q = 600: the largest relative gap at even k was 1.61e-15 (k = 6,
# q = 437) and the largest absolute one at odd k 1.22e-18 (k = 3, q = 7),
# the spectrum's residue where the exact value is 0.
@pytest.mark.parametrize("k", [3, 4, 6])
def test_sigma_terms_equal_the_reference_spectra(k):
    terms = sigma_truncated(600, k).terms
    for (q, value), (_, reference) in zip(terms, _factorized_terms(600, k, _reference_density)):
        if not _simple_odd_prime(q):
            assert value == reference, q
        elif k % 2:
            assert value == 0.0 and abs(reference) <= 2e-18, q
        else:
            assert abs(value - reference) <= 2e-15 * abs(reference), q


def _odd_primes(limit):
    return [p for p in range(3, limit + 1, 2) if all(p % f for f in range(3, math.isqrt(p) + 1, 2))]


def _solution_count(p, k):
    """#{x in (Z/p)^4 : x1^2 + x2^2 + x3^2 + x4^k = 0 mod p} in Python ints,
    from the residue histograms of the squares and of the k-th powers."""
    squares, powers = [0] * p, [0] * p
    for x in range(p):
        squares[x * x % p] += 1
        powers[pow(x, k, p)] += 1
    sums = squares
    for _ in range(2):
        sums = [sum(sums[a] * squares[(m - a) % p] for a in range(p)) for m in range(p)]
    return sum(sums[-r % p] * powers[r] for r in range(p))


def test_odd_prime_terms_equal_the_exact_solution_counts():
    # A_k(p) = (N(p) - p^3) / p^4; the closed form says 0 for odd k and
    # (p - 1) / p^3 for even k, and each term is that rational rounded
    series_terms = {k: dict(sigma_truncated(100, k).terms) for k in range(1, 13)}
    for p in _odd_primes(100):
        for k in range(1, 13):
            exact = Fraction(_solution_count(p, k) - p**3, p**4)
            assert exact == (Fraction(p - 1, p**3) if k % 2 == 0 else 0), (p, k)
            assert series_terms[k][p] == float(exact), (p, k)


def test_odd_prime_terms_are_the_closed_form_to_the_bit():
    primes = _odd_primes(5000)
    for k in range(3, 9):
        terms = dict(sigma_truncated(5000, k).terms)
        for p in primes:
            expected = (p - 1) / p**3 if k % 2 == 0 else 0.0
            assert terms[p].hex() == expected.hex(), (p, k)


def test_spectra_only_at_powers_of_two_and_higher_prime_powers(monkeypatch):
    # 2^e for e >= 1 and p^e for odd p and e >= 2, each once
    spectrum = series._spectrum_density
    visited = []

    def spy(q, k):
        visited.append(q)
        return spectrum(q, k)

    monkeypatch.setattr(series, "_spectrum_density", spy)
    expected = [2**e for e in range(1, 13)]
    for p in _odd_primes(70):
        expected += [p**e for e in range(2, 8) if p**e <= 5000]
    for k in (3, 6):
        visited.clear()
        sigma_truncated(5000, k)
        assert sorted(visited) == sorted(expected), k
    assert len(expected) == 43


@pytest.mark.parametrize("k", range(3, 9))
def test_zero_terms_are_positive_zeros(k):
    # a negative factor times an exact zero would be -0.0, which reports print
    for q, value in sigma_truncated(500, k).terms:
        assert value != 0.0 or math.copysign(1.0, value) == 1.0, q


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
        weighted = [(-2.0 * math.log(q) + 2.0 * np.euler_gamma) * a for q, a in enumerate(direct, 1)]
        assert partial.sigma1 == pytest.approx(sum(direct), abs=1e-10)
        assert partial.sigma2 == pytest.approx(sum(weighted), abs=1e-10)


def test_running_sums_accumulate_the_terms():
    partial = sigma_truncated(60, 4)
    values = [a for _, a in partial.terms]
    weighted = [(-2.0 * math.log(q) + 2.0 * np.euler_gamma) * a for q, a in partial.terms]
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
    # Q (isqrt(Q) + 3) units: Q = 4 needs exactly 20, Q = 5 needs 25
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "20")
    assert sigma_truncated(4, 3).Q == 4
    with pytest.raises(BudgetError) as info:
        sigma_truncated(5, 3)
    assert info.value.required == 25


def test_sigma_truncated_visits_no_more_than_its_charge(monkeypatch):
    # the spectra visit one residue per residue of each 2^e and p^e
    # (e >= 2) they are taken at, the term loop one per q: at every
    # Q <= 2000 that stays within the charge.  A series at Q takes the
    # spectra of the series at 2000 up to Q, in the same order.
    visited = []
    spectrum_density = series._spectrum_density

    def spy(q, k):
        visited.append(q)
        return spectrum_density(q, k)

    monkeypatch.setattr(series, "_spectrum_density", spy)
    sigma_truncated(2000, 4)
    at_2000 = list(visited)
    for Q in (1, 8, 9, 49, 50, 1024, 1999):
        visited.clear()
        sigma_truncated(Q, 4)
        assert visited == [q for q in at_2000 if q <= Q], Q
    for Q in range(1, 2001):
        assert sum(q for q in at_2000 if q <= Q) + Q <= Q * (math.isqrt(Q) + 3), Q
