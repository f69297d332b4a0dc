import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlekit import expsums
from circlekit.arith import divisor_sieve, integer_kth_root
from circlekit.errors import DomainError
from circlekit.expsums import (
    _check_modulus,
    _power_residues,
    complete_power_sum,
    coprime_mask,
    divisor_exp_sum,
    power_sum_spectrum,
    weyl_batch,
    weyl_sum,
)
from power_residue_reference import (
    complete_power_sum_reference,
    power_residues_reference,
    power_sum_spectrum_reference,
)


def test_complete_sum_trivial_modulus():
    for k in (2, 3, 7):
        assert complete_power_sum(1, 1, k) == pytest.approx(1.0)


def test_complete_sum_hand_values():
    # q=4, k=2: e(1/4) + e(1) + e(1/4) + e(1) = 2 + 2i
    assert complete_power_sum(4, 1, 2) == pytest.approx(2 + 2j)
    # cubes mod 3 cycle through all residues: the sum vanishes
    assert abs(complete_power_sum(3, 1, 3)) < 1e-12


def test_complete_sum_domain():
    with pytest.raises(DomainError):
        complete_power_sum(6, 2, 3)
    with pytest.raises(DomainError):
        complete_power_sum(0, 1, 3)
    for k in (0, -1):
        with pytest.raises(DomainError, match="k must be >= 1"):
            complete_power_sum(5, 1, k)
        with pytest.raises(DomainError, match="k must be >= 1"):
            power_sum_spectrum(5, k)


def test_conjugate_symmetry():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 150:
        q = int(rng.integers(2, 501))
        a = int(rng.integers(1, q))
        if math.gcd(a, q) != 1:
            continue
        k = int(rng.integers(2, 9))
        lhs = complete_power_sum(q, q - a, k)
        rhs = complete_power_sum(q, a, k).conjugate()
        assert abs(lhs - rhs) < 1e-10
        checked += 1


def test_gauss_modulus_odd_q_spot():
    for q in range(3, 100, 2):
        spectrum = power_sum_spectrum(q, 2)
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                assert abs(abs(spectrum[a]) ** 2 - q) < 1e-6, (q, a)


def test_spectrum_matches_scalar_sum():
    for q, k in ((12, 3), (37, 4), (50, 2)):
        spectrum = power_sum_spectrum(q, k)
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                assert abs(spectrum[a] - complete_power_sum_reference(q, a, k)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 5000), k=st.integers(1, 10**6))
@example(q=1, k=1)
@example(q=1, k=2**19)
@example(q=2, k=2)
@example(q=4096, k=2**12)
@example(q=4096, k=2**12 - 1)
@example(q=4999, k=1)
@example(q=4999, k=2**19)
@example(q=4999, k=2**19 - 1)
@example(q=5000, k=2**13 - 1)
def test_power_residues_match_python_pow(q, k):
    residues = _power_residues(q, k)
    assert residues.dtype == np.int64
    assert residues.tolist() == power_residues_reference(q, k)


SPECTRUM_MODULI = [*range(1, 301), 2401, 3125, 4096, 4999]


@pytest.mark.parametrize("k", [*range(1, 9), 13])
def test_spectrum_equals_the_generator_route(k):
    for q in SPECTRUM_MODULI:
        assert np.array_equal(power_sum_spectrum(q, k), power_sum_spectrum_reference(q, k)), q


@pytest.mark.parametrize("k", [*range(1, 9), 13])
def test_complete_sum_equals_the_generator_route(k):
    # each spectrum entry against its sum of q terms, to 1e-9
    for q in SPECTRUM_MODULI:
        spectrum = power_sum_spectrum(q, k)
        for a in (1, q - 1, -1, q * 10**20 + 1):
            assert abs(spectrum[a % q] - complete_power_sum_reference(q, a, k)) < 1e-9, (q, a)


def test_coprime_mask_equals_the_gcd_mask():
    for q in range(1, 3001):
        assert np.array_equal(coprime_mask(q), np.gcd(np.arange(q), q) == 1), q


@pytest.mark.usefixtures("no_array_allocation")
def test_moduli_past_int64_range_are_refused():
    _check_modulus(2**31, 3)
    with pytest.raises(DomainError, match="q <= 2\\^31"):
        power_sum_spectrum(2**31 + 1, 3)
    with pytest.raises(DomainError, match="q <= 2\\^31"):
        complete_power_sum(2**31 + 1, 1, 3)


def test_triviality_bound():
    # |S_k(q,a)| <= q always
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = int(rng.integers(1, 400))
        a = 1 + int(rng.integers(0, q))
        if math.gcd(a, q) != 1:
            continue
        assert abs(complete_power_sum(q, a, 3)) <= q + 1e-9


def test_weyl_at_zero_counts_terms():
    assert weyl_sum(0.0, 10**6, 2) == pytest.approx(1000.0)
    assert weyl_sum(0.0, 17, 3) == pytest.approx(2.0)
    with pytest.raises(DomainError, match="x must be >= 1"):
        weyl_batch(np.zeros(1), 0, 3)


def test_weyl_parity_cancellation():
    # n^2 alternates even/odd, so e(n^2/2) alternates sign over n=1..4
    assert abs(weyl_sum(0.5, 16, 2)) < 1e-12


def test_weyl_periodicity():
    for alpha in (0.3, 0.123456, 0.9):
        a = weyl_sum(alpha, 10**4, 2)
        b = weyl_sum(alpha + 1.0, 10**4, 2)
        assert abs(a - b) < 1e-9


def bigint_weyl(alpha, x, ell):
    # each phase reduced exactly on Python integers: alpha = num/den
    m = integer_kth_root(x, ell)
    num, den = float(alpha).as_integer_ratio()
    phases = np.fromiter(
        (((num * n**ell) % den) / den for n in range(1, m + 1)), dtype=np.float64, count=m
    )
    return complex(np.exp(2j * np.pi * phases).sum())


# 0.1 and pi - 3 have e > 50; (2^52 + 1)/2^64 has e = 64 exactly and
# 2^-64 as well; (2^52 + 1)/2^65 < 2^-12 takes the Python-integer path
WEYL_ALPHAS = [
    0.0, 0.5, 0.1, math.pi - 3, -0.3, 1.75, 12345.678,
    (2**52 + 1) / 2**64, 2.0**-64, -(2**52 + 1) / 2**64,
    (2**52 + 1) / 2**65, 2.0**-70, 5e-324,
]


@pytest.mark.parametrize("ell", range(1, 9))
def test_weyl_matches_bigint_phases(ell):
    x = 3000**ell
    for alpha in WEYL_ALPHAS:
        assert weyl_sum(alpha, x, ell) == bigint_weyl(alpha, x, ell), alpha


@pytest.mark.parametrize("ell, x", [(4, 10**20), (5, 10**25), (8, 10**40)])
def test_weyl_matches_bigint_when_powers_wrap(ell, x):
    # n^ell passes 2^64 well inside these ranges (n = 10^5)
    assert integer_kth_root(x, ell) ** ell >= 2**64
    for alpha in (math.pi - 3, (2**52 + 1) / 2**64, -0.3):
        assert weyl_sum(alpha, x, ell) == bigint_weyl(alpha, x, ell), alpha


def test_weyl_powers_by_squaring_equal_the_product_loop():
    # numpy's integer power squares and multiplies, wrapping mod 2^64 as
    # the ell - 1 successive products did
    n = np.arange(1, 200_001, dtype=np.uint64)
    for ell in (1, 2, 3, 5, 8, 13, 64, 1000):
        powers = n.copy()
        for _ in range(ell - 1):
            powers *= n
        assert np.array_equal(n ** np.uint64(ell), powers), ell
    # the last ell below 2^63 costs 63 squarings on both paths, where the
    # products would take 2^63 - 2 multiplies for its one term
    for alpha in (math.pi - 3, 2.0**-70):
        assert weyl_sum(alpha, 10, 2**63 - 1) == bigint_weyl(alpha, 10, 2**63 - 1)
    # numpy takes the exponent as an int64, so ell stops below 2^63
    for ell in (2**63, 2**64):
        with pytest.raises(DomainError, match="below 2\\^63"):
            weyl_sum(0.3, 10, ell)


def whole_array_weyl(alpha, x, ell):
    # the uint64 phase route with every term in one array (alpha >= 2^-12)
    num, den = float(alpha).as_integer_ratio()
    n = np.arange(1, integer_kth_root(x, ell) + 1, dtype=np.uint64)
    residues = n**ell * np.uint64(num % 2**64) & np.uint64(den - 1)
    return complex(np.exp(2j * np.pi * (residues.astype(np.float64) / float(den))).sum())


@pytest.mark.parametrize("ell", [1, 3])
def test_weyl_blocks_keep_their_bits_up_to_one_block(monkeypatch, ell):
    monkeypatch.setattr(expsums, "_WEYL_TERMS", 1 << 12)
    for m in (1, 4095, 4096):
        assert weyl_sum(math.pi - 3, m**ell, ell) == whole_array_weyl(math.pi - 3, m**ell, ell)
    for m in (4097, 3 * 4096 + 5):
        got = weyl_sum(math.pi - 3, m**ell, ell)
        assert abs(got - whole_array_weyl(math.pi - 3, m**ell, ell)) < 1e-9


def test_weyl_sum_memory_is_one_block(monkeypatch):
    # the terms take about 64 bytes each while alive; m = 4 blocks of 2^12
    monkeypatch.setattr(expsums, "_WEYL_TERMS", 1 << 12)
    m = 4 << 12
    tracemalloc.start()
    try:
        weyl_sum(math.pi - 3, m * m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * (1 << 12)


@pytest.mark.parametrize("m", [3 * 2**16 + 5, 2**20])
def test_weyl_sum_keeps_a_long_block_to_table_chunks(m):
    # one block summed in parts of at most 2^16 terms, cut where numpy's
    # pairwise sum of the whole row cuts it (at a multiple of 4 terms, not
    # at the middle of an odd count): the whole row's bits, where the
    # whole row's table peaked at about 57 MiB at m = 2^20
    tracemalloc.start()
    try:
        got = weyl_sum(math.pi - 3, m**3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert got == whole_array_weyl(math.pi - 3, m**3, 3)


def test_weyl_batch_memory_is_one_chunk():
    # 4000 rows of m = 100 terms: chunked, about 48 bytes a table entry
    # while a chunk of 2^16 entries is live, 3.3 MiB in all; one unchunked
    # table of 4 * 10^5 entries peaks at about 18.6 MiB
    alphas = np.random.default_rng(1).random(4000)
    tracemalloc.start()
    try:
        weyl_batch(alphas, 10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_weyl_complete_period_identity():
    # x^(1/l) a multiple of q: the incomplete sum closes into complete periods
    q, a, ell, m = 7, 3, 2, 21
    lhs = weyl_sum(a / q, m**ell, ell)
    rhs = (m / q) * complete_power_sum(q, a, ell)
    assert abs(lhs - rhs) < 1e-9


def test_divisor_exp_sum_hand_values():
    table = divisor_sieve(16)
    assert divisor_exp_sum(0, 1, 0.0, 1, table) == pytest.approx(8.0)  # 1+2+2+3
    assert divisor_exp_sum(1, 2, 0.0, 1, table) == pytest.approx(2.0)  # -1+2-2+3


def fraction_divisor_exp_sum(a, q, beta, x, table):
    # every phase n (a/q + beta) reduced mod 1 exactly, alpha = num/den as a Fraction
    alpha = Fraction(a, q) + Fraction(beta)
    num, den = alpha.numerator, alpha.denominator
    phases = np.array([(n * num) % den / den for n in range(1, 4 * x + 1)])
    terms = table[1 : 4 * x + 1] * np.exp(2j * np.pi * phases)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


# 4x = 160000 terms span three blocks of 2^16
F_CASES = [(0, 1, 0.0), (1, 3, 2.5e-6), (2, 5, -1e-6), (5, 7, -3.3e-7), (3, 11, 1.9e-6)]


@pytest.fixture(scope="module")
def table_160k():
    return divisor_sieve(4 * 40_000)


@pytest.mark.parametrize("a, q, beta", F_CASES)
def test_divisor_exp_sum_matches_exact_phases(table_160k, a, q, beta):
    got = divisor_exp_sum(a, q, beta, 40_000, table_160k)
    want = fraction_divisor_exp_sum(a, q, beta, 40_000, table_160k)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_divisor_exp_sum_conjugate(table_160k):
    # d is real, so f(-alpha) is the conjugate of f(alpha)
    for a, q, beta in F_CASES[1:] + [(377, 1000, 0.0), (9, 10, 4e-6)]:
        lhs = divisor_exp_sum(q - a, q, -beta, 40_000, table_160k)
        rhs = divisor_exp_sum(a, q, beta, 40_000, table_160k).conjugate()
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_divisor_exp_sum_requires_table():
    with pytest.raises(DomainError):
        divisor_exp_sum(0, 1, 0.0, 100, divisor_sieve(10))


def _crt_residual(q1, q2, a, k):
    """|S_k(q1 q2, a) - S_k(q1, a q2^(k-1)) S_k(q2, a q1^(k-1))| at coprime q1, q2."""
    whole = complete_power_sum(q1 * q2, a, k)
    left = complete_power_sum(q1, a * pow(q2, k - 1, q1) % q1, k)
    right = complete_power_sum(q2, a * pow(q1, k - 1, q2) % q2, k)
    return abs(whole - left * right)


def test_crt_factorization_examples():
    assert _crt_residual(1, 9, 2, 3) < 1e-12
    assert _crt_residual(3, 4, 1, 2) < 1e-8
    assert _crt_residual(5, 7, 3, 3) < 1e-8
