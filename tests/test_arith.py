import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlekit import arith, integrals, threads
from circlekit.arith import (
    ProblemInstance,
    _fft_length,
    _parity_cube,
    build_histograms,
    divisor_sieve,
    exact_S_convolution,
    exact_S_direct,
    indicator_power,
    integer_kth_root,
    sum_d_squared,
)
from circlekit.budget import DEFAULT_BUDGET
from circlekit.errors import BudgetError, DomainError, PrecisionError, SizeError
from circlekit.expsums import divisor_exp_sum
from circlekit.integrals import check_oracle_grid, j_volume_oracle

PRIMES_UNDER_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.fixture(scope="module")
def table_1e6():
    return divisor_sieve(10**6)


def test_integer_kth_root_exact_at_powers():
    assert integer_kth_root(8, 3) == 2
    assert integer_kth_root(7, 3) == 1
    assert integer_kth_root(1, 5) == 1
    assert integer_kth_root(0, 2) == 0
    assert integer_kth_root(10**18, 3) == 10**6
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 10**12))
        k = int(rng.integers(2, 9))
        r = integer_kth_root(n, k)
        assert r**k <= n < (r + 1) ** k


def test_integer_kth_root_at_zero_and_exponents_1_and_2():
    # the bisection alone, with no shortcut, at n = 0 and k = 1, 2 up to 10^400
    assert [integer_kth_root(0, k) for k in range(1, 9)] == [0] * 8
    rng = np.random.default_rng(11)
    ns = [1, 2, 3, 4, 10**400, 10**400 - 1, (10**200 + 7) ** 2, (10**200 + 7) ** 2 - 1]
    ns += [int(rng.integers(1, 10**6)) ** int(rng.integers(1, 68)) for _ in range(200)]
    for n in ns:
        assert integer_kth_root(n, 1) == n
        assert integer_kth_root(n, 2) == math.isqrt(n)


def test_sieve_small_values():
    t = divisor_sieve(100)
    assert t[1] == 1
    assert t[12] == 6  # divisors 1,2,3,4,6,12
    assert t[97] == 2  # prime
    for p in PRIMES_UNDER_60:
        assert t[p] == 2


def test_sieve_limit_one():
    t = divisor_sieve(1)
    assert len(t) == 2 and t[1] == 1


def test_sieve_rejects_bad_sizes():
    with pytest.raises(SizeError):
        divisor_sieve(0)
    with pytest.raises(IndexError):
        divisor_sieve(10)[11]


def divisor_count_naive(n):
    # d(n) by trial division: the sieve's independent oracle
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


def test_sieve_matches_trial_division(table_1e6):
    rng = np.random.default_rng(0)
    for n in rng.integers(1, 10**6 + 1, size=1000):
        assert table_1e6[int(n)] == divisor_count_naive(int(n))


def harmonic_divisor_counts(limit):
    # every i marks each of its multiples once: d(n) = #{i : i | n}
    d = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, limit + 1):
        d[i::i] += 1
    return d


def test_sieve_matches_harmonic_marking():
    reference = harmonic_divisor_counts(2 * 10**4)
    sizes = list(range(1, 130)) + [
        1023, 1024, 1025, 9999, 10000, 10001, 141**2 - 1, 141**2, 2 * 10**4,
    ]
    for n in sizes:
        values = divisor_sieve(n)
        assert values.dtype == np.int32
        assert np.array_equal(values, reference[: n + 1]), n


def one_pass_sieve(limit):
    # the pair sieve over the whole table in one pass: d[i*i] += 1 and
    # d[i*j] += 2 for j > i, for every i <= sqrt(limit)
    d = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i] += 1
        d[i * (i + 1) :: i] += 2
    return d


# limits W - 1, W, W + 1, 2W and 2W + 1: the table's limit + 1 entries
# fill whole windows, or leave one or two entries for a last window
@pytest.mark.parametrize("window", [7, 64])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sieve_windows_equal_one_pass(monkeypatch, window, workers):
    monkeypatch.setattr(arith, "_SIEVE_WINDOW", window)
    monkeypatch.setattr(threads, "WORKERS", workers)
    edges = [window - 1, window, window + 1, 2 * window, 2 * window + 1]
    for limit in edges + [window**2 - 1, window**2, 4099]:
        assert np.array_equal(divisor_sieve(limit), one_pass_sieve(limit)), limit


def test_sieve_entries_bounded_by_pair_count(table_1e6):
    # d(n) <= 2 sqrt(n): one factor of each pair i*j = n is at most sqrt(n)
    n = np.arange(len(table_1e6), dtype=np.int64)
    assert np.all(table_1e6.astype(np.int64) ** 2 <= 4 * n)


def test_sieve_memory_is_the_table_and_one_window_per_worker(monkeypatch):
    # N = 4 * 10^6 is two windows of 2^21 entries, one per worker: each
    # window's temporaries are its sqrt(N) starts, not a copy of the table
    n = 4 * 10**6
    monkeypatch.setattr(threads, "WORKERS", 2)
    tracemalloc.start()
    try:
        table = divisor_sieve(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(range(0, n + 1, arith._SIEVE_WINDOW)) == 2
    assert peak < table.nbytes + 2 * 2**20


@pytest.mark.parametrize("n", [10**6, 4 * 10**6])
def test_sieve_prefix_sum_matches_hyperbola(n):
    s = math.isqrt(n)
    expected = 2 * sum(n // i for i in range(1, s + 1)) - s * s
    assert int(divisor_sieve(n).sum(dtype=np.int64)) == expected


def test_sieve_top_of_verify_range():
    top = 4 * 10**6
    table = divisor_sieve(top)
    for n in range(top - 300, top + 1):
        assert table[n] == divisor_count_naive(n), n


def test_divisor_multiplicative_on_coprime_pairs(table_1e6):
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 300:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) != 1:
            continue
        assert table_1e6[m * n] == table_1e6[m] * table_1e6[n]
        checked += 1


def test_sum_d_squared_hand_values():
    table = divisor_sieve(4)
    assert sum_d_squared(1, table) == 1
    assert sum_d_squared(4, table) == 18  # 1 + 4 + 4 + 9


def test_second_moment_envelope(table_1e6):
    # sum d(n)^2 <= C * N log^3 N with a modest constant.
    for n in (10**4, 10**5, 10**6):
        ratio = sum_d_squared(n, table_1e6) / (n * math.log(n) ** 3)
        assert 0.0 < ratio <= 2.0, (n, ratio)


def test_problem_instance_validation():
    with pytest.raises(DomainError):
        ProblemInstance(x=10, k=2)
    with pytest.raises(DomainError):
        ProblemInstance(x=0, k=3)
    inst = ProblemInstance(x=10**4, k=3)
    assert inst.square_limit == 100
    assert inst.power_limit == 21
    assert inst.max_value <= 4 * inst.x


def test_exact_sum_hand_values():
    table = divisor_sieve(13)
    assert exact_S_direct(ProblemInstance(x=1, k=3), table) == 3  # single tuple, d(4)
    # x=4, k=3: 1*d(4) + 3*d(7) + 3*d(10) + 1*d(13) = 3 + 6 + 12 + 2
    assert exact_S_direct(ProblemInstance(x=4, k=3), table) == 23
    assert exact_S_convolution(ProblemInstance(x=1, k=3), table) == 3
    assert exact_S_convolution(ProblemInstance(x=4, k=3), table) == 23


def test_histograms_x4():
    indicator, powers = build_histograms(ProblemInstance(x=4, k=3))
    assert indicator.tolist() == [0, 1, 0, 0, 1]  # 1^2 and 2^2
    assert powers.tolist() == [1]  # floor(4^(1/3)) = 1
    r3 = indicator_power(indicator, 3)
    assert r3[3] == 1 and r3[6] == 3 and r3[9] == 3 and r3[12] == 1
    assert r3.sum() == 8  # floor(sqrt 4)^3 ordered triples


def test_histograms_budget_refused_before_allocation(monkeypatch, no_array_allocation):
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "100")
    inst = ProblemInstance(x=10**4, k=3)  # 10^4 + 1 + 21 cells
    with pytest.raises(BudgetError) as info:
        build_histograms(inst)
    assert info.value.required == 10**4 + 1 + 21


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_dual_oracle_small(k):
    table = divisor_sieve(4 * 1000)
    for x in (10, 100, 1000):
        inst = ProblemInstance(x=x, k=k)
        assert exact_S_direct(inst, table) == exact_S_convolution(inst, table)


@settings(max_examples=60, deadline=None)
@given(x=st.integers(1, 3000), k=st.integers(3, 8))
def test_direct_equals_every_transform(x, k):
    inst = ProblemInstance(x=x, k=k)
    table = divisor_sieve(inst.max_value)
    direct = exact_S_direct(inst, table)
    for transform in ("auto", "ntt"):
        assert exact_S_convolution(inst, table, transform=transform) == direct
    # the parity cube paired with one table slice per n4, in int64
    indicator, powers = build_histograms(inst)
    r3 = _parity_cube(indicator)
    d = table.astype(np.int64)
    assert sum(int(np.dot(d[p : p + len(r3)], r3)) for p in powers) == direct


def ordered_direct(inst, table):
    # every ordered (n1, n2, n3, n4): the (n2, n3) plane swept as one block
    # per (n4, n1-chunk)
    r, p_lim = inst.square_limit, inst.power_limit
    d = table
    sq = np.arange(1, r + 1, dtype=np.int64) ** 2
    plane = sq[:, None] + sq[None, :]
    chunk = max(1, 4_000_000 // (r * r))
    total = 0
    for n4 in range(1, p_lim + 1):
        shift = sq + n4**inst.k
        for lo in range(0, r, chunk):
            block = plane[None, :, :] + shift[lo : lo + chunk, None, None]
            total += int(d.take(block).sum(dtype=np.int64))
    return total


@settings(max_examples=80, deadline=None)
@given(x=st.integers(1, 5000), k=st.integers(3, 8))
def test_direct_matches_ordered_tuples(x, k):
    inst = ProblemInstance(x=x, k=k)
    table = divisor_sieve(inst.max_value)
    assert exact_S_direct(inst, table) == ordered_direct(inst, table)


# x on both sides of a new square (m^2) or a new k-th power (n^k)
SQUARE_AND_POWER_EDGES = [
    (x, k) for m in (1, 2, 3, 31, 70) for x in (m * m - 1, m * m) for k in (3, 8) if x >= 1
] + [
    (x, k) for n, k in ((2, 3), (3, 3), (16, 3), (2, 4), (8, 4), (3, 5), (5, 5), (2, 8), (3, 7))
    for x in (n**k - 1, n**k)
]


@pytest.mark.parametrize("x, k", SQUARE_AND_POWER_EDGES)
def test_direct_matches_ordered_tuples_at_edges(x, k):
    inst = ProblemInstance(x=x, k=k)
    table = divisor_sieve(inst.max_value)
    assert exact_S_direct(inst, table) == ordered_direct(inst, table)


@settings(max_examples=30, deadline=None)
@given(x=st.integers(1, 2 * 10**4), k=st.integers(3, 8))
# both sides of a new square m^2 and of a new k-th power n^k
@example(x=141**2 - 1, k=3)
@example(x=141**2, k=5)
@example(x=27**3 - 1, k=3)
@example(x=27**3, k=3)
@example(x=11**4 - 1, k=4)
@example(x=11**4, k=4)
@example(x=3**8, k=8)
def test_direct_equal_on_any_worker_count(x, k):
    inst = ProblemInstance(x=x, k=k)
    table = divisor_sieve(inst.max_value)
    with pytest.MonkeyPatch.context() as mp:
        values = []
        for workers in (1, 2, 3, 4):
            mp.setattr(threads, "WORKERS", workers)
            values.append(exact_S_direct(inst, table))
    assert values == [values[0]] * 4


# C(r + 2, 3) unordered square triples: r = 1, 2, 240, 170 and 148
@pytest.mark.parametrize("x, k, triples", [(1, 3, 1), (4, 3, 4), (58000, 3, 2_332_880),
                                           (29000, 8, 833_340), (148**2, 5, 551_300)])
def test_direct_gathers_each_unordered_triple_once(monkeypatch, x, k, triples):
    inst = ProblemInstance(x=x, k=k)
    gathered_sum = arith._gathered_sum
    entries = []

    def spy(d, values, shift):
        # the entries one call reads: every value at every shift it is given
        entries.append(np.broadcast(values, shift).size)
        return gathered_sum(d, values, shift)

    monkeypatch.setattr(arith, "_gathered_sum", spy)
    exact_S_direct(inst, divisor_sieve(inst.max_value))
    assert sum(entries) == math.comb(inst.square_limit + 2, 3) == triples


def whole_window_sum(inst, table):
    # the unsegmented window: one int32 sum of a table slice per n4 over
    # all of r3, then one int64 dot
    indicator, powers = build_histograms(inst)
    r3 = indicator_power(indicator, 3)
    window = np.zeros(len(r3), dtype=np.int32)
    for s in powers:
        window += table[s : s + len(r3)]
    return int(np.dot(window.astype(np.int64), r3))


# r = 147 and 148: r3's 3r^2 + 1 entries fit one 2^16 segment, then
# spill 177 entries into a second
@pytest.mark.parametrize("x, k", [(148**2 - 1, 3), (148**2, 3), (148**2, 8)])
def test_window_segments_equal_direct_on_any_worker_count(monkeypatch, x, k):
    inst = ProblemInstance(x=x, k=k)
    table = divisor_sieve(inst.max_value)
    direct = exact_S_direct(inst, table)
    for workers in (1, 2, 4):
        monkeypatch.setattr(threads, "WORKERS", workers)
        assert exact_S_convolution(inst, table) == direct, workers


# 3r^2 + 1 is odd or 4 mod 8, never a multiple of 2^16, so the segment
# is shrunk to divide the 8749 entries of r3 at r = 54 (13 * 673) and
# 9076 at r = 55 (4 * 2269), or to leave one entry past the last full
# segment (8749 = 4 * 2187 + 1, 9076 = 3 * 3025 + 1)
@pytest.mark.parametrize("x, segment", [(3000, 673), (3000, 8749), (3025, 4), (3025, 9076),
                                        (3000, 2187), (3000, 8748), (3025, 3025), (3025, 9075)])
@pytest.mark.parametrize("k", [3, 5, 8])
def test_window_segments_at_multiples_and_one_past(monkeypatch, x, segment, k):
    inst = ProblemInstance(x=x, k=k)
    table = divisor_sieve(inst.max_value)
    direct = exact_S_direct(inst, table)
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    for workers in (1, 2, 4):
        monkeypatch.setattr(threads, "WORKERS", workers)
        assert exact_S_convolution(inst, table) == direct, workers


def test_window_segments_one_past_27_full_segments(monkeypatch):
    # r = 768: r3 has 27 * 2^16 + 1 entries, the last segment holds one
    inst = ProblemInstance(x=768**2, k=8)
    assert 3 * inst.square_limit**2 + 1 == 27 * 2**16 + 1
    table = divisor_sieve(inst.max_value)
    expected = whole_window_sum(inst, table)
    for workers in (1, 2, 4):
        monkeypatch.setattr(threads, "WORKERS", workers)
        assert exact_S_convolution(inst, table) == expected, workers


def test_convolution_transforms_agree():
    table = divisor_sieve(4 * 500)
    inst = ProblemInstance(x=500, k=4)
    indicator, _ = build_histograms(inst)
    assert np.array_equal(_parity_cube(indicator), indicator_power(indicator, 3))
    ntt_val = exact_S_convolution(inst, table, transform="ntt")
    assert exact_S_convolution(inst, table, transform="auto") == ntt_val
    for transform in ("fft", "bogus"):
        with pytest.raises(DomainError):
            exact_S_convolution(inst, table, transform=transform)


# x = 2^m/4 and 2^m/4 + 1: the power of two covering 4x + 2 is 2^(m+1),
# while the max_value + 1 output coefficients mostly fit in 2^m
QUARTER_POWERS = [(2**m // 4 + e, k) for m in range(10, 17) for e in (0, 1) for k in (3, 4, 8)]


def lattice_edges(k):
    # x on both sides of a new square or a new k-th power up to 10^5; the
    # squares include each least r with 3r^2 + 1 > 2^m, where the
    # transform length of r3 doubles
    squares = (1, 2, 3, 31, 316, *(math.isqrt(2**e // 3) + 1 for e in range(10, 19)))
    powers = (2, 3, integer_kth_root(10**5, k))
    bases = [(m, 2) for m in squares] + [(n, k) for n in powers]
    return [b**e + s for b, e in bases for s in (-1, 0)]


# k = 3..8, wherever the direct route enumerates at most 1.5e8 ordered tuples
LATTICE_EDGES = [
    (x, k)
    for k in range(3, 9)
    for x in lattice_edges(k)
    if x >= 1 and ProblemInstance(x, k).tuple_count <= 1.5e8
]


def test_transform_length_at_quarter_powers():
    cases = QUARTER_POWERS + LATTICE_EDGES
    table = divisor_sieve(max(ProblemInstance(x, k).max_value for x, k in cases))
    for x, k in cases:
        inst = ProblemInstance(x=x, k=k)
        direct = exact_S_direct(inst, table)
        assert exact_S_convolution(inst, table, transform="auto") == direct, (x, k)
        assert exact_S_convolution(inst, table, transform="ntt") == direct, (x, k)


def test_monotone_in_x():
    table = divisor_sieve(4 * 40)
    values = [exact_S_convolution(ProblemInstance(x=x, k=3), table) for x in range(1, 41)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_ntt_matches_fft_at_length_2_20():
    # x = 2e5: 599,428 coefficients of r3, which the power of two 2^20
    # covers; the parity pieces run at 150,000 points
    indicator, _ = build_histograms(ProblemInstance(x=2 * 10**5, k=3))
    out_len = 3 * len(indicator) - 2
    assert 1 << (out_len - 1).bit_length() == 1 << 20
    assert _fft_length(3 * len(indicator[0::4]) - 2) == 150_000
    assert np.array_equal(indicator_power(indicator, 3), _parity_cube(indicator))


def least_smooth_at_least(n):
    # the first m >= n with no prime factor above 5
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def test_fft_length_matches_brute_force():
    assert [_fft_length(n) for n in range(1, 5001)] == [
        least_smooth_at_least(n) for n in range(1, 5001)
    ]
    # x = 10^6 and 3e6: 3,000,001 and 8,999,473 coefficients of r3
    assert _fft_length(3_000_001) == 3_037_500
    assert _fft_length(8_999_473) == 9_000_000


# 0/1 indicators of length 1 to 2000, eight entries to a drawn byte
INDICATORS = st.tuples(st.binary(min_size=1, max_size=250), st.integers(0, 7)).map(
    lambda drawn: np.unpackbits(np.frombuffer(drawn[0], np.uint8))[: 8 * len(drawn[0]) - drawn[1]]
)


@settings(max_examples=120, deadline=None)
@given(indicator=INDICATORS, t=st.integers(2, 5))
@example(indicator=[1], t=5)  # a single 1
@example(indicator=[0, 0, 0, 1], t=3)
# all ones: the largest coefficients, about 2000^(t-1) times 1, 3/4, 2/3
# and 0.6; t = 4 and 5 pass 2^31 and so add in int64
@example(indicator=[1] * 2000, t=2)
@example(indicator=[1] * 2000, t=3)
@example(indicator=[1] * 2000, t=4)
@example(indicator=[1] * 2000, t=5)
@example(indicator=[0, 1], t=3)  # the square indicator at r = 1
def test_cube_equals_integer_convolution_at_every_length(indicator, t):
    # the t-th power, t = 3 the cube, against t - 1 object-array convolutions
    obj = np.array(indicator, dtype=object)
    expected = obj
    for _ in range(t - 1):
        expected = np.convolve(expected, obj)
    power = indicator_power(np.array(indicator, dtype=np.int64), t)
    assert power.dtype == np.int64
    assert power.tolist() == expected.tolist()


@pytest.mark.parametrize(
    "n, t, tier",
    [(1290, 4, np.int32), (1291, 4, np.int64), (2, 31, np.int32), (2, 32, np.int64),
     (2, 63, np.int64), (2, 64, object), (1, 3, np.int32)],
)
def test_indicator_power_adds_in_the_least_tier(monkeypatch, n, t, tier):
    # n ones give coefficients of at most n^(t-1): int32 below 2^31, int64
    # below 2^63, Python ints beyond, and int64 out of both integer tiers
    zeros = np.zeros
    tiers = set()

    def spy(shape, dtype):
        tiers.add(dtype)
        return zeros(shape, dtype)

    monkeypatch.setattr(np, "zeros", spy)
    power = indicator_power(np.ones(n, dtype=np.int64), t)
    monkeypatch.setattr(np, "zeros", zeros)
    assert tiers == {tier}
    assert power.dtype == (object if tier is object else np.int64)
    assert sum(power.tolist()) == n**t


def test_auto_falls_back_to_ntt(monkeypatch):
    # every parity piece's guard trips; auto then runs the exact cube once
    def refuse(coeffs, out):
        raise PrecisionError("forced")

    calls = []

    def counted(a, t):
        calls.append(t * (len(a) - 1) + 1)
        return indicator_power(a, t)

    monkeypatch.setattr(arith, "_rounded", refuse)
    monkeypatch.setattr(arith, "indicator_power", counted)
    for x, k in ((1, 3), (3000, 3), (5000, 8)):
        inst = ProblemInstance(x=x, k=k)
        table = divisor_sieve(inst.max_value)
        assert exact_S_convolution(inst, table) == exact_S_direct(inst, table)
    # one exact cube per size, each over the 3r^2 + 1 coefficients of r3
    assert calls == [4, 8749, 14701]


def test_float_transform_guard(monkeypatch):
    # the parity pieces' rounding distances: below 0.25 they pass and
    # indicator_power is never called; at 0.25 or more a piece's guard trips and
    # _parity_cube returns indicator_power(indicator, 3) after exactly one call
    indicator, _ = build_histograms(ProblemInstance(x=100, k=3))
    expected = indicator_power(indicator, 3)
    calls = []

    def counted(a, t):
        calls.append((len(a), t))
        return indicator_power(a, t)

    monkeypatch.setattr(arith, "indicator_power", counted)
    irfft = np.fft.irfft
    for shift, trips in ((0.1, False), (-0.24, False), (0.3, True), (-0.75, True)):
        calls.clear()
        monkeypatch.setattr(np.fft, "irfft", lambda s, n, shift=shift: irfft(s, n) + shift)
        r3 = _parity_cube(indicator)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        assert r3.dtype == np.int32 and np.array_equal(r3, expected), shift
        assert calls == ([(len(indicator), 3)] if trips else []), shift


@functools.cache
def exact_square_cube(r):
    indicator, _ = build_histograms(ProblemInstance(x=r * r, k=3))
    return indicator, indicator_power(indicator, 3)


# r = 999 and 1000 hold the odd and even top root of verify's x = 10^6
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parity_cube_equals_exact_cube(monkeypatch, workers):
    monkeypatch.setattr(threads, "WORKERS", workers)
    for r in list(range(1, 81)) + [316, 999, 1000]:
        indicator, expected = exact_square_cube(r)
        r3 = _parity_cube(indicator)
        assert r3.dtype == np.int32 and np.array_equal(r3, expected), r
    assert r3.sum() == 1000**3


def test_r3_fits_int32_under_the_sieve_cap():
    # r3's top index is 3r^2, so the sieve cap admits r up to
    # isqrt(MAX_SIEVE / 3); two roots fix the third, so an entry of r3 is
    # at most r^2, below 2^31 for every such r
    r = math.isqrt(arith.MAX_SIEVE // 3)
    assert 3 * r * r <= arith.MAX_SIEVE < 3 * (r + 1) ** 2
    assert r * r < 2**31
    for r in (1, 2, 80, 316):
        assert exact_square_cube(r)[1].max() <= r * r


def test_convolution_memory_at_one_million(monkeypatch):
    # x = 10^6: r3 holds 3,000,001 int32 and the indicator 1,000,001 int8; the
    # parity route adds its two forward spectra and, per worker, one
    # piece's spectrum and float coefficients at 759,375 points
    inst = ProblemInstance(x=10**6, k=3)
    table = divisor_sieve(inst.max_value)
    n = _fft_length(3 * (inst.square_limit**2 // 4 + 1) - 2)
    assert n == 759_375
    fixed = 4 * (3 * 10**6 + 1) + (10**6 + 1)
    for workers in (1, 2):
        monkeypatch.setattr(threads, "WORKERS", workers)
        tracemalloc.start()
        try:
            exact_S_convolution(inst, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fixed + (2 + 2 * workers) * 8 * n + 2**20, workers


def largest_admitted_x(k):
    # the largest x whose values max_value = 3 r^2 + P^k the sieve cap admits
    lo, hi = 1, arith.MAX_SIEVE
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ProblemInstance(mid, k).max_value <= arith.MAX_SIEVE else (lo, mid)
    return lo


@pytest.mark.parametrize("k", range(3, 9))
def test_int32_window_bound_under_the_sieve_cap(k):
    # d(n) <= 2 sqrt(n) <= 2 sqrt(MAX_SIEVE) for every sieved entry, so
    # each int32 window entry, a sum of P divisor counts, is below 2^24
    x = largest_admitted_x(k)
    inst = ProblemInstance(x, k)
    assert inst.max_value <= arith.MAX_SIEVE < ProblemInstance(x + 1, k).max_value
    max_d = 2 * math.isqrt(arith.MAX_SIEVE)
    assert max_d < 2**15
    assert inst.power_limit <= 368
    assert inst.power_limit * max_d < 2**24 < 2**31
    # the square indicator has r ones and 3 r^2 <= max_value, so the cube's
    # coefficients, at most r^2, fit its int32 adds
    assert inst.square_limit**2 <= arith.MAX_SIEVE // 3 < 2**31


def test_int32_cube_bound_under_the_default_budget(monkeypatch):
    # the oracle cubes the indicator of the triangular t = i(i + 1)/2,
    # i < 2g, which has 2g ones; the default budget admits 2g <= 1258
    class Reached(Exception):
        pass

    monkeypatch.delenv("CIRCLEKIT_BUDGET", raising=False)
    grid = integer_kth_root(DEFAULT_BUDGET, 3) // 2
    assert grid == 629
    check_oracle_grid(grid)
    with pytest.raises(BudgetError):
        check_oracle_grid(grid + 1)
    reached = []

    def spy(indicator, t):
        reached.append(indicator)
        raise Reached

    monkeypatch.setattr(integrals, "indicator_power", spy)
    with pytest.raises(Reached):
        j_volume_oracle(3, 1, grid)
    ones = np.flatnonzero(reached[0])
    assert reached[0].max() == 1 and len(ones) == 2 * grid
    assert len(ones) ** 2 < 2**31


# the largest P whose table fits MAX_SIEVE (its least x is P^k), for k = 3 ... 8
@pytest.mark.parametrize("k, p", [(3, 368), (4, 84), (5, 34), (6, 19), (7, 12), (8, 9)])
def test_n4_sums_fit_int32_at_the_sieve_cap(k, p):
    # exact_S_direct's w and exact_S_convolution's window each add P table
    # entries in int32, and every entry is d(n) <= 2 floor(sqrt(n))
    assert ProblemInstance(x=p**k, k=k).max_value <= arith.MAX_SIEVE
    assert ProblemInstance(x=(p + 1) ** k, k=k).max_value > arith.MAX_SIEVE
    # the docstrings' bound, well inside int32
    assert p * 2 * math.isqrt(arith.MAX_SIEVE) < 2**24


def test_budget_refusal(monkeypatch):
    inst = ProblemInstance(x=10**4, k=3)
    table = divisor_sieve(inst.max_value)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "1000")
    with pytest.raises(BudgetError) as info:
        exact_S_direct(inst, table)
    assert info.value.required == inst.tuple_count
    assert info.value.budget == 1000


SMALL = ProblemInstance(x=50, k=3)

# each reader of the divisor table, and the largest n it reads
TABLE_READERS = {
    "exact_S_direct": (lambda t: exact_S_direct(SMALL, t), SMALL.max_value),
    "exact_S_convolution": (lambda t: exact_S_convolution(SMALL, t), SMALL.max_value),
    "sum_d_squared": (lambda t: sum_d_squared(100, t), 100),
    "divisor_exp_sum": (lambda t: divisor_exp_sum(1, 3, 1e-4, 25, t), 100),
}


@pytest.mark.parametrize("read, need", TABLE_READERS.values(), ids=TABLE_READERS.keys())
def test_table_readers_share_one_coverage_check(read, need):
    with pytest.raises(DomainError):
        read(divisor_sieve(need - 1))
    read(divisor_sieve(need))


def test_table_reuse_requires_coverage():
    small = divisor_sieve(10)
    with pytest.raises(DomainError):
        exact_S_direct(ProblemInstance(x=100, k=3), small)
