import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlekit import circle, threads
from circlekit.arith import divisor_sieve, integer_kth_root
from circlekit.budget import DEFAULT_BUDGET
from circlekit.circle import (
    ArcParameters,
    ArcVerdict,
    DiagnosticBound,
    RationalApproximation,
    classify_arc,
    classify_batch,
    contract_batch,
    dirichlet_approx,
    dirichlet_contract_scan,
    expansion_envelope_scan,
    hua_count,
    minor_arc_bound_profile,
    vk_envelope_scan,
)
from circlekit.errors import BudgetError, DomainError, SizeError
from circlekit.expsums import power_sum_spectrum, weyl_sum
from circlekit.integrals import linear_phase_batch, unit_phase_batch
from circlekit.series import log_weight
from arc_reference import convergents, table_rows
from density_reference import whole_array_log_phase, whole_array_unit_phase


def exact_contract_holds(alpha: float, tau: float) -> bool:
    approx = dirichlet_approx(alpha, tau)
    return fraction_contract(alpha, approx.a, approx.q, tau)


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
    scan = dirichlet_contract_scan(300, tau, seed=5)
    assert scan.params["failures"] == 0
    alphas = np.random.default_rng(5).random(300)
    assert scan.columns["alpha"].tolist() == alphas.tolist()
    for row in table_rows(scan):
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
    with pytest.raises(DomainError, match="Q\\*tau"):
        ArcParameters(x=10**4, k=3, Q=10, tau=50.0)  # Q tau = 500 < x/4
    with pytest.raises(DomainError, match="Q\\*tau"):
        ArcParameters(x=10**4, k=3, Q=39, tau=9000.0)  # Q tau = 351000 > 4x


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


# Reference arc code in Fraction arithmetic: the rational comparisons
# the library makes on cross-multiplied integers, written out directly.


def fraction_convergents(value: Fraction):
    p_prev, q_prev = 1, 0
    p, q = int(math.floor(value)), 1
    yield p, q
    rest = value - int(math.floor(value))
    while rest != 0:
        value = 1 / rest
        digit = int(math.floor(value))
        rest = value - digit
        p, p_prev = digit * p + p_prev, p
        q, q_prev = digit * q + q_prev, q
        yield p, q


def fraction_dirichlet(alpha: float, tau: float) -> RationalApproximation:
    exact = Fraction(float(alpha))
    tau_frac = Fraction(float(tau))
    best = (int(math.floor(exact)), 1)
    for p, q in fraction_convergents(exact):
        if q > tau_frac:
            break
        best = (p, q)
    a, q = best
    return RationalApproximation(a=a, q=q, lam=float(exact - Fraction(a, q)))


def fraction_classify(alpha: float, params: ArcParameters) -> ArcVerdict | None:
    """The verdict, or None where alpha lies outside [1/tau, 1 + 1/tau]."""
    exact = Fraction(float(alpha))
    tau_frac = Fraction(float(params.tau))
    if not 1 / tau_frac <= exact <= 1 + 1 / tau_frac:
        return None
    for p, q in fraction_convergents(exact):
        if q > params.Q:
            break
        if 1 <= p <= q and abs(exact - Fraction(p, q)) * (q * tau_frac) <= 1:
            return ArcVerdict(major=True, a=p, q=q)
    return ArcVerdict(major=False)


def fraction_contract(alpha: float, a: int, q: int, tau: float) -> bool:
    tau_frac = Fraction(float(tau))
    return (
        q <= tau_frac
        and abs(Fraction(alpha) - Fraction(a, q)) * q * tau_frac <= 1
        and math.gcd(a, q) == 1
    )


def same_float(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


TAUS = [1.0, 37.5, 1000.0] + [ArcParameters.default(x, 3).tau for x in (10**4, 10**6)]
# tau = 256 is dyadic, so alpha can sit exactly on the major-arc boundary
ARC_PARAMS = [ArcParameters.default(x, 3) for x in (10**4, 10**6)] + [
    ArcParameters(x=10**4, k=3, Q=39, tau=256.0)
]
DYADICS = st.builds(lambda n, e: n / 2**e, st.integers(-(2**20), 2**20), st.integers(0, 24))


@st.composite
def window_alphas(draw):
    params = draw(st.sampled_from(ARC_PARAMS))
    lo = 1.0 / params.tau
    alpha = draw(st.floats(lo, 1.0 + lo) | DYADICS.filter(lambda v: -1.0 <= v <= 2.0))
    return alpha, params


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(0.0, 2.0) | st.floats(-1e6, 1e6) | DYADICS | st.floats(-1e-300, 1e-300)
    | st.sampled_from([5e-324, -5e-324, 2.0**-1022, 2.0**-1074 * 3, 0.5, 0.0]),
    tau=st.sampled_from(TAUS),
)
@example(alpha=2.0**-64, tau=1000.0)
def test_dirichlet_matches_fraction_reference(alpha, tau):
    got = dirichlet_approx(alpha, tau)
    want = fraction_dirichlet(alpha, tau)
    assert got == want
    assert same_float(got.lam, want.lam)


@settings(max_examples=400, deadline=None)
@given(case=window_alphas())
@example(case=(0.25 + 1 / 1024, ARC_PARAMS[2]))  # |alpha - 1/4| = 1/(4 tau)
@example(case=(1 / 256, ARC_PARAMS[2]))  # the window's lower edge
@example(case=(1 + 1 / 256, ARC_PARAMS[2]))  # and its upper edge
def test_classify_matches_fraction_reference(case):
    alpha, params = case
    want = fraction_classify(alpha, params)
    if want is None:
        with pytest.raises(DomainError):
            classify_arc(alpha, params)
    else:
        assert classify_arc(alpha, params) == want


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(-4.0, 4.0) | DYADICS,
    tau=st.sampled_from(TAUS),
    a=st.integers(-50, 50),
    q=st.integers(1, 2000),
    own=st.booleans(),
)
@example(alpha=2.0, tau=1.0, a=1, q=1, own=False)  # |alpha - a/q| q tau = 1
@example(alpha=0.25 + 1 / 1024, tau=256.0, a=1, q=4, own=False)  # = 1 again
def test_contract_matches_fraction_reference(alpha, tau, a, q, own):
    # own: check alpha's own approximation, which always passes
    approx = dirichlet_approx(alpha, tau) if own else RationalApproximation(a, q, 0.0)
    want = fraction_contract(alpha, approx.a, approx.q, tau)
    for dtype in (np.int64, object):
        a_, q_ = np.array([approx.a], dtype=dtype), np.array([approx.q], dtype=dtype)
        assert contract_batch(np.array([alpha]), a_, q_, tau).tolist() == [want]
    if own:
        assert want


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
    hits = int(np.count_nonzero(classify_batch(1.0 / params.tau + rng.random(samples), params)[0]))
    predicted = sum(
        sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1) * 2.0 / (q * params.tau)
        for q in range(1, params.Q + 1)
    )
    assert abs(hits / samples - predicted) / predicted < 0.2


def test_vk_at_beta_zero_q_one():
    # at a/q = 1/1, beta = 0 the model is x^(1/k) and the sum is floor(x^(1/k))
    for k, floor in ((3, 21), (5, 6)):
        row = table_rows(vk_envelope_scan(10**4, k, q_max=1))[0]
        assert (row["a"], row["q"], row["beta"]) == (1, 1, 0.0)
        assert row["observed"] == pytest.approx((10**4) ** (1.0 / k) - floor, abs=1e-9)


def test_vk_rows_rebuild_the_model():
    # every row is |f_k(a/q + beta) - x^(1/k) S_k(q, a)/q I(x beta)|, rebuilt
    # here from its three factors in the scan's float order: I from one
    # batch at x (0, w/2, w), conjugated at -w, and S_k(q, a) from the
    # spectrum of q
    x, k = 10**4, 3
    table = table_rows(vk_envelope_scan(x, k, q_max=6))
    pairs = [(a, q) for q in range(1, 7) for a in range(1, q + 1) if math.gcd(a, q) == 1]
    assert [(row["a"], row["q"]) for row in table[::4]] == pairs
    for first in range(0, len(table), 4):
        rows = table[first : first + 4]
        a, q = rows[0]["a"], rows[0]["q"]
        betas = [row["beta"] for row in rows]
        width = betas[2]
        assert betas == [0.0, 0.5 * width, width, -width]
        phases = unit_phase_batch(float(x) * np.array(betas[:3]), k).tolist()
        phases.append(phases[2].conjugate())
        weight = x ** (1.0 / k) * power_sum_spectrum(q, k).tolist()[a % q] / q
        for row, beta, phase in zip(rows, betas, phases):
            assert row["observed"] == abs(weyl_sum(a / q + beta, x, k) - weight * phase)


@pytest.mark.parametrize("x", [215_999, 216_001, 10**15], ids=["below-10", "above-10", "1.67e4"])
def test_vk_phases_match_the_reference_quadrature(monkeypatch, x):
    # at q = 1 and k = 3, x w = x^(1/3)/6: just below and just above the
    # beta = 10 regime split of the batch, and 1.67e4, deep in its
    # large-beta form
    calls = []

    def recording(betas, k):
        values = unit_phase_batch(betas, k)
        calls.append((betas, values))
        return values

    monkeypatch.setattr("circlekit.circle.unit_phase_batch", recording)
    scan = vk_envelope_scan(x, 3, q_max=1)
    [(betas, values)] = calls
    width = scan.columns["beta"].tolist()[2]
    assert betas.tolist() == [0.0, float(x) * 0.5 * width, float(x) * width]
    for beta, value in zip(betas, values):
        assert abs(value - whole_array_unit_phase(beta, 3)) < 1e-9, beta
    # the scan's phase at -w, the conjugate of the one at w
    assert abs(values[2].conjugate() - whole_array_unit_phase(-betas[2], 3)) < 1e-9


def test_vk_residual_envelope_small_scan():
    scan = vk_envelope_scan(10**4, 3, q_max=25)
    assert isinstance(scan, DiagnosticBound)
    assert scan.constant <= 10.0
    assert len(scan.columns["ratio"]) > 0


def test_expansion_residual_q1():
    scan = expansion_envelope_scan(10**3, 3)
    q1 = [row for row in table_rows(scan) if row["q"] == 1]
    assert len(q1) == 3
    assert all(row["ratio"] <= 10.0 for row in q1)


def test_expansion_residual_is_the_scan_row():
    # a = 1 at every q in _EXPANSION_QS up to Q and Q itself, each at
    # beta = 0, 1/(2 q tau), 1/(q tau), with the documented bound
    x = 10**3
    params = ArcParameters.default(x, 3)
    rows = table_rows(expansion_envelope_scan(x, 3))
    grid = [(1, q, beta) for q in (1, 2, 3, 5, 7, 11, params.Q)
            for beta in (0.0, 0.5 / (q * params.tau), 1.0 / (q * params.tau))]
    assert [(row["a"], row["q"], row["beta"]) for row in rows] == grid
    for row in rows:
        q = row["q"]
        bound = x**0.05 * (math.sqrt(q) * x / params.tau + q ** (2.0 / 3.0) * x ** (1.0 / 3.0))
        assert row["bound"] == bound
        assert row["ratio"] == row["observed"] / bound


def test_expansion_residual_models_f_at_minus_alpha():
    # each scan row is the documented model against f(-a/q - beta) summed
    # with Fraction phases; x beta = Q = 15 at q = 1, beta = 1/tau takes
    # the log phase's large-beta form
    x, k = 10**3, 3
    table = divisor_sieve(4 * x)
    for row in table_rows(expansion_envelope_scan(x, k)):
        a, q, beta = row["a"], row["q"], row["beta"]
        alpha = -Fraction(a, q) - Fraction(beta)
        phases = np.array([float(n * alpha % 1) for n in range(1, 4 * x + 1)])
        f = complex((table[1 : 4 * x + 1] * np.exp(2j * np.pi * phases)).sum())
        lin = complex(linear_phase_batch(x * beta, upper=4.0))
        lg = whole_array_log_phase(x * beta, upper=4.0)
        model = (x * math.log(x) / q) * lin + (x / q) * lg + (log_weight(q) / q) * x * lin
        assert row["observed"] == pytest.approx(abs(f - model), rel=1e-9)


@pytest.mark.parametrize(
    "scan",
    [
        lambda: vk_envelope_scan(10**3, 3, q_max=5),
        lambda: expansion_envelope_scan(10**3, 3),
        lambda: minor_arc_bound_profile(10**4, 3, samples=50, seed=2),
    ],
    ids=["vk", "expansion", "minor"],
)
def test_constant_is_the_largest_row_ratio(scan):
    bound = scan()
    rows = table_rows(bound)
    assert rows
    assert bound.constant == max(row["ratio"] for row in rows)


def test_constant_without_rows_is_zero():
    assert minor_arc_bound_profile(10**4, 3, samples=0).constant == 0.0


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


def full_sort_hua(Y, k):
    # every ordered pair sum sorted, squared run lengths summed; the runs
    # are at most Y^2, so their squares and their sum stay in int64
    powers = np.arange(1, Y + 1, dtype=np.int64) ** k
    sums = (powers[:, None] + powers[None, :]).ravel()
    sums.sort()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sums)) + 1, [sums.size]))
    runs = np.diff(starts)
    return int((runs**2).sum())


def object_convolution_hua(Y, k, j):
    # the power histogram convolved t - 1 times as an object array of
    # Python ints, then its squares summed
    counts = np.bincount(np.arange(1, Y + 1, dtype=np.int64) ** k).astype(object)
    acc = counts
    for _ in range(2 ** (j - 1) - 1):
        acc = np.convolve(acc, counts)
    return int((acc**2).sum())


def counter_squaring_hua(Y, k, j):
    # the t-fold sums of the k-th powers as a Counter, doubled j - 1 times
    # by adding every pair of sums, then its squares summed
    counts = Counter(m**k for m in range(1, Y + 1))
    for _ in range(j - 1):
        doubled = Counter()
        for a, ca in counts.items():
            for b, cb in counts.items():
                doubled[a + b] += ca * cb
        counts = doubled
    return sum(c * c for c in counts.values())


@pytest.mark.parametrize(
    "Y, k, j",
    [
        # Y^(t-1) = 1290^3 < 2^31 <= 1291^3: the adds pass from int32 to int64
        (1290, 1, 3), (1291, 1, 3),
        # t = 8: 500^7 < 2^63 <= 600^7, int64 and then Python-int adds
        (500, 1, 4), (600, 1, 4),
        # 2^1023 >= 2^63: Python-int adds
        (2, 1, 11),
        # int64 counts whose sum of squares, about 8.2e21, passes 2^63
        (1500, 1, 3),
        (20, 3, 3), (8, 4, 3),
    ],
)
def test_hua_higher_moments_match_object_convolution(Y, k, j):
    # the sparse k >= 3 histograms take the Counter reference: the object
    # convolution takes seconds over their zero coefficients
    reference = counter_squaring_hua if k >= 3 else object_convolution_hua
    assert hua_count(Y, k, j) == reference(Y, k, j)


def test_hua_refuses_a_count_past_the_digit_limit(monkeypatch):
    # k = 1, Y = 2: the counts are binomials, so the moment is C(2t, t);
    # j = 13 has 2,464 digits, and j = 14 may have 4,932, past Python's
    # default 4,300, and is refused before any add
    assert hua_count(2, 1, 13) == math.comb(2**13, 2**12)

    class Reached(Exception):
        pass

    def spy(indicator, t):
        raise Reached

    monkeypatch.setattr(circle, "indicator_power", spy)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
    with pytest.raises(SizeError, match="4300 digits"):
        hua_count(2, 1, 14)
    # a limit of 0 sets none
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    with pytest.raises(Reached):
        hua_count(2, 1, 14)


@pytest.mark.parametrize(
    "Y, k", [(300, 3), (2000, 4), (1000, 1), (500, 2), (1290, 6), (5000, 3)]
)
def test_hua_matches_full_sort(Y, k):
    # k = 1 and k = 2 have many off-diagonal pairs summing to 2m^k
    assert hua_count(Y, k, 2) == full_sort_hua(Y, k)


def _rank_split_runs(Y, k, size):
    """The runs of equal pair sums m^k + n^k, m < n, that cuts after every
    `size` sorted sums would split, and those of them equal to some 2m^k."""
    powers = np.arange(1, Y + 1, dtype=np.int64) ** k
    m, n = np.triu_indices(Y, 1)
    sums = np.sort(powers[m] + powers[n])
    cuts = np.arange(size, sums.size, size)
    split = sums[cuts][sums[cuts - 1] == sums[cuts]]
    return split, np.intersect1d(split, 2 * powers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("size, Y", [(64, 235), (1000, 501)])
def test_hua_buckets_match_full_sort(monkeypatch, size, Y, k, workers):
    # hundreds of small buckets, their edges set by the pair-sum law; at
    # k = 1 and 2 a split by rank would cut runs of equal sums, some of them
    # off-diagonal sums equal to 2m^k, which a value bucket must keep whole
    monkeypatch.setattr(circle, "_BUCKET", size)
    monkeypatch.setattr(threads, "WORKERS", workers)
    if k <= 2:
        split, doubles = _rank_split_runs(Y, k, size)
        assert split.size and doubles.size
    assert hua_count(Y, k, 2) == full_sort_hua(Y, k)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
@pytest.mark.parametrize("Y", [235, 501])
def test_bucket_edges_balance_the_pair_sums(Y, k):
    # below Y^k about c_k (Y^2/2) (v / 2Y^k)^(2/k) pair sums are at most v,
    # 1 <= c_k <= 2, so each bucket there holds about c_k size / 2 sums and
    # each past Y^k fewer; the small sums' lattice effects cost some of it
    size = 1000
    powers = np.arange(1, Y + 1, dtype=np.int64) ** k
    m, n = np.triu_indices(Y, 1)
    sums = np.sort(powers[m] + powers[n])
    edges = circle._bucket_edges(k, sums.size, size, 2 * Y**k + 1)
    assert edges[0] == 0 and edges[-1] == 2 * Y**k + 1 and (np.diff(edges) > 0).all()
    counts = np.diff(np.searchsorted(sums, edges))
    assert counts.max() <= 1.25 * size
    assert counts[edges[1:] <= Y**k].min() >= size / 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("Y, k", [(40, 3), (60, 1)])
def test_hua_row_windows_match_full_sort(monkeypatch, Y, k, workers):
    # an edge at every pair sum and one past it gives one-value buckets;
    # row m's sums run from least[m] to most[m], so the rows that reach a
    # bucket start mid-table, some bucket starts at a row's most sum, no
    # row reaches the first and last buckets, and at k = 3 none reaches
    # those in the gaps between the last rows' sums either
    powers = np.arange(1, Y + 1, dtype=np.int64) ** k
    m, n = np.triu_indices(Y, 1)
    sums = np.unique(powers[m] + powers[n])
    edges = np.unique(np.concatenate(([0], sums, sums + 1, [2 * powers[-1] + 1])))
    least, most = powers[:-1] + powers[1:], powers[:-1] + powers[-1]
    first = np.searchsorted(most, edges[:-1])
    end = np.searchsorted(least, edges[1:])
    assert ((first > 0) & (first < end)).any() and np.isin(most, edges).any()
    empty = first >= end
    assert empty[0] and empty[-1] and empty[1:-1].any() == (k == 3)
    monkeypatch.setattr(circle, "_bucket_edges", lambda *args: edges)
    monkeypatch.setattr(threads, "WORKERS", workers)
    assert hua_count(Y, k, 2) == full_sort_hua(Y, k)


def test_hua_memory_stays_in_buckets(monkeypatch):
    # one sorted array of all 12.5M pair sums peaked at 107 MiB; two
    # workers hold two buckets of sums and indices and the shared ramp,
    # about 5.1 MiB
    monkeypatch.setattr(threads, "WORKERS", 2)
    tracemalloc.start()
    try:
        hua_count(5000, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_hua_higher_moment_memory_is_the_int32_counts():
    # Y = 40, k = 4, j = 3: Y^3 < 2^31, so the last round adds the counts r,
    # 4 Y^4 + 1 int32, from the previous round's 3 Y^4 + 1, beside the
    # int8 power indicator, Y^4 + 1 bytes; r is widened one 2^20-entry
    # slice at a time after that round, never whole, and an int64 r would
    # take 39 MiB more
    tracemalloc.start()
    try:
        hua_count(40, 4, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (4 * 40**4 + 1) + 4 * (3 * 40**4 + 1) + (40**4 + 1) + 2**21


def test_hua_fourth_moment_log_growth():
    # k=2, j=2 is the classical fourth moment ~ Y^2 log Y
    ratios = [hua_count(Y, 2, 2) / (Y * Y * math.log(Y)) for Y in (100, 1000)]
    assert all(0 < r <= 10 for r in ratios)


def test_hua_budget_and_domain(monkeypatch):
    with pytest.raises(DomainError):
        hua_count(0, 3, 2)
    with pytest.raises(DomainError):
        hua_count(5, 3, 0)
    for k in (0, -1):
        with pytest.raises(DomainError, match="k must be >= 1"):
            hua_count(5, k, 2)
    # a budget raise alone must not unlock allocations beyond the sort cap
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "10000000000000")
    with pytest.raises(SizeError):
        hua_count(10**6, 3, 2)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "100")
    with pytest.raises(BudgetError):
        hua_count(1000, 3, 2)


@pytest.mark.parametrize("Y, k, j", [(3, 40, 2), (3, 40, 4), (2, 3, 1025), (2, 3, 10**30)])
def test_hua_refuses_by_bit_length_before_forming_powers(Y, k, j):
    # 2 * Y^k past int64, or t = 2^(j - 1) of at least 2^1024, whose units
    # no float budget covers; neither Y^k nor t is formed
    with pytest.raises(SizeError):
        hua_count(Y, k, j)


@pytest.mark.parametrize("j", [2, 3])
@pytest.mark.parametrize("Y, k", [(2, 10**39), (1, 2**63)])
def test_hua_refuses_a_k_past_int64_before_its_bit_length(Y, k, j):
    # check_k comes first: at Y = 1 the bit-length guard reads (1 - 1) k = 0
    with pytest.raises(DomainError, match=r"below 2\^63"):
        hua_count(Y, k, j)


def test_hua_keeps_the_exact_int64_edge():
    # 2 * 2^62 is past int64 but 2 * (2^62 - 1) is not; 3^39 < 2^62 < 3^40
    with pytest.raises(SizeError):
        hua_count(2, 62, 2)
    assert hua_count(2, 61, 2) == brute_hua(2, 61, 2)
    assert hua_count(3, 39, 2) == brute_hua(3, 39, 2)
    with pytest.raises(SizeError):
        hua_count(3, 40, 2)


def test_hua_budget_counts_convolution_products(monkeypatch):
    # Y = 3, k = 3, j = 3: round i = 1..3 adds 27 i + 1 coefficients once
    # per power, 3 (27 * 6 + 3) = 495 element adds
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "495")
    assert hua_count(3, 3, 3) == brute_hua(3, 3, 3)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "494")
    with pytest.raises(BudgetError) as info:
        hua_count(3, 3, 3)
    assert info.value.required == 495


@pytest.mark.parametrize(
    "scan, required",
    [
        # 3 samples, each at most 2 * 7 + 3 Euclid steps to pass tau = 100
        (lambda: dirichlet_contract_scan(3, 100.0, 0), 51),
        # x = 10^4, k = 3: Q = 39, tau = 10^4/39, m = 21; per sample
        # 50 draws * (2*6 + 3) + (2*9 + 3) + 21 = 792
        (lambda: minor_arc_bound_profile(10**4, 3, samples=2), 1584),
        # x = 100, k = 3: m = 4; 2 * 3 * 4 * (4 + 3) for the sums, and 3 * 3
        # phases of the unit small-beta rule's 440 nodes (55 panels of 8,
        # at every k): 168 + 3960
        (lambda: vk_envelope_scan(100, 3, q_max=3), 4128),
        # x = 1000, k = 3: Q = 15, q in {1, 2, 3, 5, 7, 11, 15}, three
        # beta each, 4x terms per row: 21 * 4000
        (lambda: expansion_envelope_scan(1000, 3), 84_000),
    ],
    ids=["dirichlet", "minor", "vk", "expansion"],
)
def test_probe_budget_charge(monkeypatch, scan, required):
    monkeypatch.setenv("CIRCLEKIT_BUDGET", str(required))
    scan()
    monkeypatch.setenv("CIRCLEKIT_BUDGET", str(required - 1))
    with pytest.raises(BudgetError) as info:
        scan()
    assert info.value.required == required


def test_probe_charges_at_benchmark_sizes_stay_small(monkeypatch):
    # the arcs benchmark sizes must cost under 1% of the default budget;
    # the charge is read from check_budget without running the scan
    class Charged(Exception):
        pass

    def capture(required, label=""):
        raise Charged(required)

    monkeypatch.setattr("circlekit.circle.check_budget", capture)
    scans = [
        lambda: dirichlet_contract_scan(20_000, 1000.0, 0),
        lambda: minor_arc_bound_profile(10**6, 3, samples=10_000),
    ] + [lambda k=k: vk_envelope_scan(10**4, k, q_max=50) for k in (3, 4, 5)]
    for scan in scans:
        with pytest.raises(Charged) as info:
            scan()
        assert info.value.args[0] < DEFAULT_BUDGET // 100
    # x = 10^4, k = 3: Q = 39, seven q, 21 rows of 4x terms; charged
    # before the divisor table is built
    with pytest.raises(Charged) as info:
        expansion_envelope_scan(10**4, 3)
    assert info.value.args[0] == 840_000


def test_vk_scan_charges_its_sums_before_any_phase(monkeypatch):
    # x = 10^12, k = 3, q = 1: 2 * 1 * 2 * (10^4 + 1) = 40,004 for the sums,
    # and 3 phases of the unit rule's 440 small-beta nodes: 40,004 + 1,320 = 41,324
    def no_factor(q_or_betas, k):
        raise AssertionError("a model factor was computed before the budget check")

    monkeypatch.setattr("circlekit.circle.unit_phase_batch", no_factor)
    monkeypatch.setattr("circlekit.circle.power_sum_spectrum", no_factor)
    monkeypatch.setenv("CIRCLEKIT_BUDGET", "41323")
    with pytest.raises(BudgetError) as info:
        vk_envelope_scan(10**12, 3, 1)
    assert info.value.required == 41_324


@pytest.mark.parametrize(
    "x, q_max, required",
    [
        # m = 10^133 terms: x itself is past a float, so the sums refuse
        # first; the 3 phases take the unit rule's 440 small-beta nodes each
        (10**400, 1, 4 * (integer_kth_root(10**400, 3) + 1) + 3 * 440),
        # 2 * 10^9 * (10^9 + 1) * (21 + 10^9) units for the sums, and 3 * 10^9
        # phases of 440 nodes, before 4 * 10^9 offsets
        (10**4, 10**9, 2 * 10**9 * (10**9 + 1) * (21 + 10**9) + 3 * 10**9 * 440),
    ],
    ids=["x-past-float", "q-max-1e9"],
)
def test_vk_scan_refuses_its_sums_before_forming_offsets(monkeypatch, x, q_max, required):
    def no_factor(q_or_betas, k):
        raise AssertionError("offsets formed before the sums were charged")

    monkeypatch.setattr("circlekit.circle.unit_phase_batch", no_factor)
    monkeypatch.setattr("circlekit.circle.power_sum_spectrum", no_factor)
    with pytest.raises(BudgetError) as info:
        vk_envelope_scan(x, 3, q_max)
    assert info.value.required == required


def test_vk_scan_domain():
    for q_max in (0, -1):
        with pytest.raises(DomainError, match="q_max"):
            vk_envelope_scan(100, 3, q_max=q_max)


def test_sample_counts_must_not_be_negative():
    with pytest.raises(DomainError):
        minor_arc_bound_profile(10**4, 3, samples=-1)
    with pytest.raises(DomainError):
        dirichlet_contract_scan(-1, 100.0, 0)
    assert table_rows(minor_arc_bound_profile(10**4, 3, samples=0)) == []
    empty = dirichlet_contract_scan(0, 100.0, 0)
    assert table_rows(empty) == [] and empty.params["failures"] == 0


def test_minor_profile_k3():
    profile = minor_arc_bound_profile(10**4, 3, samples=1000, seed=0)
    assert len(table_rows(profile)) == 1000
    assert np.isfinite(profile.constant)
    params = ArcParameters.default(10**4, 3)
    # minor samples must have convergent denominators beyond Q
    assert all(row["q"] > params.Q for row in table_rows(profile))


def test_minor_profile_k8_smooth_branch():
    profile = minor_arc_bound_profile(10**4, 8, samples=40, seed=1)
    assert len(table_rows(profile)) == 40
    assert np.isfinite(profile.constant) and profile.constant > 0
