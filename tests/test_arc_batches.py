"""The arc batches against the per-sample reference loops, bit for bit.

Floats compare by float.hex, ints by ==.  The alphas reach both of
arith.dyadic's routes: a denominator past 2^62 or a magnitude of 2^62
or more leaves int64 for Python ints, in Euclid and in the Weyl sums.
"""

import numpy as np
import pytest

import arc_reference as ref
from circlekit import circle
from circlekit.arith import dyadic
from circlekit.circle import (
    ArcParameters,
    RationalApproximation,
    classify_arc,
    classify_batch,
    contract_batch,
    dirichlet_approx,
    dirichlet_batch,
    dirichlet_contract_scan,
    minor_arc_bound_profile,
)
from circlekit.errors import DomainError
from circlekit.expsums import weyl_batch, weyl_sum

# a batch step that divides by zero or casts a non-finite value warns in numpy
pytestmark = pytest.mark.filterwarnings("error")


def same(x, y) -> bool:
    """Bitwise equality of two row cells: ints by ==, floats by their hex form."""
    if isinstance(x, float) or isinstance(y, float):
        return type(x) is type(y) and x.hex() == y.hex()
    if isinstance(x, complex) or isinstance(y, complex):
        return same(x.real, y.real) and same(x.imag, y.imag)
    return type(x) is type(y) and x == y


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert row.keys() == expected.keys()
        for key in row:
            assert same(row[key], expected[key]), (key, row, expected)


def denominator_exponents(alphas) -> set[int]:
    return {float(alpha).as_integer_ratio()[1].bit_length() - 1 for alpha in alphas}


MINOR_X = 10**6


@pytest.mark.parametrize("k", [3, 5, 8])
def test_minor_profile_rows_equal_the_reference(k):
    # seed 5 draws one alpha just above 1/tau whose denominator passes 2^62
    # (k = 3: 2^63) or 2^64 (k = 5: 2^67, k = 8: 2^66); it is kept as minor
    got = minor_arc_bound_profile(MINOR_X, k, samples=600, seed=5)
    want = ref.minor_arc_bound_profile(MINOR_X, k, samples=600, seed=5)
    assert got.params == want.params
    assert_same_rows(got.rows, want.rows)
    exponents = denominator_exponents(row["alpha"] for row in got.rows)
    assert max(exponents) > (62 if k == 3 else 64)


@pytest.mark.parametrize("draws_per_sample", [1, 2, 50])
def test_minor_profile_rounds_keep_the_reference_samples(monkeypatch, draws_per_sample):
    # x = 100, k = 3: Q = 6, tau = 16.7, and about 46% of the draws are
    # major, so the profile takes several rounds, and a cap of one or two
    # draws a sample leaves it short
    monkeypatch.setattr(circle, "_DRAWS_PER_SAMPLE", draws_per_sample)
    monkeypatch.setattr(ref, "_DRAWS_PER_SAMPLE", draws_per_sample)
    for samples, seed in [(1, 0), (3, 2), (40, 1), (500, 3)]:
        got = minor_arc_bound_profile(100, 3, samples=samples, seed=seed)
        want = ref.minor_arc_bound_profile(100, 3, samples=samples, seed=seed)
        assert got.params == want.params
        assert_same_rows(got.rows, want.rows)
    if draws_per_sample == 1:
        assert got.params["samples"] < 500


@pytest.mark.parametrize("tau", [100.0, 1000.0, 1e4, ArcParameters.default(MINOR_X, 3).tau])
def test_dirichlet_scan_rows_equal_the_reference(tau):
    got, failures = dirichlet_contract_scan(2000, tau, seed=11)
    want, want_failures = ref.dirichlet_contract_scan(2000, tau, seed=11)
    assert failures == want_failures == 0
    assert_same_rows(got, want)


def odd_over(exponent: int, count: int, rng) -> list[float]:
    """count floats odd / 2^exponent with 53-bit odd numerators, both signs."""
    nums = rng.integers(2**52, 2**53, count) | 1
    return [float(int(n)) / 2.0**exponent * (-1) ** i for i, n in enumerate(nums)]


def route_alphas(rng) -> np.ndarray:
    """Denominators 2^61 ... 2^65 and 2^70, magnitudes about the 2^62 int64
    bound, zeros and the smallest subnormal."""
    alphas = [a for e in (61, 62, 63, 64, 65, 70) for a in odd_over(e, 8, rng)]
    alphas += list(rng.random(40) * 3 - 1)
    alphas += [2.0**62 - 1024, -(2.0**62 - 1024), 2.0**62, -(2.0**62), 2.0**70, 12345.678]
    alphas += [0.0, -0.0, 0.5, 5e-324, -5e-324, 2.0**-1022, 2.0**-64, 2.0**-70]
    return np.array(alphas)


def test_route_alphas_reach_every_route():
    alphas = route_alphas(np.random.default_rng(0))
    (fast, _, fast_den), (wide, _, wide_den) = dyadic(alphas)
    assert fast_den.dtype == np.int64 and wide_den.dtype == object
    assert sorted(fast.tolist() + wide.tolist()) == list(range(alphas.size))
    assert {2**61, 2**62} <= set(fast_den.tolist())
    assert {2**63, 2**64, 2**65, 2**70, 2**1074} <= set(wide_den.tolist())
    assert set(np.flatnonzero(np.abs(alphas) >= 2.0**62).tolist()) <= set(wide.tolist())
    assert np.abs(alphas[fast]).max() < 2.0**62


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_every_arc_and_weyl_form_refuses_a_non_finite_alpha(value):
    params = ArcParameters.default(10**4, 3)
    alphas = np.array([0.5, value])
    calls = [
        lambda: dirichlet_batch(alphas, 100.0),
        lambda: classify_batch(alphas, params),
        lambda: contract_batch(alphas, np.array([1, 1]), np.array([2, 2]), 100.0),
        lambda: weyl_batch(alphas, 1000, 3),
        lambda: dirichlet_approx(value, 100.0),
        lambda: classify_arc(value, params),
        lambda: weyl_sum(value, 1000, 3),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="not a finite number"):
            call()


@pytest.mark.parametrize("tau", [1.0, 100.0, 1000.0, 1e4, 3984.06374501992, 2.0**53, 3e17, 1e20])
def test_dirichlet_batch_equals_the_reference(tau):
    # past tau = 2^53, q and the remainder can pass 2^53 on the int64 route,
    # where lambda is no longer a quotient of exact floats
    alphas = route_alphas(np.random.default_rng(1))
    a, q, lam = dirichlet_batch(alphas, tau)
    for alpha, a_, q_, lam_ in zip(alphas.tolist(), a.tolist(), q.tolist(), lam.tolist()):
        want = ref.dirichlet_approx(alpha, tau)
        assert (a_, q_) == (want.a, want.q), alpha
        assert same(lam_, want.lam), alpha
        got = dirichlet_approx(alpha, tau)
        assert (got.a, got.q) == (want.a, want.q) and same(got.lam, want.lam)


# tau = 256 is dyadic, so alpha can sit exactly on the major-arc boundary
CLASSIFY_PARAMS = [
    ArcParameters.default(10**4, 3),
    ArcParameters.default(10**8, 3),
    ArcParameters(x=10**4, k=3, Q=39, tau=256.0),
]


@pytest.mark.parametrize("params", CLASSIFY_PARAMS, ids=["1e4", "1e8", "tau=256"])
def test_classify_batch_equals_the_reference(params):
    rng = np.random.default_rng(2)
    lo = 1.0 / params.tau
    # just above 1/tau the denominators grow as 1/tau falls: at x = 10^8,
    # 1/tau is near 2^-16 and they pass 2^62 and 2^64
    alphas = np.concatenate([lo + rng.random(300), lo + rng.random(60) * 1e-3,
                             np.nextafter(lo, 2.0) + np.arange(8) * 2.0**-70,
                             [1.0 / 3.0, 38.0 / 39.0, 1.0, 0.25 + 1 / 1024]])
    inside = np.array([ref.classify_arc(alpha, params) is not None for alpha in alphas])
    alphas = alphas[inside]
    major, a, q = classify_batch(alphas, params)
    for alpha, major_, a_, q_ in zip(alphas.tolist(), major.tolist(), a.tolist(), q.tolist()):
        want = ref.classify_arc(alpha, params)
        assert classify_arc(alpha, params) == want
        assert (major_, a_ if major_ else None, q_ if major_ else None) == (
            want.major, want.a, want.q), alpha
    if params.x == 10**8:
        assert max(denominator_exponents(alphas)) > 64
    # the |alpha - 1/4| = 1/(4 tau) boundary of the dyadic tau is major
    if params.tau == 256.0:
        assert classify_arc(0.25 + 1 / 1024, params) == ref.classify_arc(0.25 + 1 / 1024, params)
        assert classify_arc(0.25 + 1 / 1024, params).major


@pytest.mark.parametrize("params", CLASSIFY_PARAMS, ids=["1e4", "1e8", "tau=256"])
def test_classify_batch_refuses_any_alpha_outside_the_window(params):
    lo = 1.0 / params.tau
    for outside in (np.nextafter(lo, 0.0), np.nextafter(1.0 + lo, 2.0), 0.0, -0.5, 2.0**-70):
        assert ref.classify_arc(outside, params) is None
        with pytest.raises(DomainError, match="outside"):
            classify_batch(np.array([0.5, outside, 0.25]), params)
    for edge in (lo, 1.0 + lo):
        want = ref.classify_arc(edge, params)
        if want is None:
            with pytest.raises(DomainError, match="outside"):
                classify_arc(edge, params)
        else:
            assert classify_arc(edge, params) == want


def test_contract_batch_equals_the_reference():
    rng = np.random.default_rng(3)
    alphas = route_alphas(rng)
    uniform = rng.random(30).tolist()
    for tau in (1.0, 256.0, 1000.0, 1e4, 1e20):
        a, q, _ = dirichlet_batch(alphas, tau)
        # each alpha's own approximation, random pairs, pairs at the int64
        # edges, and traps: a moved by 2^11 changes a 2^53 den by 2^64, so
        # wrapped products would find such a pair as close as the true one
        cases = [(x, a_, q_) for x, a_, q_ in zip(alphas.tolist(), a.tolist(), q.tolist())
                 if max(abs(a_), q_) < 2**63]
        cases += [(x, int(rng.integers(-2**40, 2**40)), int(rng.integers(1, 2**40)))
                  for x in alphas.tolist()]
        cases += [(x, a_, q_) for x in alphas.tolist()
                  for a_, q_ in ((-3, 7), (3, 7), (2**62, 1), (1, 2**62), (-(2**62), 3))]
        # opposite signs: num q - a den = -/+2^63, whose int64 abs wraps
        cases += [(-(2.0**-62), 1, 2**62), (2.0**-62, -1, 2**62)]
        cases += [(x, round(x * q_) + shift, q_) for x in uniform
                  for q_ in (1, 7, 1000) for shift in (0, 2**11, -(2**11))]
        for dtype in (np.int64, object):
            got = contract_batch(np.array([c[0] for c in cases]),
                                 np.array([c[1] for c in cases], dtype=dtype),
                                 np.array([c[2] for c in cases], dtype=dtype), tau)
            for (x, a_, q_), holds in zip(cases, got.tolist()):
                want = ref.dirichlet_contract_holds(x, RationalApproximation(a_, q_, 0.0), tau)
                assert holds == want, (x, a_, q_, tau, dtype)


@pytest.mark.parametrize("alpha, tau, a, q", [
    (2.0, 1.0, 1, 1),  # |alpha - a/q| q tau = 1
    (0.25 + 1 / 1024, 256.0, 1, 4),  # = 1 again
])
def test_contract_equality_examples_hold_on_both_routes(alpha, tau, a, q):
    approx = RationalApproximation(a, q, 0.0)
    past = np.nextafter(alpha, 4.0)
    assert ref.dirichlet_contract_holds(alpha, approx, tau)
    assert not ref.dirichlet_contract_holds(past, approx, tau)
    # int64 arrays take the int64 products; object arrays the Python ints;
    # one step past the boundary fails on both
    for dtype in (np.int64, object):
        a_, q_ = np.array([a], dtype=dtype), np.array([q], dtype=dtype)
        assert contract_batch(np.array([alpha]), a_, q_, tau).tolist() == [True]
        assert contract_batch(np.array([past]), a_, q_, tau).tolist() == [False]


@pytest.mark.parametrize("x, ell", [(10**6, 3), (10**6, 5), (10**6, 8), (10**4, 2)])
def test_weyl_batch_equals_the_reference(x, ell):
    alphas = route_alphas(np.random.default_rng(4))
    got = weyl_batch(alphas, x, ell).tolist()
    for alpha, total in zip(alphas.tolist(), got):
        want = ref.weyl_sum(alpha, x, ell)
        assert same(total, want), alpha
        assert same(weyl_sum(alpha, x, ell), want), alpha
