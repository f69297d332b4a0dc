"""Reference arc probes, one sample at a time on Python integers.

These are the per-sample loops the library's batches replaced: Euclid
as a generator of convergents, the arc and contract tests by
cross-multiplication, each Weyl sum as its own 1-D numpy sum, and the
minor-arc profile and Dirichlet scan drawing one alpha per call, each
building one dict row per sample.  Tests require circle's and expsums'
batches to give every row field the same bits; table_rows reads a
library probe's column table as such rows.
"""

import math

import numpy as np

from circlekit.arith import integer_kth_root
from circlekit.circle import (
    _DRAWS_PER_SAMPLE,
    ArcParameters,
    ArcVerdict,
    RationalApproximation,
)

_WORD = 2**64


def table_rows(scan) -> list[dict]:
    """A library probe's columns as one dict row per sample, in Python scalars."""
    names = list(scan.columns)
    return [dict(zip(names, values))
            for values in zip(*(column.tolist() for column in scan.columns.values()))]


def convergents(value):
    """Continued-fraction convergents (p, q) of an exact rational, in order.

    value is anything with as_integer_ratio(): a float (exactly num/2^e),
    an int or a Fraction.  Euclid runs on its integer numerator and
    denominator.
    """
    num, den = value.as_integer_ratio()
    p_prev, q_prev = 1, 0
    digit, rest = divmod(num, den)
    p, q = digit, 1
    yield p, q
    while rest:
        num, den = den, rest
        digit, rest = divmod(num, den)
        p, p_prev = digit * p + p_prev, p
        q, q_prev = digit * q + q_prev, q
        yield p, q


def within(num: int, den: int, p: int, q: int, tn: int, td: int) -> bool:
    """|num/den - p/q| <= 1/(q tau) for tau = tn/td, all denominators > 0."""
    return abs(num * q - p * den) * tn <= den * td


def dirichlet_approx(alpha: float, tau: float) -> RationalApproximation:
    alpha = float(alpha)
    tau = float(tau)
    num, den = alpha.as_integer_ratio()
    for p, d in convergents(alpha):
        # int against float compares exactly
        if d > tau:
            break
        a, q = p, d
    # int / int true division is correctly rounded
    lam = (num * q - a * den) / (den * q)
    return RationalApproximation(a=a, q=q, lam=lam)


def dirichlet_contract_holds(alpha: float, approx: RationalApproximation, tau: float) -> bool:
    num, den = float(alpha).as_integer_ratio()
    tn, td = float(tau).as_integer_ratio()
    return (
        approx.q <= tau
        and within(num, den, approx.a, approx.q, tn, td)
        and math.gcd(approx.a, approx.q) == 1
    )


def dirichlet_contract_scan(samples: int, tau: float, seed: int) -> tuple[list[dict], int]:
    rng = np.random.default_rng(seed)
    rows = []
    failures = 0
    for _ in range(samples):
        alpha = float(rng.random())
        approx = dirichlet_approx(alpha, tau)
        holds = dirichlet_contract_holds(alpha, approx, tau)
        failures += not holds
        rows.append(
            {"alpha": alpha, "a": approx.a, "q": approx.q, "lambda": approx.lam,
             "observed": abs(approx.lam), "bound": 1.0 / (approx.q * tau),
             "ratio": int(holds)}
        )
    return rows, failures


def classify_arc(alpha: float, params: ArcParameters) -> ArcVerdict | None:
    """The verdict, or None where alpha lies outside [1/tau, 1 + 1/tau]."""
    exact = float(alpha)
    num, den = exact.as_integer_ratio()
    tn, td = float(params.tau).as_integer_ratio()
    if not den * td <= num * tn <= den * (tn + td):
        return None
    for p, q in convergents(exact):
        if q > params.Q:
            break
        if 1 <= p <= q and within(num, den, p, q, tn, td):
            return ArcVerdict(major=True, a=p, q=q)
    return ArcVerdict(major=False)


def weyl_sum(alpha: float, x: int, ell: int, terms: int = 1 << 20) -> complex:
    """The Weyl sum in blocks of `terms`, each its own 1-D numpy sum."""
    m = integer_kth_root(x, ell)
    num, den = float(alpha).as_integer_ratio()
    sums = []
    for lo in range(1, m + 1, terms):
        hi = min(lo + terms, m + 1)
        if den > _WORD:
            phases = np.fromiter(
                (((num * pow(n, ell, den)) % den) / den for n in range(lo, hi)),
                dtype=np.float64,
                count=hi - lo,
            )
        else:
            n = np.arange(lo, hi, dtype=np.uint64)
            residues = n ** np.uint64(ell) * np.uint64(num % _WORD) & np.uint64(den - 1)
            phases = residues.astype(np.float64) / float(den)
        sums.append(complex(np.exp(2j * np.pi * phases).sum()))
    return sum(sums[1:], sums[0])


def minor_arc_bound_profile(x: int, k: int, samples: int, seed: int) -> tuple[dict, list[dict]]:
    params = ArcParameters.default(x, k)
    rng = np.random.default_rng(seed)
    m = integer_kth_root(x, k)
    rows = []
    draws = 0
    while len(rows) < samples and draws < _DRAWS_PER_SAMPLE * samples:
        draws += 1
        alpha = float(1.0 / params.tau + rng.random())
        verdict = classify_arc(alpha, params)
        if verdict.major:
            continue
        approx = dirichlet_approx(alpha, params.tau)
        observed = abs(weyl_sum(alpha, x, k))
        if k <= 7:
            base = 1.0 / approx.q + 1.0 / m + approx.q / m**k
            bound = m * base ** (1.0 / 2 ** (k - 1))
        else:
            base = 1.0 / approx.q + x ** (-1.0 / k) + approx.q / x
            bound = x ** (1.0 / k) * base ** (1.0 / (2 * k * (k - 1)))
        rows.append(
            {"alpha": alpha, "a": approx.a, "q": approx.q, "lambda": approx.lam,
             "observed": observed, "bound": bound, "ratio": observed / bound}
        )
    return {"x": x, "k": k, "Q": params.Q, "tau": params.tau,
            "samples": len(rows), "seed": seed}, rows
