"""Circle-method diagnostics.

Rational approximation by continued-fraction convergents, the
major/minor arc split it induces, residuals of the two major-arc
approximations (the power-sum factor against its Gamma-type model, the
divisor generating function against its main-term expansion), and the
exact moment counts behind the even-moment bounds.  Each scan returns its
parameters and one table, each CSV column an array over the samples;
a residual scan's fitted constant is its largest ratio.

Every rational comparison is exact: a float is the dyadic rational
num/2^e, so convergents and the arc and contract tests run on integers
by cross-multiplication.  Floats only appear in returned remainders and
envelope ratios.

The arc probes work on arrays of samples, on the routes that
arith.dyadic splits them into: int64 arrays while 2^e <= 2^62 and
|num| < 2^62, object arrays of Python ints for the rest.  One Euclid
scan steps every num/2^e of a route in lockstep, dropping a sample once
its remainder is 0 or its denominator passes tau, and gives both the
arc verdict (the first convergent with q <= Q within 1/(q tau)) and the
Dirichlet approximation (the last convergent with q <= tau).  The arc
test compares Euclid's remainder |num q - p 2^e| with floor(2^e/tau),
read exactly from a table over e; the contract check forms
|num q - a 2^e| anew.  classify_arc and dirichlet_approx are
one-sample calls of the batches.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .arith import (
    DYADIC_BITS, INT64_MAX, check_k, divisor_sieve, dyadic, indicator_power, integer_kth_root,
)
from .budget import MAX_SORT, check_budget
from .errors import DomainError, SizeError
from .expsums import divisor_exp_sum, power_sum_spectrum, weyl_batch
from .integrals import UNIT_RULE_NODES, linear_phase_batch, log_phase_batch, unit_phase_batch
from .series import log_weight
from .threads import ordered_map

# The generating function over divisors runs to 4x, so the expansion
# residual weights integrate the scaled variable over [0, 4].
_EXPANSION_RANGE = 4.0

# Denominators the expansion probe samples below Q, besides Q itself.
_EXPANSION_QS = (1, 2, 3, 5, 7, 11)

# The epsilon of the x^epsilon and q^epsilon losses in the residual envelopes.
_SLACK = 0.05

# The minor-arc profile gives up after this many draws per sample.
_DRAWS_PER_SAMPLE = 50

# hua_count's j = 2 value buckets hold _BUCKET pair sums, 1 MiB of int64, per
# _BUCKET_ROWS rows or part of them: a bucket searches each row it reaches.
_BUCKET = 1 << 17
_BUCKET_ROWS = 1 << 13

# Powers a side of the strided grid whose pair sums, about 10^5 of them,
# place hua_count's bucket edges.
_EDGE_GRID = 300


@dataclass(frozen=True)
class RationalApproximation:
    """a/q with remainder lam = alpha - a/q, q <= tau, |lam| <= 1/(q tau)."""

    a: int
    q: int
    lam: float


def _check_tau(tau: float) -> None:
    if not (math.isfinite(tau) and tau >= 1.0):
        raise DomainError(f"tau must be a finite number >= 1, got {tau}")


def _check_draws(samples: int, seed: int) -> None:
    if samples < 0:
        raise DomainError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def _float_x(x: int) -> float:
    """float(x), or DomainError when x is past the largest float."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"x has {x.bit_length()} bits, past the largest float") from None


def _euclid_steps(bound: float) -> int:
    """At most the convergents computed until a denominator passes bound.

    Denominators grow at least like Fibonacci numbers, q_n >= phi^(n-1),
    and log_phi 2 < 2.
    """
    return 2 * int(bound).bit_length() + 3


def _floor_scaled(den: np.ndarray, numer: int, denom: int) -> np.ndarray:
    """floor(den * numer / denom) for every den = 2^e, exactly: on the int64
    route read from a table over e computed in Python ints, on the
    Python-int route computed per sample."""
    if den.dtype == object:
        return den * numer // denom
    table = np.array([(1 << e) * numer // denom for e in range(DYADIC_BITS + 1)])
    return table[np.frexp(den)[1] - 1]


def _convergent_scan(num, den, tau_floor: int, q_cap: int, within):
    """Euclid on every num/den in lockstep (int64 or object arrays, den > 0).

    Returns arc_a, arc_q of each sample's first convergent p/q with
    q <= q_cap, 1 <= p <= q and |num q - p den| <= within (the arc
    test), and arc_q = 0 where none passes it.  A sample leaves the scan
    when it passes the arc test, when its remainder is 0, or when its
    denominator passes tau_floor; a, q and r = num q - a den belong to
    the last convergent a/q it reached with q <= tau_floor.  So they are
    the Dirichlet approximation wherever arc_q = 0.  |num q_n - p_n den|
    is the remainder of Euclid's step n, with sign (-1)^n.
    """
    digit = num // den
    rest = num - digit * den
    p, q = digit, np.ones_like(den)
    hit = (q <= q_cap) & (1 <= p) & (p <= q) & (rest <= within)
    arc_a, arc_q = np.where(hit, p, 0), np.where(hit, q, 0)
    a, aq, r = p.copy(), q.copy(), rest.copy()
    live = np.flatnonzero((rest != 0) & ~hit)
    top, low, p, q = den[live], rest[live], p[live], q[live]
    p_prev, q_prev = np.ones_like(p), np.zeros_like(q)
    sign = 1
    while live.size:
        sign = -sign
        digit = top // low
        top, low = low, top - digit * low
        p, p_prev = digit * p + p_prev, p
        q, q_prev = digit * q + q_prev, q
        inside = q <= tau_floor
        at = live[inside]
        a[at], aq[at], r[at] = p[inside], q[inside], sign * low[inside]
        hit = (q <= q_cap) & (1 <= p) & (p <= q) & (low <= within[live])
        arc_a[live[hit]], arc_q[live[hit]] = p[hit], q[hit]
        keep = inside & (low != 0) & ~hit
        live, top, low, p, p_prev, q, q_prev = (
            v[keep] for v in (live, top, low, p, p_prev, q, q_prev)
        )
    return a, aq, r, arc_a, arc_q


def _lambdas(r, den, q) -> np.ndarray:
    """r / (den q) correctly rounded, as Python's int division gives it.

    Where |r| and q are below 2^53 and den = 2^e <= 2^62 they are exact
    floats: r / q is correctly rounded, and dividing by den is exact.
    """
    lam = np.empty(len(r))
    narrow = (np.abs(r) < 2**53) & (q < 2**53) & (den <= 2**62)
    lam[narrow] = (
        r[narrow].astype(np.float64) / q[narrow].astype(np.float64) / den[narrow].astype(np.float64)
    )
    wide = ~narrow
    lam[wide] = [
        r / (d * q) for r, d, q in zip(r[wide].tolist(), den[wide].tolist(), q[wide].tolist())
    ]
    return lam


def _arc_scan(alphas: np.ndarray, tau: float, q_cap: int) -> list[np.ndarray]:
    """_convergent_scan at every alpha: a, q, lambda = alpha - a/q, arc_a, arc_q,
    with the arc test |alpha - p/q| <= 1/(q tau) on Euclid's remainder.
    A scan with q_cap = 0 passes no arc test."""
    tn, td = tau.as_integer_ratio()
    parts = []
    for index, num, den in dyadic(alphas):
        # rest tn <= den td, with tn > 0, is rest <= floor(den td / tn)
        a, q, r, arc_a, arc_q = _convergent_scan(
            num, den, math.floor(tau), q_cap, _floor_scaled(den, td, tn)
        )
        parts.append((index, (a, q, _lambdas(r, den, q), arc_a, arc_q)))
    if len(parts) == 1:
        return list(parts[0][1])
    # in sample order, the integers in object arrays
    fields = zip(*(values for _, values in parts))
    merged = [np.empty(alphas.size, np.result_type(*field)) for field in fields]
    for index, values in parts:
        for target, value in zip(merged, values):
            target[index] = value
    return merged


def dirichlet_batch(alphas: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dirichlet_approx at every alpha: the arrays a, q and lambda."""
    _check_tau(tau)
    a, q, lam, _, _ = _arc_scan(np.asarray(alphas, dtype=np.float64), float(tau), 0)
    return a, q, lam


def dirichlet_approx(alpha: float, tau: float) -> RationalApproximation:
    """Best rational a/q with q <= tau and |alpha - a/q| <= 1/(q tau).

    The last convergent of alpha with denominator <= tau qualifies: if
    the next convergent's denominator exceeds tau, the classical
    two-denominator bound gives |alpha - a/q| <= 1/(q q') < 1/(q tau).
    """
    a, q, lam = dirichlet_batch(np.array([float(alpha)]), tau)
    return RationalApproximation(a=int(a[0]), q=int(q[0]), lam=float(lam[0]))


def _close(num, den, a, q, within) -> np.ndarray:
    return np.abs(num * q - a * den) <= within


def contract_batch(alphas: np.ndarray, a: np.ndarray, q: np.ndarray, tau: float) -> np.ndarray:
    """q <= tau, |alpha - a/q| q tau <= 1 and gcd(a, q) = 1 at every
    (alpha, a, q) with q >= 1, exactly, from those values alone.

    |alpha - a/q| q tau <= 1 is |num q - a den| <= floor(den/tau).  It is
    formed in int64 on the int64 route where neither product passes
    INT64_MAX and their signs agree, so that the difference and its abs
    cannot wrap; every other sample takes Python ints.  Euclid's
    remainders are not read: this checks dirichlet_batch's results.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    tn, td = float(tau).as_integer_ratio()
    holds = (q <= math.floor(tau)) & (np.gcd(a, q) == 1)
    close = np.empty(alphas.size, dtype=bool)
    for index, num, den in dyadic(alphas):
        a_i, q_i = a[index], q[index]
        within = _floor_scaled(den, td, tn)
        safe = np.zeros(index.size, dtype=bool)
        if num.dtype != object:
            safe = (
                (np.abs(num) <= INT64_MAX // q_i)
                & (np.abs(a_i) <= INT64_MAX // den)
                & (np.sign(num) * np.sign(a_i) >= 0)
            )
            close[index[safe]] = _close(num[safe], den[safe], a_i[safe], q_i[safe], within[safe])
        wide = ~safe
        close[index[wide]] = _close(
            *(v[wide].astype(object) for v in (num, den, a_i, q_i, within))
        )
    return holds & close


def dirichlet_contract_scan(samples: int, tau: float, seed: int) -> DiagnosticBound:
    """dirichlet_approx's contract checked exactly at seeded uniform alpha in [0, 1).

    The columns are alpha, a, q, lambda, observed = |lambda|,
    bound = 1/(q tau) and ratio = 1 if the contract holds, else 0; the
    params count the failures.  One rng.random(samples) draw gives the
    doubles of samples scalar draws; the approximations come from one
    dirichlet_batch and the contract from one contract_batch.
    """
    _check_draws(samples, seed)
    _check_tau(tau)
    # each alpha is a multiple of 2^-53, so Euclid also ends by that denominator
    check_budget(samples * _euclid_steps(min(tau, 2.0**53)), "dirichlet scan")
    alphas = np.random.default_rng(seed).random(samples)
    a, q, lam = dirichlet_batch(alphas, tau)
    holds = contract_batch(alphas, a, q, tau)
    # q tau past the largest float is inf, and its bound 0.0, as in Python floats
    with np.errstate(over="ignore"):
        bound = 1.0 / (q * tau)
    return DiagnosticBound(
        params={"samples": samples, "tau": tau,
                "failures": samples - int(np.count_nonzero(holds))},
        columns={"alpha": alphas, "a": a, "q": q, "lambda": lam, "observed": np.abs(lam),
                 "bound": bound, "ratio": holds.astype(int)},
    )


@dataclass(frozen=True)
class ArcParameters:
    """Arc-partition parameters: log x < 2Q < tau < x, Q*tau near x."""

    x: int
    k: int
    Q: int
    tau: float

    def __post_init__(self):
        check_k(self.k, 3)
        if not math.log(self.x) < 2 * self.Q:
            raise DomainError(f"need log x < 2Q: log({self.x}) vs 2*{self.Q}")
        if not 2 * self.Q < self.tau < self.x:
            raise DomainError(f"need 2Q < tau < x: {2*self.Q}, {self.tau}, {self.x}")
        product = self.Q * self.tau
        if not self.x / 4 <= product <= 4 * self.x:
            raise DomainError(f"need Q*tau within [x/4, 4x], got {product}")
        if self.Q ** (self.k + 2) > self.x**2:
            raise DomainError(
                f"need Q <= x^(2/(k+2)): Q={self.Q}, x={self.x}, k={self.k}"
            )

    @classmethod
    def default(cls, x: int, k: int) -> "ArcParameters":
        """Q = floor(x^(2/(k+2))), tau = x/Q."""
        if x < 1:
            raise DomainError(f"x must be >= 1, got {x}")
        _float_x(x)
        q_bound = integer_kth_root(x * x, k + 2)
        return cls(x=x, k=k, Q=q_bound, tau=x / q_bound)


@dataclass(frozen=True)
class ArcVerdict:
    """Major(a, q) or Minor classification of one frequency."""

    major: bool
    a: int | None = None
    q: int | None = None


def _arc_window(alphas: np.ndarray, tau: float) -> None:
    """DomainError unless 1/tau <= alpha <= 1 + 1/tau for every alpha, exactly (tau > 1)."""
    tn, td = tau.as_integer_ratio()
    for index, num, den in dyadic(alphas):
        # den td <= num tn <= den (tn + td), with tn > 0, against floor and ceiling
        outside = (num < -_floor_scaled(den, -td, tn)) | (num > _floor_scaled(den, tn + td, tn))
        if outside.any():
            alpha = float(alphas[index[np.argmax(outside)]])
            raise DomainError(f"alpha={alpha} outside [1/tau, 1 + 1/tau]")


def classify_batch(
    alphas: np.ndarray, params: ArcParameters
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """classify_arc at every alpha: the arrays major, a and q (a = q = 0 on the minor arcs)."""
    alphas = np.asarray(alphas, dtype=np.float64)
    tau = float(params.tau)
    _arc_window(alphas, tau)
    _, _, _, arc_a, arc_q = _arc_scan(alphas, tau, params.Q)
    return arc_q != 0, arc_a, arc_q


def classify_arc(alpha: float, params: ArcParameters) -> ArcVerdict:
    """Major iff some q <= Q, 1 <= a <= q, gcd(a,q)=1 has |alpha - a/q| <= 1/(q tau).

    Any such witness satisfies |alpha - a/q| < 1/(2 q^2) because
    tau > 2Q >= 2q, so it must be a continued-fraction convergent;
    scanning convergents with q <= Q is therefore exhaustive.
    """
    major, a, q = classify_batch(np.array([float(alpha)]), params)
    if major[0]:
        return ArcVerdict(major=True, a=int(a[0]), q=int(q[0]))
    return ArcVerdict(major=False)


@dataclass(frozen=True)
class DiagnosticBound:
    """A probe's parameters and its table: columns maps each CSV column
    name, in CSV order, to one array of per-sample values."""

    params: dict
    columns: dict

    @property
    def constant(self) -> float:
        """The largest ratio, or 0.0 without samples."""
        ratio = self.columns["ratio"]
        return float(ratio.max()) if ratio.size else 0.0


def _residual_table(params: dict, columns: dict) -> DiagnosticBound:
    """The columns as arrays, with ratio = observed / bound appended: a real
    quotient, whose bits numpy and Python share."""
    table = {name: np.asarray(values) for name, values in columns.items()}
    table["ratio"] = table["observed"] / table["bound"]
    return DiagnosticBound(params=params, columns=table)


def vk_envelope_scan(x: int, k: int, q_max: int) -> DiagnosticBound:
    """Fitted constant of the V_k residual envelope q^(1/2+_SLACK) (1+x|beta|)^(1/2).

    Scans every reduced a/q with q <= q_max at the offsets beta = 0, w/2,
    w and -w, w = x^(1/k-1)/(2kq), the edge of the window where the
    sharper remainder form applies.  A sample's residual is
    |f_k(a/q + beta) - V_k| for the model
    V_k = x^(1/k) S_k(q, a)/q int_0^1 e(x beta u^k) du.  Each q takes
    its phases from one unit_phase_batch at x * (0, w/2, w), the one at
    -w being the conjugate of the one at w, every S_k(q, a) from one
    power_sum_spectrum, and its Weyl sums from one weyl_batch.
    """
    check_k(k)
    if x < 1 or q_max < 1:
        raise DomainError(f"need x, q_max >= 1, got x={x}, q_max={q_max}")
    # at most 4 offsets for each of the q_max (q_max + 1) / 2 pairs (a, q),
    # each a Weyl sum of m terms and a complete sum of q terms, and each q's
    # 3 phases the unit small-beta rule: all charged before any offset is formed
    m = integer_kth_root(x, k)
    check_budget(2 * q_max * (q_max + 1) * (m + q_max) + 3 * q_max * UNIT_RULE_NODES, "vk scan")
    x_float = _float_x(x)
    scale = x_float ** (1.0 / k)
    columns = {"a": [], "q": [], "beta": [], "observed": [], "bound": []}
    for q in range(1, q_max + 1):
        width = x_float ** (1.0 / k - 1.0) / (2.0 * k * q)
        betas = (0.0, 0.5 * width, width, -width)
        zero, half, full = unit_phase_batch(x_float * np.array(betas[:3]), k).tolist()
        phases = (zero, half, full, full.conjugate())
        envelopes = [q ** (0.5 + _SLACK) * (1.0 + x * abs(beta)) ** 0.5 for beta in betas]
        spectrum = power_sum_spectrum(q, k).tolist()
        reduced = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        sums = iter(weyl_batch(np.array([a / q + beta for a in reduced for beta in betas]), x, k)
                    .tolist())
        for a in reduced:
            weight = scale * spectrum[a % q] / q
            for beta, phase, envelope in zip(betas, phases, envelopes):
                # a complex product and abs in Python scalars: numpy's can differ in the last bit
                residual = abs(next(sums) - weight * phase)
                for column, value in zip(columns.values(), (a, q, beta, residual, envelope)):
                    column.append(value)
    return _residual_table({"x": x, "k": k, "q_max": q_max, "slack": _SLACK}, columns)


def expansion_envelope_scan(x: int, k: int) -> DiagnosticBound:
    """Error of the three-term main model of f(-1/q - beta), for q in
    _EXPANSION_QS up to Q and q = Q, each at beta = 0, 1/(2 q tau) and 1/(q tau).

    The model is (x log x / q) L(x beta) + (x/q) L_log(x beta)
    + ((-2 log q + 2 gamma)/q) x L(x beta), with L and L_log the linear
    and log-weighted phase integrals taken over the scaled range [0, 4]
    actually spanned by the 4x summation limit of f.  A sample's bound is
    x^_SLACK (q^(1/2) x/tau + q^(2/3) x^(1/3)).  Each q takes its three
    linear and its three log phases from one batch call each.

    ArcParameters.default gives Q tau = x (to rounding) and tau >= x^(3/5), so every
    sample meets the expansion's hypotheses.  Each sample sums 4x divisor
    terms, charged before the scan sieves its divisor table to 4x.
    """
    params = ArcParameters.default(x, k)
    qs = sorted({q for q in _EXPANSION_QS if q <= params.Q} | {params.Q})
    check_budget(3 * len(qs) * 4 * x, "expansion scan")
    table = divisor_sieve(4 * x)
    columns = {"a": [], "q": [], "beta": [], "observed": [], "bound": []}
    for q in qs:
        bound = x**_SLACK * (math.sqrt(q) * x / params.tau + q ** (2.0 / 3.0) * x ** (1.0 / 3.0))
        betas = (0.0, 0.5 / (q * params.tau), 1.0 / (q * params.tau))
        args = np.array([x * beta for beta in betas])
        lins = linear_phase_batch(args, upper=_EXPANSION_RANGE).tolist()
        logs = log_phase_batch(args, upper=_EXPANSION_RANGE).tolist()
        for beta, lin, lg in zip(betas, lins, logs):
            # d is real, so f(-alpha) is the conjugate of f(alpha)
            observed = divisor_exp_sum(1, q, beta, x, table).conjugate()
            model = (x * math.log(x) / q) * lin + (x / q) * lg + (log_weight(q) / q) * x * lin
            residual = abs(observed - model)
            for column, value in zip(columns.values(), (1, q, beta, residual, bound)):
                column.append(value)
    return _residual_table(
        {"x": x, "k": k, "slack": _SLACK, "Q": params.Q, "tau": params.tau}, columns
    )


def _bucket_edges(powers: np.ndarray, pairs: int, size: int, top: int) -> np.ndarray:
    """Increasing edges from 0 to top that split the pairs' sums into value
    buckets of about size sums, at the quantiles of a sorted sample: the
    sums of a strided grid of about _EDGE_GRID powers a side.  They only
    balance the work; any increasing edges from 0 to top give one count."""
    n = -(-pairs // size)
    if n <= 1:
        return np.array([0, top], dtype=np.int64)
    grid = powers[:: -(-powers.size // _EDGE_GRID)]
    sample = np.sort((grid[:, None] + grid).ravel())
    cuts = sample[np.arange(1, n) * sample.size // n]
    return np.unique(np.concatenate(([0], cuts, [top])))


def hua_count(Y: int, k: int, j: int) -> int:
    """Exact count of m_1^k+...+m_t^k = n_1^k+...+n_t^k, t = 2^(j-1), all in [1, Y].

    By orthogonality this equals the 2^j-th moment of the power
    generating sum.  j=1 counts the diagonal.  j=2 counts the Y(Y-1)/2
    pair sums m^k + n^k with m < n: if r_s such pairs sum to s and d_s = 1
    when s = 2m^k, the ordered count is c_s = 2 r_s + d_s, so
    sum c_s^2 = 4 sum r_s^2 + 4 sum_m r(2m^k) + Y.  The sums are counted in
    value buckets [lo, hi) of about size = _BUCKET ceil(Y / _BUCKET_ROWS)
    sums, handed out through threads.ordered_map: each bucket gathers its
    slice of each row m whose sums, least[m] to most[m], can reach it,
    sorts them, and returns its sum of r_s^2 and its hits on 2m^k.
    Equal sums share a bucket, so the edges only balance the work.  About
    WORKERS x (size + the longest run of one value, at most Y/2) sums
    and as many indices are held at once, besides one shared ramp of
    2 size indices, not one array of all Y(Y-1)/2 sums: Y = 5000, k = 3
    peaks at about 7.5 MiB of numpy memory on two workers.  Higher j
    sums r^2 over r = arith.indicator_power(power histogram, t), charged
    one unit per element add, in int64 while its bound Y^(2t-1) < 2^62.
    Every j >= 2 refuses 2*Y^k beyond int64, and j >= 3 a t >= 2^1024,
    whose units pass any budget a float can set, both before Y^k or t is
    formed, then a count whose bound passes Python's int-to-str limit.
    """
    if Y < 1 or k < 1:
        raise DomainError(f"need Y >= 1 and k >= 1, got Y={Y}, k={k}")
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j}")
    if j == 1:
        check_budget(Y, "hua_count")
        return Y
    # pair sums m^k + n^k are formed in int64 and must not wrap;
    # Y^k >= 2^((bits - 1) k): the first test refuses before Y^k is formed
    if (Y.bit_length() - 1) * k >= 63 or 2 * Y**k > INT64_MAX:
        raise SizeError(f"power sums reach 2*{Y}^{k}, beyond int64 {INT64_MAX}")
    if j == 2:
        check_budget(Y * Y, "hua_count")
        pairs = Y * (Y - 1) // 2
        if pairs > MAX_SORT:
            raise SizeError(f"pair-sum sort needs {pairs} entries, cap is {MAX_SORT}")
        powers = np.arange(1, Y + 1, dtype=np.int64) ** k
        # row m holds powers[n] + powers[m] for n from m + 1 up, increasing,
        # from least[m] to most[m]; both bounds increase with m
        head, after = powers[:-1], np.arange(1, Y, dtype=np.int64)
        least, most = head + powers[1:], head + powers[-1]
        doubles = 2 * powers
        # 2 Y^k <= INT64_MAX, which is odd, so the top edge fits int64
        size = _BUCKET * -(-Y // _BUCKET_ROWS)
        edges = _bucket_edges(powers, pairs, size, 2 * Y**k + 1)
        # one shared 0, 1, 2, ...: a fresh arange per bucket took about ten
        # times the page faults of the whole count
        ramp = np.arange(min(pairs, 2 * size))

        def bucket(b: int) -> tuple[int, int]:
            lo, hi = edges[b], edges[b + 1]
            # rows m with most[m] >= lo and least[m] < hi reach [lo, hi) at
            # powers[first:end] + powers[m], where least[m] < hi puts end past m
            rows = slice(np.searchsorted(most, lo), np.searchsorted(least, hi))
            first = np.maximum(np.searchsorted(powers, lo - head[rows]), after[rows])
            counts = np.searchsorted(powers, hi - head[rows]) - first
            index = np.repeat(first - (np.cumsum(counts) - counts), counts)
            index += ramp[: index.size] if index.size <= ramp.size else np.arange(index.size)
            sums = powers.take(index)
            del index
            sums += np.repeat(head[rows], counts)
            sums.sort()
            # A run of r equal sums gives a streak of s = r - 1 consecutive
            # hits, and r^2 = r + s(s + 1).  A bucket holds at most pairs <=
            # MAX_SORT sums, so its sum of r^2 is below MAX_SORT^2 < 2^63: no
            # int64 total wraps.
            hits = np.flatnonzero(sums[1:] == sums[:-1])
            squares = sums.size
            if hits.size:
                ends = np.flatnonzero(np.diff(hits) != 1) + 1
                streaks = np.diff(np.concatenate(([0], ends, [hits.size])))
                squares += int((streaks * (streaks + 1)).sum())
            ours = doubles[np.searchsorted(doubles, lo) : np.searchsorted(doubles, hi)]
            on_diagonal = np.searchsorted(sums, ours, "right") - np.searchsorted(sums, ours)
            return squares, int(on_diagonal.sum())

        counted = ordered_map(bucket, range(edges.size - 1))
        squares = sum(s for s, _ in counted)
        on_diagonal = sum(d for _, d in counted)
        return 4 * squares + 4 * on_diagonal + Y
    if j > 1024:
        raise SizeError(f"j = {j} takes 2^{j - 1} powers a side, past any work budget")
    t = 2 ** (j - 1)
    # round i = 1..t-1 adds i*Y^k + 1 coefficients once per power
    check_budget(Y * (Y**k * t * (t - 1) // 2 + t - 1), "hua_count")
    # the count is at most Y^(2t-1); a limit of 0, or a Python without one, admits any
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and (2 * t - 1) * math.log10(Y) >= limit:
        raise SizeError(f"the count may pass {limit} digits, Python's int-to-str limit")
    r = indicator_power(np.bincount(np.arange(1, Y + 1, dtype=np.int64) ** k), t)
    if (2 * t - 1) * math.log2(Y) >= 62:
        return sum(v * v for v in r.tolist())
    return int(np.dot(r, r))


def minor_arc_bound_profile(
    x: int, k: int, samples: int = 1000, seed: int = 0
) -> DiagnosticBound:
    """Fitted constant of the minor-arc power-sum bound over random frequencies.

    Each minor-arc sample alpha gets its convergent (a, q); the observed
    |f_k(alpha)| is divided by the k <= 7 Weyl-differencing bound
    M (1/q + 1/M + q/M^k)^(1/2^(k-1)) with M = floor(x^(1/k)), or for
    k >= 8 the smooth-number bound
    x^(1/k) (1/q + x^(-1/k) + q/x)^(1/(2k(k-1))).

    The draws come in rounds, each no larger than the samples still
    missing or the draws left, so they keep exactly the samples that
    drawing one at a time would.  One Euclid scan per round classifies
    each draw and approximates it, and one weyl_batch sums every sample.
    """
    _check_draws(samples, seed)
    params = ArcParameters.default(x, k)
    rng = np.random.default_rng(seed)
    m = integer_kth_root(x, k)
    # a major-arc draw's Euclid scan stops by Q; a kept sample's runs on
    # past tau, and the sample adds m Weyl terms
    steps = _DRAWS_PER_SAMPLE * _euclid_steps(params.Q) + _euclid_steps(params.tau)
    check_budget(samples * (steps + m), "minor-arc profile")
    tau = float(params.tau)
    cap = _DRAWS_PER_SAMPLE * samples
    kept = []
    count = draws = 0
    while count < samples and draws < cap:
        size = min(samples - count, cap - draws)
        draws += size
        alphas = 1.0 / params.tau + rng.random(size)
        _arc_window(alphas, tau)
        a, q, lam, _, arc_q = _arc_scan(alphas, tau, params.Q)
        minor = arc_q == 0
        kept.append((alphas[minor], a[minor], q[minor], lam[minor]))
        count += int(np.count_nonzero(minor))
    alphas, a, q, lam = (
        [np.concatenate(parts) for parts in zip(*kept)] if kept else [np.empty(0)] * 4
    )
    # bound = scale (1/q + fixed + q/top)^power; abs, ** and the int quotient
    # q/top run on Python scalars, since numpy's can differ in the last bit
    if k <= 7:
        scale, fixed, top, power = m, 1.0 / m, m**k, 1.0 / 2 ** (k - 1)
    else:
        scale, fixed, top, power = x ** (1.0 / k), x ** (-1.0 / k), x, 1.0 / (2 * k * (k - 1))
    columns = {
        "alpha": alphas, "a": a, "q": q, "lambda": lam,
        "observed": [abs(total) for total in weyl_batch(alphas, x, k).tolist()],
        "bound": [scale * (1.0 / q_ + fixed + q_ / top) ** power for q_ in q.tolist()],
    }
    return _residual_table(
        {"x": x, "k": k, "Q": params.Q, "tau": params.tau, "samples": len(alphas), "seed": seed},
        columns,
    )
