"""Circle-method diagnostics.

Rational approximation by continued-fraction convergents, the
major/minor arc split it induces, residuals of the two major-arc
approximations (the power-sum factor against its Gamma-type model, the
divisor generating function against its main-term expansion), and the
exact moment counts behind the even-moment bounds.  A residual scan
returns its parameters and one row per sample (observed, bound, ratio);
its fitted constant is the largest row ratio.

Every rational comparison is exact: a float is the dyadic rational
num/2^e that float.as_integer_ratio() returns, so convergents and the
arc and contract tests run on Python integers by cross-multiplication.
Floats only appear in returned remainders and envelope ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import integer_kth_root, require_table
from .budget import MAX_SORT, check_budget
from .errors import DomainError, SizeError
from .expsums import divisor_exp_sum, power_sum_spectrum, weyl_sum
from .integrals import linear_phase_batch, log_phase_batch, unit_phase_batch
from .series import log_weight

# The generating function over divisors runs to 4x, so the expansion
# residual weights integrate the scaled variable over [0, 4].
_EXPANSION_RANGE = 4.0

# Denominators the expansion probe samples below Q, besides Q itself.
_EXPANSION_QS = (1, 2, 3, 5, 7, 11)

# The epsilon of the x^epsilon and q^epsilon losses in the residual envelopes.
_SLACK = 0.05

# Pair sums m^k + n^k are formed in int64 and must not wrap.
INT64_MAX = 2**63 - 1

# The minor-arc profile gives up after this many draws per sample.
_DRAWS_PER_SAMPLE = 50


@dataclass(frozen=True)
class RationalApproximation:
    """a/q with remainder lam = alpha - a/q, q <= tau, |lam| <= 1/(q tau)."""

    a: int
    q: int
    lam: float


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


def _within(num: int, den: int, p: int, q: int, tn: int, td: int) -> bool:
    """|num/den - p/q| <= 1/(q tau) for tau = tn/td, all denominators > 0."""
    return abs(num * q - p * den) * tn <= den * td


def dirichlet_approx(alpha: float, tau: float) -> RationalApproximation:
    """Best rational a/q with q <= tau and |alpha - a/q| <= 1/(q tau).

    The last convergent of alpha with denominator <= tau qualifies: if
    the next convergent's denominator exceeds tau, the classical
    two-denominator bound gives |alpha - a/q| <= 1/(q q') < 1/(q tau).
    """
    _check_tau(tau)
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
    """q <= tau, |alpha - a/q| q tau <= 1 and gcd(a, q) = 1, in exact integers (q >= 1)."""
    num, den = float(alpha).as_integer_ratio()
    tn, td = float(tau).as_integer_ratio()
    return (
        approx.q <= tau
        and _within(num, den, approx.a, approx.q, tn, td)
        and math.gcd(approx.a, approx.q) == 1
    )


def dirichlet_contract_scan(samples: int, tau: float, seed: int) -> tuple[list[dict], int]:
    """dirichlet_approx's contract checked exactly at seeded uniform alpha in [0, 1).

    Rows hold alpha, a, q, lambda, observed = |lambda|, bound = 1/(q tau)
    and ratio = 1 if dirichlet_contract_holds, else 0; returned with the
    failure count.
    """
    _check_draws(samples, seed)
    _check_tau(tau)
    # each alpha is a multiple of 2^-53, so Euclid also ends by that denominator
    check_budget(samples * _euclid_steps(min(tau, 2.0**53)), "dirichlet scan")
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


@dataclass(frozen=True)
class ArcParameters:
    """Arc-partition parameters: log x < 2Q < tau < x, Q*tau near x."""

    x: int
    k: int
    Q: int
    tau: float

    def __post_init__(self):
        if self.k < 3:
            raise DomainError(f"k must be >= 3, got {self.k}")
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


def classify_arc(alpha: float, params: ArcParameters) -> ArcVerdict:
    """Major iff some q <= Q, 1 <= a <= q, gcd(a,q)=1 has |alpha - a/q| <= 1/(q tau).

    Any such witness satisfies |alpha - a/q| < 1/(2 q^2) because
    tau > 2Q >= 2q, so it must be a continued-fraction convergent;
    scanning convergents with q <= Q is therefore exhaustive.
    """
    exact = float(alpha)
    num, den = exact.as_integer_ratio()
    tn, td = float(params.tau).as_integer_ratio()
    # 1/tau <= alpha <= 1 + 1/tau, cross-multiplied
    if not den * td <= num * tn <= den * (tn + td):
        raise DomainError(f"alpha={alpha} outside [1/tau, 1 + 1/tau]")
    for p, q in convergents(exact):
        if q > params.Q:
            break
        if 1 <= p <= q and _within(num, den, p, q, tn, td):
            return ArcVerdict(major=True, a=p, q=q)
    return ArcVerdict(major=False)


@dataclass(frozen=True)
class DiagnosticBound:
    """The per-sample rows behind a fitted envelope constant."""

    params: dict
    rows: list

    @property
    def constant(self) -> float:
        """The largest row ratio, or 0.0 without rows."""
        return max((row["ratio"] for row in self.rows), default=0.0)


def vk_envelope_scan(x: int, k: int, q_max: int) -> DiagnosticBound:
    """Fitted constant of the V_k residual envelope q^(1/2+_SLACK) (1+x|beta|)^(1/2).

    Scans every reduced a/q with q <= q_max at the offsets beta = 0, w/2,
    w and -w, w = x^(1/k-1)/(2kq), the edge of the window where the
    sharper remainder form applies.  A row's residual is
    |f_k(a/q + beta) - V_k| for the model
    V_k = x^(1/k) S_k(q, a)/q int_0^1 e(x beta u^k) du.  Each q takes
    its phases from one unit_phase_batch at x * (0, w/2, w), the one at
    -w being the conjugate of the one at w, and every S_k(q, a) from one
    power_sum_spectrum.
    """
    if x < 1 or k < 1 or q_max < 1:
        raise DomainError(f"need x, k, q_max >= 1, got x={x}, k={k}, q_max={q_max}")
    # at most 4 offsets for each of the q_max (q_max + 1) / 2 pairs (a, q),
    # each charged a Weyl sum of m terms and a complete sum of q terms, and
    # refused on those before any offset is formed
    m = integer_kth_root(x, k)
    check_budget(2 * q_max * (q_max + 1) * (m + q_max), "vk scan")
    x_float = _float_x(x)
    scale = x_float ** (1.0 / k)
    rows = []
    for q in range(1, q_max + 1):
        width = x_float ** (1.0 / k - 1.0) / (2.0 * k * q)
        betas = (0.0, 0.5 * width, width, -width)
        zero, half, full = unit_phase_batch(x_float * np.array(betas[:3]), k).tolist()
        phases = (zero, half, full, full.conjugate())
        spectrum = power_sum_spectrum(q, k).tolist()
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            weight = scale * spectrum[a % q] / q
            for beta, phase in zip(betas, phases):
                residual = abs(weyl_sum(a / q + beta, x, k) - weight * phase)
                envelope = q ** (0.5 + _SLACK) * (1.0 + x * abs(beta)) ** 0.5
                rows.append(
                    {"a": a, "q": q, "beta": beta, "observed": residual,
                     "bound": envelope, "ratio": residual / envelope}
                )
    return DiagnosticBound(params={"x": x, "k": k, "q_max": q_max, "slack": _SLACK}, rows=rows)


def expansion_envelope_scan(
    x: int, k: int, table: np.ndarray | None = None
) -> DiagnosticBound:
    """Error of the three-term main model of f(-1/q - beta), for q in
    _EXPANSION_QS up to Q and q = Q, each at beta = 0, 1/(2 q tau) and 1/(q tau).

    The model is (x log x / q) L(x beta) + (x/q) L_log(x beta)
    + ((-2 log q + 2 gamma)/q) x L(x beta), with L and L_log the linear
    and log-weighted phase integrals taken over the scaled range [0, 4]
    actually spanned by the 4x summation limit of f.  A row's bound is
    x^_SLACK (q^(1/2) x/tau + q^(2/3) x^(1/3)).  Each q takes its three
    linear and its three log phases from one batch call each.

    ArcParameters.default gives Q tau = x (to rounding) and tau >= x^(3/5), so every
    row meets the expansion's hypotheses.  Each row sums 4x divisor
    terms, charged before the divisor table is built when none is passed.
    """
    params = ArcParameters.default(x, k)
    qs = sorted({q for q in _EXPANSION_QS if q <= params.Q} | {params.Q})
    check_budget(3 * len(qs) * 4 * x, "expansion scan")
    table = require_table(4 * x, table)
    rows = []
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
            rows.append({"a": 1, "q": q, "beta": beta, "observed": residual, "bound": bound,
                         "ratio": residual / bound})
    return DiagnosticBound(
        params={"x": x, "k": k, "slack": _SLACK, "Q": params.Q, "tau": params.tau},
        rows=rows,
    )


def hua_count(Y: int, k: int, j: int) -> int:
    """Exact count of m_1^k+...+m_t^k = n_1^k+...+n_t^k, t = 2^(j-1), all in [1, Y].

    By orthogonality this equals the 2^j-th moment of the power
    generating sum.  j=1 counts the diagonal.  j=2 sorts the Y(Y-1)/2
    pair sums m^k + n^k with m < n, refusing 2*Y^k beyond int64: if r_s
    such pairs sum to s and d_s = 1 when s = 2m^k, the ordered count is
    c_s = 2 r_s + d_s, so sum c_s^2 = 4 sum r_s^2 + 4 sum_m r(2m^k) + Y.
    Higher j convolves the power histogram t - 1 times in Python ints,
    charged one unit per coefficient product.
    """
    if Y < 1 or k < 1:
        raise DomainError(f"need Y >= 1 and k >= 1, got Y={Y}, k={k}")
    if j < 1:
        raise DomainError(f"j must be >= 1, got {j}")
    if j == 1:
        check_budget(Y, "hua_count")
        return Y
    if j == 2:
        check_budget(Y * Y, "hua_count")
        pairs = Y * (Y - 1) // 2
        if pairs > MAX_SORT:
            raise SizeError(f"pair-sum sort needs {pairs} entries, cap is {MAX_SORT}")
        if 2 * Y**k > INT64_MAX:
            raise SizeError(
                f"pair sums reach 2*{Y}^{k} = {2 * Y**k}, beyond int64 {INT64_MAX}"
            )
        powers = np.arange(1, Y + 1, dtype=np.int64) ** k
        sums = np.empty(pairs, dtype=np.int64)
        start = 0
        for m in range(Y - 1):
            stop = start + Y - 1 - m
            np.add(powers[m + 1 :], powers[m], out=sums[start:stop])
            start = stop
        sums.sort()
        # A run of r equal sums gives r - 1 consecutive hits and adds
        # r^2 - r to sum r_s^2.  sum r_s^2 <= (sum r_s)^2 = pairs^2 <=
        # MAX_SORT^2 < 2^63, so no int64 total below wraps.
        hits = np.flatnonzero(sums[1:] == sums[:-1])
        squares = pairs
        if hits.size:
            edges = np.flatnonzero(np.diff(hits) != 1) + 1
            streaks = np.diff(np.concatenate(([0], edges, [hits.size])))
            squares += int((streaks * (streaks + 1)).sum())
        doubles = 2 * powers
        on_diagonal = int(
            (np.searchsorted(sums, doubles, "right") - np.searchsorted(sums, doubles)).sum()
        )
        return 4 * squares + 4 * on_diagonal + Y
    t = 2 ** (j - 1)
    # step i = 1..t-1 convolves i*Y^k + 1 coefficients with Y^k + 1 of them
    check_budget((Y**k + 1) * (Y**k * t * (t - 1) // 2 + t - 1), "hua_count")
    counts = np.bincount(np.arange(1, Y + 1, dtype=np.int64) ** k, minlength=Y**k + 1)
    acc = counts.astype(object)
    for _ in range(t - 1):
        acc = np.convolve(acc, counts.astype(object))
    return int((acc**2).sum())


def minor_arc_bound_profile(
    x: int, k: int, samples: int = 1000, seed: int = 0
) -> DiagnosticBound:
    """Fitted constant of the minor-arc power-sum bound over random frequencies.

    Each minor-arc sample alpha gets its convergent (a, q); the observed
    |f_k(alpha)| is divided by the k <= 7 Weyl-differencing bound
    M (1/q + 1/M + q/M^k)^(1/2^(k-1)) with M = floor(x^(1/k)), or for
    k >= 8 the smooth-number bound
    x^(1/k) (1/q + x^(-1/k) + q/x)^(1/(2k(k-1))).
    """
    _check_draws(samples, seed)
    params = ArcParameters.default(x, k)
    rng = np.random.default_rng(seed)
    m = integer_kth_root(x, k)
    # every draw's classify_arc stops once a denominator passes Q; a kept
    # sample adds dirichlet_approx, which stops past tau, and m Weyl terms
    steps = _DRAWS_PER_SAMPLE * _euclid_steps(params.Q) + _euclid_steps(params.tau)
    check_budget(samples * (steps + m), "minor-arc profile")
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
    return DiagnosticBound(
        params={"x": x, "k": k, "Q": params.Q, "tau": params.tau,
                "samples": len(rows), "seed": seed},
        rows=rows,
    )
