"""Oscillatory phase integrals and the singular integrals built from them.

The density at frequency beta is the product

    (int_0^1 e(beta u^2) du)^3 * (int_0^1 e(beta u^k) du) * F(beta)

with F either int_0^3 e(-beta u) du (plain) or the log-weighted variant.
Its integral over all beta is the singular-integral constant J1 (plain)
or J2 (log-weighted), and this module has three routes to each:

  * j_values, the paper's: a panel quadrature of the density over beta
    up to a cut B, with a tail bound past it; `integral` reports it;
  * j_volume_oracle: by Fourier inversion J1 is the volume of
    {u in [0,1]^4 : u1^2 + u2^2 + u3^2 + u4^k <= 3} and J2 the integral
    of log(u1^2 + u2^2 + u3^2 + u4^k) over it, counted on a midpoint grid
    from an exact square-sum histogram;
  * j_volume: the same volume reduced to the (u4, u3) unit square, the
    other two coordinates in closed form (J1) or on one polar line (J2),
    on fixed Gauss-Legendre rules.  It is good to about 1e-14 in under
    10 ms per k, where the sweep at B = 400 is 1.6e-8 to 1.4e-6 off and
    takes about 0.25 s, so `verify` takes J1 and J2 from it.

Each phase factor has one evaluator, vectorized over beta >= 0, which
every command uses: exact closed forms where they exist, for beta <=
_ASYM_BETA one table of e(beta v) on one panel rule (_small_phases), and
past _ASYM_BETA contour-rotated boundary terms whose smooth remainder is
an asymptotic series in 1/lam, lam = 2 pi beta.  A unit phase runs in
v = u^k, as s int_0^1 v^(s-1) e(beta v) dv, s = 1/k, singular only at 0
like log v in the log phase, which is conjugate to int log v e(beta v) dv.
unit_power_phase_integral and log_weighted_integral read one beta of
either sign from it.  The tests hold it to 1e-9 against adaptive panel
quadratures (tests/density_reference.py), and to 2e-15 (unit phases),
6e-15 (the log phase) or 1e-14 (past _ASYM_BETA) against mpmath.

j_values sweeps beta once for both singular integrals: the factors the
two densities share, (square phase)^3 times the k-th power phase, are
computed once per node, and each integral multiplies in only its own
last factor.  All three phases share the e(beta v) table and lam, and the
two unit phases also 1/lam and e^(i lam).  The sweep's blocks (_sweep)
run on every CPU through threads.ordered_map, each taken by the next free
thread: the first, which holds every beta <= _ASYM_BETA, costs several
times any other.  No step calls BLAS, so no value depends on the worker
or BLAS thread count.  j_values(3, 400) peaks at about 14 MiB of numpy
memory.  The block evaluator calls no function the benchmark's tracer
wraps, since the tracer keeps one span stack for all threads.

An asymptotic series sum_m i^m a_m x^m (real a_m, x = 1/lam or
1/(U lam), U the log-weighted integral's upper limit) is evaluated as
two real Horner polynomials in x^2, one for its real and one for its
imaginary part.  It keeps the terms before the first one smaller than
2^-60 of the leading term at the x of beta = 10, the largest x it is
evaluated at: 20 or 21 of the 40 allowed for the unit phases, 11 for
the log-weighted one at U = 3 and 10 at U = 4.  The remainder after m
terms is bounded by the magnitude of term m for both series (the
Taylor remainder of (1 + i s)^c, c < 0, and of log(U + i s) under the
Laplace integral), so a cut tail is within 2^-60 of its leading term, below
1.6e-20 absolute for beta > 10 and well under one rounding of the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from math import gamma as gamma_fn

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import check_k, indicator_power
from .budget import check_budget
from .errors import DomainError
from .threads import ordered_map

TWO_PI = 2.0 * math.pi
_FLOAT_MAX = float(np.finfo(float).max)

# Crossover between panel quadrature and the asymptotic contour path.
_ASYM_BETA = 10.0
_ASYM_TERMS = 40
# An asymptotic tail keeps its terms down to this fraction of its first.
_TAIL_CUT = 2.0**-60
# Nodes per block of the density sweep.
_BLOCK = 1 << 15
# Entries per chunk of the small-beta phase table, at least one row.
_PHASE_CHUNK = 1 << 11
# Gauss-Legendre nodes per panel of the small-beta rule, and its uniform
# panels per unit length: 16, ten for every 2 pi / _ASYM_BETA of v.
_RULE_ORDER = 8
_UNIFORM = math.ceil(10.0 * _ASYM_BETA / TWO_PI)

# Split point for the integrable singularity at 0 of log u and of v^(s-1).
LOG_SPLIT = 1e-6

# Gauss-Legendre nodes and weights by order.
_gl = cache(leggauss)


def _panel_nodes(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = _gl(order)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=8)  # the commands use upper 1, 3 and 4; a library caller may pass any
def _small_rule(upper: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the small-beta rule on [LOG_SPLIT, upper >= 1]:
    on [LOG_SPLIT, 1], where the unit phases run, two graded panels an
    octave from LOG_SPLIT for v^(s-1) (one left the k = 3 phase 9e-14 off)
    and log v, merged with _UNIFORM uniform panels; past 1, where only the
    log phase runs, uniform panels at most 1/_UNIFORM wide."""
    graded = LOG_SPLIT * 2.0 ** (np.arange(0, 80) / 2)
    uniform = np.linspace(LOG_SPLIT, 1.0, _UNIFORM + 1)
    # a set, not np.unique, whose numpy.ma import would cost 6 ms at import
    unit = sorted({*graded[graded < 1.0].tolist(), *uniform.tolist()})
    beyond = np.linspace(1.0, upper, math.ceil((upper - 1.0) * _UNIFORM) + 1)[1:]
    return _panel_nodes(np.array(unit + beyond.tolist()), _RULE_ORDER)


# Entries per beta of the small-beta phase table, the rule's nodes: to 1 for
# the unit phases alone, to 3 with the sweep's log phase.  Every small-beta
# charge reads these.
UNIT_RULE_NODES = _small_rule(1.0)[0].size
LOG_RULE_NODES = _small_rule(3.0)[0].size


def _head(z: np.ndarray, scale: float, moments: list[tuple[float, float]]) -> np.ndarray:
    """int_0^LOG_SPLIT w(v) e(beta v) dv as sum_n m_n z^n / n!, n <= 3 (n = 4
    is below 1e-20 at beta <= 10), z = 2 pi i beta LOG_SPLIT, from the moments
    m_n = scale top / bottom of w on [0, LOG_SPLIT] in units of LOG_SPLIT^n."""
    return scale * sum(top * z**n / (math.factorial(n) * bottom)
                       for n, (top, bottom) in enumerate(moments))


# ---------------------------------------------------------------------------
# vectorized evaluators for the frequency sweep (beta >= 0)
# ---------------------------------------------------------------------------


def _small_phases(
    betas: np.ndarray, ks: tuple[int, ...], log_upper: float | None
) -> list[np.ndarray]:
    """The unit phase for each k in ks, then the log phase up to log_upper
    unless it is None, at 0 <= beta <= _ASYM_BETA, from one table of e(beta v)
    on the small-beta rule to log_upper (to 1 without the log phase).

    Each factor is a weighted row sum of the table plus its head: a unit
    phase, s int_0^1 v^(s-1) e(beta v) dv, s = 1/k, reads the first
    UNIT_RULE_NODES columns, and the log phase is the conjugate of the log v
    row.  The table is formed in chunks of at most _PHASE_CHUNK entries (or
    one row) and each weighted row summed by numpy's pairwise rule, so a
    beta's value has the same bits alone as in any batch, and a unit phase
    the same with or without the log phase.
    """
    nodes, weights = _small_rule(1.0 if log_upper is None else log_upper)
    unit, unit_weights = nodes[:UNIT_RULE_NODES], weights[:UNIT_RULE_NODES]
    z = 2j * np.pi * LOG_SPLIT * betas
    rows, heads = [], []
    for s in (1.0 / k for k in ks):
        rows.append(s * unit ** (s - 1.0) * unit_weights)
        heads.append(_head(z, LOG_SPLIT**s, [(s, n + s) for n in range(4)]))
    if log_upper is not None:
        # int_0^d v^n log v dv = d^(n+1) ((n + 1) log d - 1) / (n + 1)^2
        rows.append(np.log(nodes) * weights)
        moments = [((n + 1) * math.log(LOG_SPLIT) - 1.0, (n + 1) ** 2) for n in range(4)]
        heads.append(_head(z, LOG_SPLIT, moments))
    sums = [np.empty(betas.shape, dtype=complex) for _ in rows]
    step = max(1, _PHASE_CHUNK // nodes.size)
    for lo in range(0, betas.size, step):
        table = np.exp(2j * np.pi * np.multiply.outer(betas[lo : lo + step], nodes))
        for out, row in zip(sums, rows):
            out[lo : lo + step] = (table[:, : row.size] * row).sum(axis=1)
    phases = [out + head for out, head in zip(sums, heads)]
    if log_upper is not None:
        phases[-1] = phases[-1].conj()
    return phases


def _asymptotic_tail(coeffs: np.ndarray, x: np.ndarray, x_max: float) -> np.ndarray:
    """sum_m i^m coeffs[m] x^m over 0 < x <= x_max, with real coeffs.

    The even terms are the real part and the odd terms the imaginary
    part, each a real Horner polynomial in x^2.  Every node keeps the
    terms before the first one that falls below _TAIL_CUT of the leading
    term at x_max, so a node's value does not depend on the batch.
    """
    magnitudes = np.abs(coeffs)
    small = magnitudes * x_max ** np.arange(coeffs.size) < _TAIL_CUT * magnitudes[0]
    count = int(np.argmax(small)) if small.any() else coeffs.size
    signed = coeffs[:count] * np.where(np.arange(count) % 4 < 2, 1.0, -1.0)
    u = x * x
    out = np.empty(x.shape, dtype=complex)
    out.real = _horner(signed[0::2], u)
    out.imag = x * _horner(signed[1::2], u)
    return out


def _horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] u^j."""
    acc = np.zeros(u.shape)
    for c in coeffs[::-1]:
        acc *= u
        acc += c
    return acc


def _unit_batch_large(
    lam: np.ndarray, inv: np.ndarray, rotation: np.ndarray, k: int
) -> np.ndarray:
    # Rotate int_0^1 t^c e(beta t) dt (c = 1/k - 1) onto the rays from 0
    # and 1: a Gamma-function boundary term plus rotation = e^(i lam)
    # times a smooth remainder expanded asymptotically in inv = 1/lam,
    # with coefficients i^m c(c-1)...(c-m+1).  Gamma takes 1/k: c + 1 drops its low digits.
    c = 1.0 / k - 1.0
    lead = 1j * np.exp(1j * np.pi * c / 2.0) * gamma_fn(1.0 / k) * lam ** (-1.0 / k)
    coeffs = np.cumprod(np.concatenate([[1.0], c - np.arange(_ASYM_TERMS - 1)]))
    tail = inv * _asymptotic_tail(coeffs, inv, 1.0 / (TWO_PI * _ASYM_BETA))
    return (lead - 1j * rotation * tail) / k


def _phase_batches(
    betas: np.ndarray, ks: tuple[int, ...], log_upper: float | None
) -> list[np.ndarray]:
    """unit_phase_batch for each k in ks, then log_phase_batch up to log_upper
    unless it is None.

    The factors share the regime split, the e(beta v) table and lam = 2 pi
    beta; the unit phases also share 1/lam and e^(i lam).  Without a beta
    <= _ASYM_BETA the large-beta forms run on betas as given, with no mask
    or copy.
    """
    betas = np.asarray(betas, dtype=float)
    small = betas <= _ASYM_BETA
    any_small = small.any()
    lam = TWO_PI * (betas[~small] if any_small else betas)
    inv = 1.0 / lam
    rotation = np.exp(1j * lam)
    highs = [_unit_batch_large(lam, inv, rotation, k) for k in ks]
    if log_upper is not None:
        highs.append(_log_batch_large(lam, log_upper))
    if not any_small:
        return highs
    outs = [np.empty(betas.shape, dtype=complex) for _ in highs]
    for out, low, high in zip(outs, _small_phases(betas[small], ks, log_upper), highs):
        out[small], out[~small] = low, high
    return outs


def unit_phase_batch(betas: np.ndarray, k: int) -> np.ndarray:
    """Vectorized int_0^1 e(beta u^k) du over an array of beta >= 0."""
    check_k(k)
    return _phase_batches(betas, (k,), None)[0]


def linear_phase_batch(betas: np.ndarray, upper: float = 3.0) -> np.ndarray:
    """int_0^upper e(-beta u) du in closed form, elementwise over betas.

    (1 - e(-upper*beta)) / (2 pi i beta) over the whole array; a power
    series then overwrites the seam |beta| < 1e-6 to full precision.  A
    scalar beta gives a 0-d array.
    """
    betas = np.asarray(betas, dtype=float)
    # at 0 and near it the division fails or overflows; the series replaces those
    with np.errstate(all="ignore"):
        out = np.asarray((1.0 - np.exp(-2j * np.pi * upper * betas)) / (2j * np.pi * betas))
    tiny = np.abs(betas) < 1e-6
    if tiny.any():
        z = -2j * np.pi * upper * betas[tiny]
        total = np.ones(z.shape, dtype=complex)
        term = np.ones(z.shape, dtype=complex)
        for m in range(1, 9):
            term = term * z / (m + 1)
            total += term
        out[tiny] = upper * total
    return out


def _log_batch_large(lam: np.ndarray, upper: float) -> np.ndarray:
    # Same contour rotation for int_0^U e(-beta u) log u du, U = upper: the
    # ray from 0 integrates exactly (Frullani-type log moment), the ray
    # from U leaves e^(-U i lam) times an asymptotic remainder in
    # 1/(U lam) with coefficients log U, then -i^m (m-1)!.
    lead = 1j * (np.euler_gamma + np.log(lam)) / lam - np.pi / (2.0 * lam)
    factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, _ASYM_TERMS - 1)]))
    coeffs = np.concatenate([[math.log(upper)], -factorials])
    total = _asymptotic_tail(coeffs, 1.0 / (upper * lam), 1.0 / (upper * TWO_PI * _ASYM_BETA))
    return lead + 1j * np.exp(-1j * upper * lam) * total / lam


def log_phase_batch(betas: np.ndarray, upper: float = 3.0) -> np.ndarray:
    """Vectorized int_0^upper e(-beta u) log u du over beta >= 0, upper in [1, 4]."""
    if not 1.0 <= upper <= 4.0:
        raise DomainError(f"upper must be in [1, 4], got {upper}")
    return _phase_batches(betas, (), upper)[0]


# The one-beta forms: a beta < 0 takes the conjugate of the value at
# |beta|, as both integrands are conjugate under beta -> -beta.  No
# command calls them; they stay only because perfbench/spans.py names them.


def unit_power_phase_integral(beta: float, k: int) -> complex:
    """int_0^1 e(beta u^k) du for one beta, from unit_phase_batch."""
    value = complex(unit_phase_batch(np.array([abs(float(beta))]), k)[0])
    return value.conjugate() if beta < 0 else value


def log_weighted_integral(beta: float, upper: float = 3.0) -> complex:
    """int_0^upper e(-beta u) log u du for one beta, from log_phase_batch."""
    value = complex(log_phase_batch(np.array([abs(float(beta))]), upper)[0])
    return value.conjugate() if beta < 0 else value


# ---------------------------------------------------------------------------
# density, its integral, and the volume oracle
# ---------------------------------------------------------------------------


def decay_envelope(density, betas, k: int, which: int):
    """|density| (1+beta)^(5/2+1/k), divided by log(2+beta) when which = 2:
    the density over its decay envelope, bounded in beta."""
    ratio = np.abs(density) * (1.0 + betas) ** (2.5 + 1.0 / k)
    if which == 2:
        ratio = ratio / np.log(2.0 + betas)
    return ratio


def _check_which(which: int) -> None:
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")


def _check_B(B: float) -> None:
    if not math.isfinite(B) or B < 1.0:
        raise DomainError(f"B must be a finite number >= 1, got {B}")


def density_profile(
    k: int, which: int, B: float, points: int
) -> list[tuple[float, complex, float]]:
    """(beta, density, decay_envelope) at `points` even steps over [0, B]."""
    if points < 1:
        raise DomainError(f"density profile needs points >= 1, got {points}")
    _check_B(B)
    check_budget(points * (LOG_RULE_NODES if which == 2 else UNIT_RULE_NODES), "density profile")
    betas = B * np.arange(points) / max(1, points - 1)
    densities = j_density_batch(betas, k, which)
    ratios = decay_envelope(densities, betas, k, which)
    return list(zip(betas.tolist(), densities.tolist(), ratios.tolist()))


def _block_densities(
    betas: np.ndarray, k: int, whiches: tuple[int, ...]
) -> list[np.ndarray]:
    # The core (square phase)^3 * (k-th power phase) is shared by every
    # which; each multiplies in only its own last factor.
    square, power, *log = _phase_batches(betas, (2, k), 3.0 if 2 in whiches else None)
    core = square**3 * power
    return [core * (log[0] if which == 2 else linear_phase_batch(betas)) for which in whiches]


def j_density_batch(betas: np.ndarray, k: int, which: int) -> np.ndarray:
    """Density values on a 1-d beta >= 0 grid via the vectorized evaluators."""
    check_k(k)
    _check_which(which)
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    # blocks of _BLOCK nodes keep the temporaries small and in cache
    for start in range(0, betas.size, _BLOCK):
        block = betas[start : start + _BLOCK]
        out[start : start + _BLOCK] = _block_densities(block, k, (which,))[0]
    return out


@dataclass(frozen=True)
class SingularIntegralValue:
    """Truncated singular integral with error metadata."""

    k: int
    which: int
    B: float
    value: float
    quadrature_error: float
    tail_bound: float
    envelope_constant: float


_PIVOT = TWO_PI / 3.0  # where the panel width 1/10 starts to shrink
_WIDTH = TWO_PI / 30.0  # panel width times beta beyond the pivot


def _fine_panels(B: float) -> int:
    """Panels _beta_edges(B) returns; saturated, past any budget, where B*B overflows."""
    if B <= _PIVOT:
        return math.ceil(B / 0.1)
    tail = min((B * B - _PIVOT * _PIVOT) / (2.0 * _WIDTH), _FLOAT_MAX)
    return math.ceil(_PIVOT / 0.1) + math.ceil(tail)


def _beta_edges(B: float) -> np.ndarray:
    """Panel edges on [0, B] with width <= 1/(10 max(1, 3 beta / 2 pi)).

    Uniform width 1/10 until the width formula starts shrinking, then
    the closed-form schedule t_n = sqrt(t0^2 + 2 c n) whose steps stay
    just inside the allowed width c/t.
    """
    if B <= _PIVOT:
        return np.linspace(0.0, B, _fine_panels(B) + 1)
    head = np.append(np.arange(0.0, _PIVOT, 0.1), _PIVOT)
    count = _fine_panels(B) - (head.size - 1)
    tail = np.sqrt(_PIVOT * _PIVOT + 2.0 * _WIDTH * np.arange(1, count + 1))
    tail[-1] = B
    return np.concatenate([head, tail])


def _coarse_edges(edges: np.ndarray) -> np.ndarray:
    """Every other edge, and the last one: the half-resolution panels."""
    coarse = edges[::2]
    return coarse if coarse[-1] == edges[-1] else np.append(coarse, edges[-1])


def _small_nodes(edges: np.ndarray) -> int:
    """4-point panel nodes at beta <= _ASYM_BETA on edges; only the panels
    starting there can hold one."""
    head = edges[: np.searchsorted(edges, _ASYM_BETA, side="right") + 1]
    return int(np.count_nonzero(_panel_nodes(head, 4)[0] <= _ASYM_BETA))


def _sweep(
    edges: np.ndarray, k: int, whiches: tuple[int, ...], envelope: bool
) -> tuple[list[float], list[float]]:
    """2 Re of the 4-point panel quadrature of the density over edges, and
    (when envelope is set) the largest decay_envelope on its nodes, per which.

    Blocks of _BLOCK nodes run through ordered_map.  Each returns, per
    which, the pairwise sum of its weighted values and its envelope peak;
    math.fsum adds the block sums in block order, correctly rounded, so
    no value depends on the worker count and no array spans the sweep.
    """
    step = _BLOCK // 4

    def block(first: int) -> tuple[list[float], list[float]]:
        nodes, weights = _panel_nodes(edges[first : first + step + 1], 4)
        sums, peaks = [], []
        for which, values in zip(whiches, _block_densities(nodes, k, whiches)):
            sums.append(float(np.sum(values * weights).real))
            if envelope:
                peaks.append(float(decay_envelope(values, nodes, k, which).max()))
        return sums, peaks

    blocks = ordered_map(block, range(0, edges.size - 1, step))
    sums = [2.0 * math.fsum(column) for column in zip(*(s for s, _ in blocks))]
    return sums, [max(column) for column in zip(*(p for _, p in blocks))]


def check_sweep(k: int, B: float, whiches: tuple[int, ...]) -> None:
    """Refuse a j_values sweep before any work: a bad k, B or which, or past
    the budget.  It is charged 4 Gauss nodes per fine and per half-resolution
    panel, and per node at beta <= _ASYM_BETA its phase table's entries, with
    the log phase (which = 2) or without.  Those nodes lie on the edges up to
    the first past _ASYM_BETA, which every B >= 2 _ASYM_BETA shares, so they
    are counted on the edges of min(B, 2 _ASYM_BETA), not the sweep's."""
    for which in whiches:
        _check_which(which)
    _check_B(B)
    check_k(k)
    fine_panels = _fine_panels(float(B))
    units = 4 * (fine_panels + (fine_panels + 1) // 2)
    head = _beta_edges(min(float(B), 2.0 * _ASYM_BETA))
    small = _small_nodes(head) + _small_nodes(_coarse_edges(head))
    table = LOG_RULE_NODES if 2 in whiches else UNIT_RULE_NODES
    check_budget(units + small * table, "singular-integral sweep")


def j_values(
    k: int, B: float = 400.0, whiches: tuple[int, ...] = (1, 2)
) -> list[SingularIntegralValue]:
    """2 Re int_0^B of the density for each which, from one sweep.

    The half-resolution panels run first, then the fine panels.  Each
    block of panels builds its own nodes, evaluates the phase factors
    common to every which once per node, and keeps only its sum and
    envelope peak per which.  The quadrature error is the difference
    between the two panel sets; the tail bound integrates the largest
    decay_envelope on the fine nodes times (1+beta)^(-5/2-1/k), and
    log(2+beta) for which = 2, from B to infinity on both sides.
    """
    check_sweep(k, B, whiches)
    B = float(B)
    edges = _beta_edges(B)
    coarse, _ = _sweep(_coarse_edges(edges), k, whiches, envelope=False)
    fine, envelopes = _sweep(edges, k, whiches, envelope=True)

    p = 1.5 + 1.0 / k
    results = []
    for which, value, c_value, c_env in zip(whiches, fine, coarse, envelopes):
        tail = 2.0 * c_env * (1.0 + B) ** (-p) / p
        if which == 2:
            tail *= math.log(2.0 + B) + 1.0 / p
        results.append(
            SingularIntegralValue(
                k=k,
                which=which,
                B=B,
                value=value,
                quadrature_error=abs(value - c_value),
                tail_bound=tail,
                envelope_constant=c_env,
            )
        )
    return results


def j_value(k: int, which: int, B: float = 400.0) -> SingularIntegralValue:
    """The truncated singular integral for one which; see j_values.  No
    command calls it: it stays only because perfbench/spans.py names it."""
    return j_values(k, B, (which,))[0]


def _square_sum_histogram(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct N = (2i+1)^2 + (2j+1)^2 + (2l+1)^2 over 0 <= i, j, l < grid,
    ascending, and the number of triples (i, j, l) giving each.

    An odd square is 8t + 1, so N = 8(t1 + t2 + t3) + 3: the triple
    counts are the cube of the indicator of the t = ((2i+1)^2 - 1)/8.
    """
    t = (2 * np.arange(grid, dtype=np.int64) + 1) ** 2 // 8
    triples = indicator_power(np.bincount(t).astype(np.int8), 3)
    sums = np.flatnonzero(triples)
    return 8 * sums + 3, triples[sums]


def volume_midpoint(k: int, which: int, grid: int) -> float:
    """Midpoint-rule integral over the unit 4-cube at one resolution.

    which=1: volume of {u : u1^2+u2^2+u3^2+u4^k <= 3}; which=2: the
    integral of log(u1^2+u2^2+u3^2+u4^k) over the same region.  Each u4
    node searches its cut 3 - u4^k >= 2 among the distinct N/(4 grid^2),
    the least of which is below 1: which=1 reads the cumulative count
    there, which=2 sums count * log over the N below it.
    """
    if grid < 64:
        raise DomainError(f"grid must be >= 64 per axis, got {grid}")
    check_k(k)
    _check_which(which)
    check_budget(grid**3, "volume oracle")
    N, counts = _square_sum_histogram(grid)
    s3 = N / (4.0 * grid * grid)
    powers = ((np.arange(grid) + 0.5) / grid) ** k
    cuts = np.searchsorted(s3, 3.0 - powers, side="right")
    if which == 1:
        return int(np.cumsum(counts)[cuts - 1].sum()) / grid**4
    # numpy's pairwise sum, not a BLAS dot, whose bits follow its thread count
    logs = (float(np.sum(counts[:m] * np.log(s3[:m] + p))) for m, p in zip(cuts, powers))
    return sum(logs) / grid**4


def check_oracle_grid(grid: int) -> None:
    """Refuse a j_volume_oracle grid before any work: below 64 per axis,
    or a 2g grid past the budget."""
    if grid < 64:
        raise DomainError(f"grid must be >= 64 per axis, got {grid}")
    check_budget((2 * grid) ** 3, "volume oracle")


def j_volume_oracle(k: int, which: int, grid: int = 128) -> float:
    """Richardson extrapolation of the midpoint volume across (g, 2g)."""
    check_oracle_grid(grid)
    fine = volume_midpoint(k, which, 2 * grid)
    coarse = volume_midpoint(k, which, grid)
    return 2.0 * fine - coarse


# ---------------------------------------------------------------------------
# the singular integrals as reduced volumes
# ---------------------------------------------------------------------------

# Gauss-Legendre order of every line of the reduced volume; the stated
# error compares it with twice it.
_VOLUME_ORDER = 24
# t nodes per block of the J2 lines: 8 x 48 x 48 doubles stay in cache.
_T_BLOCK = 8
# Rounding allowance of a reduced-volume value: 32 ulps (a few in each
# function and product, and log2(48) < 6 per pairwise sum, on three nested
# lines) of an integrand at most log 3 in magnitude on the unit (t, z)
# square: G <= 1, and |H| <= max(log 3, pi/4) over a region of area <= 1.
_ROUNDING = 32 * np.finfo(float).eps * math.log(3.0)


@dataclass(frozen=True)
class VolumeIntegralValue:
    """Singular integral from the reduced volume, with its stated error."""

    k: int
    which: int
    value: float
    error: float


def _t_rule(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """t^k and the weights of 2n nodes t on [0, 1]: t = u^2/2 on [0, 1/2]
    and t = 1 - u^2/2 on [1/2, 1], u on an n-point rule."""
    u, w = _panel_nodes(np.array([0.0, 1.0]), n)
    half = u * u / 2.0
    return np.concatenate([half, 1.0 - half]) ** k, np.concatenate([u * w, u * w])


def _cut_area(r1: np.ndarray) -> np.ndarray:
    """G(R), the area of {(a, b) in [0,1]^2 : a^2 + b^2 <= R}, for R = 1 + r1
    in [1, 2]: sqrt(R - 1) + R (pi/4 - arctan sqrt(R - 1)), the arcsine and
    arccosine of R^(-1/2) written through sqrt(R - 1)."""
    q = np.sqrt(r1)
    return q + (1.0 + r1) * (np.pi / 4.0 - np.arctan(q))


def _log_area(c: np.ndarray, m1: np.ndarray, y: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """H, the integral of log(c + a^2 + b^2) over {a^2 + b^2 <= 3 - c} in
    [0,1]^2, by polar s whose arc inside the square has angle theta(s).

    s <= 1 is a quarter disk, (pi/4)((c+1) log(c+1) - c log c - 1); s in
    [1, 1 + m1], m1 = min(sqrt(3 - c), sqrt 2) - 1, has theta(s) = pi/2 -
    2 arccos(1/s) and runs on s = 1 + m1 y^2, whose Jacobian cancels the
    square-root edge of arccos at s = 1.
    """
    disk = np.pi / 4.0 * ((c + 1.0) * np.log1p(c) - c * np.log(c) - 1.0)
    s1 = m1[..., None] * (y * y)
    s = 1.0 + s1
    theta = np.pi / 2.0 - 2.0 * np.arctan(np.sqrt(s1 * (s + 1.0)))
    ring = np.sum(s * theta * np.log(c[..., None] + s * s) * (2.0 * y * wy), axis=-1)
    return disk + m1 * ring


def _reduced_volume(k: int, which: int, n: int) -> float:
    """J_which on n-point lines.

    Each t splits z at a = sqrt(1 - t^k), where 3 - t^k - z^2 crosses 2:
    below it the cut disk is the whole square (area 1, so J1 takes a in
    closed form) and J2's s runs to sqrt 2; above it s runs to sqrt(3 - c).
    z = a v^2 on [0, a] keeps c log c smooth at t = z = 0, and z = 1 - (1 -
    a) v^2 on [a, 1] the disk's edge at t = z = 1.  1 - z^2 and
    3 - c - 1 are formed from 1 - z, so neither cancels.
    """
    tk, wt = _t_rule(k, n)
    a2 = 1.0 - tk
    a = np.sqrt(a2)
    v, wv = _panel_nodes(np.array([0.0, 1.0]), n)
    v2, dv = v * v, 2.0 * v * wv
    if which == 1:
        top = (1.0 - a)[:, None] * v2  # 1 - z on [a, 1]
        area = _cut_area(a2[:, None] + top * (2.0 - top))
        rows = a + (1.0 - a) * np.sum(area * dv, axis=1)
        return float(np.sum(rows * wt))
    rows = np.empty(tk.shape)
    for lo in range(0, tk.size, _T_BLOCK):
        b = slice(lo, lo + _T_BLOCK)
        low = tk[b, None] + (a[b, None] * v2) ** 2  # c on z in [0, a]
        top = (1.0 - a[b, None]) * v2  # 1 - z on [a, 1]
        r1 = a2[b, None] + top * (2.0 - top)  # 3 - c - 1 on [a, 1]
        low_h = _log_area(low, np.full(low.shape, math.sqrt(2.0) - 1.0), v, wv)
        high_h = _log_area(2.0 - r1, r1 / (np.sqrt(1.0 + r1) + 1.0), v, wv)
        rows[b] = a[b] * np.sum(low_h * dv, axis=1) + (1.0 - a[b]) * np.sum(high_h * dv, axis=1)
    return float(np.sum(rows * wt))


def j_volume(k: int, which: int) -> VolumeIntegralValue:
    """J1 (which = 1) or J2 (which = 2) from the reduced volume.

    J1 is the volume of {u in [0,1]^4 : u1^2 + u2^2 + u3^2 + u4^k <= 3} and
    J2 the integral of log(u1^2 + u2^2 + u3^2 + u4^k) over it, the values
    the Fourier sweep of j_values approaches as B grows.  Two coordinates
    integrate in closed form or on one polar line (see _reduced_volume);
    the others are t = u4 and z = u3 on fixed Gauss-Legendre rules.  The
    value is taken on _VOLUME_ORDER-point lines doubled; the stated error
    is its gap to the undoubled lines plus the rounding allowance
    _ROUNDING.  Runs on the calling thread and
    sums by numpy's pairwise rule, so its bits follow no thread count.
    """
    check_k(k)
    _check_which(which)
    n = _VOLUME_ORDER
    # integrand nodes on both orders m: 2m t by m z (J1), by 2m z and m s (J2)
    units = sum(2 * m * m * (1 if which == 1 else 2 * m) for m in (n, 2 * n))
    check_budget(units, "reduced-volume integral")
    coarse = _reduced_volume(k, which, n)
    value = _reduced_volume(k, which, 2 * n)
    return VolumeIntegralValue(k=k, which=which, value=value,
                               error=abs(value - coarse) + _ROUNDING)
