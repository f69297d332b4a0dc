"""Oscillatory phase integrals and the singular integrals built from them.

The density at frequency beta is the product

    (int_0^1 e(beta u^2) du)^3 * (int_0^1 e(beta u^k) du) * F(beta)

with F either int_0^3 e(-beta u) du (plain) or the log-weighted variant.
Its integral over all beta is the singular-integral constant; by Fourier
inversion that equals a 4-dimensional volume (plain) or a log-weighted
one, an independent oracle counted from an exact square-sum histogram.

Each phase factor has two evaluation routes that are tested against
each other to 1e-9:

  * panel Gauss-Legendre quadrature, subdivided fine enough for at
    least ten nodes per oscillation (the reference, any beta);
  * for the frequency sweep, a vectorized path: exact closed forms
    where they exist, and contour-rotated boundary terms whose smooth
    remainder is an asymptotic series in 1/lam, lam = 2 pi beta.

j_values sweeps beta once for both singular integrals: the factors the
two densities share, (square phase)^3 times the k-th power phase, are
computed once per node, and each integral then multiplies in only its
own last factor.  The two unit phases also share e^(i lam).  The sweep
is streamed in blocks of _BLOCK nodes, each building its own nodes and
weights from its slice of the panel edges, and the blocks run on every
CPU through threads.ordered_map.  What a sweep keeps is one weighted
density value per node and which, summed by numpy's pairwise rule over
the whole array, so the sums do not depend on the block or worker
count.  The half-resolution sweep is reduced to its sums before the
fine one starts, so j_values(3, 400) peaks at about 77 MiB of numpy
memory, where whole node, weight and value arrays took 145 MiB.  The block evaluator calls no function the
benchmark's tracer wraps, since the tracer keeps one span stack for
all threads.

An asymptotic series sum_m i^m a_m x^m (real a_m, x = 1/lam or
1/(3 lam)) is evaluated as two real Horner polynomials in x^2, one for
its real and one for its imaginary part.  It keeps the terms before the
first one smaller than 2^-60 of the leading term at the x of beta = 10,
the largest x it is evaluated at: 20 or 21 of the 40 allowed for the
unit phases, 11 for the log-weighted one.  The remainder after m terms
is bounded by the magnitude of term m for both series (the Taylor
remainder of (1 + i s)^c, c < 0, and of log(3 + i s) under the Laplace
integral), so a cut tail is within 2^-60 of its leading term, below
1.6e-20 absolute for beta > 10 and well under one rounding of the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from math import gamma as gamma_fn

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import cube
from .budget import check_budget
from .constants import EULER_GAMMA, TWO_PI
from .errors import AccuracyError, DomainError
from .threads import ordered_map

# Crossover between panel quadrature and the asymptotic contour path.
_ASYM_BETA = 10.0
_ASYM_TERMS = 40
# An asymptotic tail keeps its terms down to this fraction of its first.
_TAIL_CUT = 2.0**-60
# Nodes per block of the density sweep.
_BLOCK = 1 << 15
# Phase entries per chunk of the small-beta unit-phase quadrature.
_PHASE_CHUNK = 1 << 22
# 8-node panels per block of a reference quadrature: 2^20 nodes.
_RULE_PANELS = 1 << 17

# Split point for the integrable log singularity at 0.
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


# ---------------------------------------------------------------------------
# scalar reference quadratures
# ---------------------------------------------------------------------------


def _refine(edges, terms, panels: int, tol: float, failure: str) -> complex:
    """The sum of terms(nodes, weights) over the 8-point panels on edges(panels),
    doubling panels until two successive sums agree within tol; the nodes are
    formed and summed _RULE_PANELS panels at a time."""
    previous = None
    for _ in range(7):
        grid = edges(panels)
        sums = [complex(np.sum(terms(*_panel_nodes(grid[lo : lo + _RULE_PANELS + 1], 8))))
                for lo in range(0, grid.size - 1, _RULE_PANELS)]
        value = sum(sums[1:], sums[0])
        if previous is not None and abs(value - previous) < 0.5 * tol:
            return value
        previous = value
        panels *= 2
    raise AccuracyError(failure, achieved=abs(value - previous))


def phase_panels(beta: float, k: int) -> int:
    """Panels unit_power_phase_integral(beta, k) starts at: ten per oscillation, saturated."""
    return max(4, math.ceil(min(10.0 * max(1.0, k * abs(beta) / TWO_PI), np.finfo(float).max)))


def unit_power_phase_integral(beta: float, k: int, tol: float = 1e-9) -> complex:
    """int_0^1 e(beta u^k) du by adaptive panel quadrature.

    Panel count scales with the fastest local frequency k|beta| so every
    oscillation carries >= 10 nodes; panels double until two successive
    refinements agree within tol.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    beta = float(beta)
    return _refine(
        lambda n: np.linspace(0.0, 1.0, n + 1),
        lambda nodes, weights: weights * np.exp(2j * np.pi * beta * nodes**k),
        phase_panels(beta, k), tol, f"unit phase integral did not converge at beta={beta}, k={k}",
    )


def _log_panel_edges(upper: float, oscillation_panels: int) -> np.ndarray:
    graded = LOG_SPLIT * 2.0 ** np.arange(0, 40)
    graded = graded[graded < min(1.0, upper)]
    uniform = np.linspace(LOG_SPLIT, upper, oscillation_panels + 1)
    return np.unique(np.concatenate([graded, uniform, [upper]]))


def log_weighted_integral(beta: float, upper: float = 3.0, tol: float = 1e-8) -> complex:
    """int_0^upper e(-beta u) log u du.

    [0, delta] is integrated analytically through the first order in
    beta (the neglected remainder is O(beta^2 delta^3 log delta)); the
    rest uses panels graded geometrically toward the singularity and
    sized for the oscillation.
    """
    beta = float(beta)
    panels = max(8, math.ceil(10.0 * max(1.0, upper * abs(beta) / TWO_PI)))
    return complex(_log_head(beta)) + _refine(
        lambda n: _log_panel_edges(upper, n),
        lambda nodes, weights: weights * np.log(nodes) * np.exp(-2j * np.pi * beta * nodes),
        panels, tol, f"log-weighted integral did not converge at beta={beta}",
    )


def _log_head(beta):
    """int_0^LOG_SPLIT e(-beta u) log u du through the first order in beta."""
    delta = LOG_SPLIT
    return (delta * math.log(delta) - delta) - 2j * np.pi * beta * (
        delta**2 / 2.0 * math.log(delta) - delta**2 / 4.0
    )


# ---------------------------------------------------------------------------
# vectorized evaluators for the frequency sweep (beta >= 0)
# ---------------------------------------------------------------------------


def _small_panels(k: int) -> int:
    """Panels of the beta <= _ASYM_BETA quadrature of int_0^1 e(beta u^k) du."""
    return max(16, math.ceil(10.0 * max(1.0, k * _ASYM_BETA / TWO_PI)))


def _unit_batch_small(betas: np.ndarray, k: int) -> np.ndarray:
    # panels grow with k, so rows of the betas x nodes phase table are
    # taken at most _PHASE_CHUNK entries at a time
    nodes, weights = _panel_nodes(np.linspace(0.0, 1.0, _small_panels(k) + 1), 8)
    powers = nodes**k
    step = max(1, _PHASE_CHUNK // powers.size)
    out = np.empty(betas.shape, dtype=complex)
    for start in range(0, betas.size, step):
        phases = np.exp(2j * np.pi * np.multiply.outer(betas[start : start + step], powers))
        out[start : start + step] = phases @ weights
    return out


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


def _unit_batch_large(lam: np.ndarray, rotation: np.ndarray, k: int) -> np.ndarray:
    # Rotate int_0^1 t^c e(beta t) dt (c = 1/k - 1) onto the rays from 0
    # and 1: a Gamma-function boundary term plus rotation = e^(i lam)
    # times a smooth remainder expanded asymptotically in 1/lam, with
    # coefficients i^m c(c-1)...(c-m+1).
    c = 1.0 / k - 1.0
    lead = 1j * np.exp(1j * np.pi * c / 2.0) * gamma_fn(c + 1.0) * lam ** (-(c + 1.0))
    coeffs = np.cumprod(np.concatenate([[1.0], c - np.arange(_ASYM_TERMS - 1)]))
    inv = 1.0 / lam
    tail = inv * _asymptotic_tail(coeffs, inv, 1.0 / (TWO_PI * _ASYM_BETA))
    return (lead - 1j * rotation * tail) / k


def _by_regime(small: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """low where small (beta <= _ASYM_BETA) holds and high elsewhere."""
    out = np.empty(small.shape, dtype=complex)
    out[small] = low
    out[~small] = high
    return out


def _unit_phase_batches(betas: np.ndarray, ks: tuple[int, ...]) -> list[np.ndarray]:
    """unit_phase_batch for each k in ks, sharing e^(i lam) across them."""
    betas = np.asarray(betas, dtype=float)
    small = betas <= _ASYM_BETA
    lam = TWO_PI * betas[~small]
    rotation = np.exp(1j * lam)
    return [
        _by_regime(small, _unit_batch_small(betas[small], k), _unit_batch_large(lam, rotation, k))
        for k in ks
    ]


def unit_phase_batch(betas: np.ndarray, k: int) -> np.ndarray:
    """Vectorized int_0^1 e(beta u^k) du over an array of beta >= 0."""
    return _unit_phase_batches(betas, (k,))[0]


def linear_phase_batch(betas: np.ndarray, upper: float = 3.0) -> np.ndarray:
    """int_0^upper e(-beta u) du in closed form, elementwise over betas.

    (1 - e(-upper*beta)) / (2 pi i beta) away from zero; a power series
    keeps the seam |beta| < 1e-6 smooth to full precision.  A scalar
    beta gives a 0-d array.
    """
    betas = np.asarray(betas, dtype=float)
    out = np.empty(betas.shape, dtype=complex)
    tiny = np.abs(betas) < 1e-6
    if tiny.any():
        z = -2j * np.pi * upper * betas[tiny]
        total = np.ones(z.shape, dtype=complex)
        term = np.ones(z.shape, dtype=complex)
        for m in range(1, 9):
            term = term * z / (m + 1)
            total += term
        out[tiny] = upper * total
    rest = betas[~tiny]
    out[~tiny] = (1.0 - np.exp(-2j * np.pi * upper * rest)) / (2j * np.pi * rest)
    return out


def _log_batch_small(betas: np.ndarray) -> np.ndarray:
    panels = max(32, math.ceil(10.0 * max(1.0, 3.0 * _ASYM_BETA / TWO_PI)))
    nodes, weights = _panel_nodes(_log_panel_edges(3.0, panels), 8)
    weighted = np.log(nodes) * weights
    phases = np.exp(-2j * np.pi * np.multiply.outer(betas, nodes))
    return phases @ weighted + _log_head(betas)


def _log_batch_large(betas: np.ndarray) -> np.ndarray:
    # Same contour rotation for int_0^3 e(-beta u) log u du: the ray from
    # 0 integrates exactly (Frullani-type log moment), the ray from 3
    # leaves e^(-3 i lam) times an asymptotic remainder in 1/(3 lam)
    # with coefficients log 3, then -i^m (m-1)!.
    lam = TWO_PI * betas
    lead = 1j * (EULER_GAMMA + np.log(lam)) / lam - np.pi / (2.0 * lam)
    factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, _ASYM_TERMS - 1)]))
    coeffs = np.concatenate([[math.log(3.0)], -factorials])
    total = _asymptotic_tail(coeffs, 1.0 / (3.0 * lam), 1.0 / (3.0 * TWO_PI * _ASYM_BETA))
    return lead + 1j * np.exp(-3j * lam) * total / lam


def log_phase_batch(betas: np.ndarray) -> np.ndarray:
    """Vectorized int_0^3 e(-beta u) log u du over beta >= 0."""
    betas = np.asarray(betas, dtype=float)
    small = betas <= _ASYM_BETA
    return _by_regime(small, _log_batch_small(betas[small]), _log_batch_large(betas[~small]))


# ---------------------------------------------------------------------------
# density, its integral, and the volume oracle
# ---------------------------------------------------------------------------


def j_density(beta: float, k: int, which: int) -> complex:
    """Density value at one frequency via the reference quadratures."""
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    square = unit_power_phase_integral(beta, 2)
    power = unit_power_phase_integral(beta, k)
    last = log_weighted_integral(beta) if which == 2 else complex(linear_phase_batch(beta))
    return square**3 * power * last


def decay_envelope(density, betas, k: int, which: int):
    """|density| (1+beta)^(5/2+1/k), divided by log(2+beta) when which = 2:
    the density over its decay envelope, bounded in beta."""
    ratio = np.abs(density) * (1.0 + betas) ** (2.5 + 1.0 / k)
    if which == 2:
        ratio = ratio / np.log(2.0 + betas)
    return ratio


def _check_B(B: float) -> None:
    if not math.isfinite(B) or B < 1.0:
        raise DomainError(f"B must be a finite number >= 1, got {B}")


def density_profile(
    k: int, which: int, B: float, points: int
) -> list[tuple[float, complex, float]]:
    """(beta, j_density, decay_envelope) at `points` even steps over [0, B]."""
    if points < 1:
        raise DomainError(f"density profile needs points >= 1, got {points}")
    _check_B(B)
    # units: three reference quadratures per point, each counted at the
    # 8-node panels the k-th power phase starts with at beta = B
    check_budget(points * 3 * 8 * phase_panels(B, k), "density profile")
    betas = [B * i / max(1, points - 1) for i in range(points)]
    densities = [j_density(beta, k, which) for beta in betas]
    ratios = decay_envelope(np.array(densities), np.array(betas), k, which)
    return list(zip(betas, densities, ratios.tolist()))


def _block_densities(
    betas: np.ndarray, k: int, whiches: tuple[int, ...]
) -> list[np.ndarray]:
    # The core (square phase)^3 * (k-th power phase) is shared by every
    # which; each multiplies in only its own last factor.
    square, power = _unit_phase_batches(betas, (2, k))
    core = square**3 * power
    return [
        core * (log_phase_batch(betas) if which == 2 else linear_phase_batch(betas))
        for which in whiches
    ]


def j_density_batch(betas: np.ndarray, k: int, which: int) -> np.ndarray:
    """Density values on a beta >= 0 grid via the vectorized evaluators."""
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    betas = np.asarray(betas, dtype=float)
    flat = betas.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # blocks of _BLOCK nodes keep the temporaries small and in cache
    for start in range(0, flat.size, _BLOCK):
        block = flat[start : start + _BLOCK]
        out[start : start + _BLOCK] = _block_densities(block, k, (which,))[0]
    return out.reshape(betas.shape)


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
    tail = min((B * B - _PIVOT * _PIVOT) / (2.0 * _WIDTH), np.finfo(float).max)
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

    Blocks of _BLOCK nodes run through ordered_map.  Each writes its
    weighted values into one array per which, so the sums are numpy's
    pairwise sums over every node in order, as for a single batch.
    """
    panels = edges.size - 1
    step = _BLOCK // 4
    products = [np.empty(4 * panels, dtype=complex) for _ in whiches]

    def block(first: int) -> list[float]:
        nodes, weights = _panel_nodes(edges[first : first + step + 1], 4)
        peaks = []
        for which, product, values in zip(whiches, products, _block_densities(nodes, k, whiches)):
            np.multiply(values, weights, out=product[4 * first : 4 * first + nodes.size])
            if envelope:
                peaks.append(decay_envelope(values, nodes, k, which).max())
        return peaks

    peaks = ordered_map(block, range(0, panels, step))
    sums = [2.0 * float(np.sum(product).real) for product in products]
    return sums, [float(np.max(column)) for column in zip(*peaks)]


def j_values(
    k: int, B: float = 400.0, whiches: tuple[int, ...] = (1, 2)
) -> list[SingularIntegralValue]:
    """2 Re int_0^B of the density for each which, from one sweep.

    The half-resolution panels run first and are reduced to their sums,
    then the fine panels.  Each block of panels builds its own nodes and
    evaluates the phase factors common to every which once per node, so
    a sweep holds one weighted value per node and which, not the nodes.
    The quadrature error is the difference between the two panel sets;
    the tail bound integrates the largest decay_envelope on the fine
    nodes times (1+beta)^(-5/2-1/k), and log(2+beta) for which = 2, from
    B to infinity on both sides.
    """
    _check_B(B)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    for which in whiches:
        if which not in (1, 2):
            raise DomainError(f"which must be 1 or 2, got {which}")
    B = float(B)
    # 4 Gauss nodes per fine panel and per half-resolution panel
    fine_panels = _fine_panels(B)
    units = 4 * (fine_panels + (fine_panels + 1) // 2)
    check_budget(units, "singular-integral sweep")
    edges = _beta_edges(B)
    coarse_edges = _coarse_edges(edges)
    # plus, for each node at beta <= _ASYM_BETA, the 8 nodes per panel of
    # the k-th power phase's small-beta quadrature
    small = _small_nodes(edges) + _small_nodes(coarse_edges)
    check_budget(units + small * 8 * _small_panels(k), "singular-integral sweep")
    coarse, _ = _sweep(coarse_edges, k, whiches, envelope=False)
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
    """The truncated singular integral for one which; see j_values."""
    return j_values(k, B, (which,))[0]


def _square_sum_histogram(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct N = (2i+1)^2 + (2j+1)^2 + (2l+1)^2 over 0 <= i, j, l < grid,
    ascending, and the number of triples (i, j, l) giving each.

    An odd square is 8t + 1, so N = 8(t1 + t2 + t3) + 3: the triple
    counts are the cube of the indicator of the t = ((2i+1)^2 - 1)/8.
    """
    t = (2 * np.arange(grid, dtype=np.int64) + 1) ** 2 // 8
    triples = cube(np.bincount(t))
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
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    check_budget(grid**3, "volume oracle")
    N, counts = _square_sum_histogram(grid)
    s3 = N / (4.0 * grid * grid)
    powers = ((np.arange(grid) + 0.5) / grid) ** k
    cuts = np.searchsorted(s3, 3.0 - powers, side="right")
    if which == 1:
        return int(np.cumsum(counts)[cuts - 1].sum()) / grid**4
    return sum(float(counts[:m] @ np.log(s3[:m] + p)) for m, p in zip(cuts, powers)) / grid**4


def j_volume_oracle(k: int, which: int, grid: int = 128) -> float:
    """Richardson extrapolation of the midpoint volume across (g, 2g);
    the 2g grid goes first, so a budget refusal comes before any work."""
    if grid < 64:
        raise DomainError(f"grid must be >= 64 per axis, got {grid}")
    fine = volume_midpoint(k, which, 2 * grid)
    coarse = volume_midpoint(k, which, grid)
    return 2.0 * fine - coarse
