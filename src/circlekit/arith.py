"""Exact arithmetic backbone.

Divisor-count sieve, and two independent exact evaluators for the
divisor sum over quadruples (n1, n2, n3, n4) with n1, n2, n3 up to
r = sqrt(x) and n4 up to P = x^(1/k):

    S = sum d(n1^2 + n2^2 + n3^2 + n4^k)

The divisor table is the sieve's int32 array d, d[n] = d(n), sieved by the
command that reads it; every reader checks its coverage by require_table.

One evaluator enumerates the tuples (each unordered square triple once,
weighted by its orderings).  The other cubes the square indicator into
the k-independent three-square counts r3, by a guarded float FFT at the
least 2^a * 3^b * 5^c covering its 3r^2 + 1 coefficients or exactly by
about 3r^3 shifted integer adds, and pairs r3 with the divisor table
shifted by each n4^k.  The two must agree to the last digit.  The direct
rows and the window segments run on every CPU through
threads.ordered_map.

dyadic is the one place that splits floats into exact num/2^e for the
arc probes and Weyl batches: int64 while 2^e <= 2^62 and |num| < 2^62,
Python ints for any other finite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import threads
from .budget import check_budget
from .errors import DomainError, PrecisionError, SizeError

# Largest divisor table we are willing to allocate (entries).
MAX_SIEVE = 200_000_000

# Entries of r3 per window segment: its int32 window is 256 KiB.
_SEGMENT = 1 << 16

# The largest int64, and so the largest k: numpy takes every k-th power's
# exponent as an int64.
INT64_MAX = 2**63 - 1

# dyadic's int64 bound: every convergent p/q of num/2^e has q <= 2^e and
# |p| <= |num| + 1, so Euclid cannot wrap while both stay within 2^62.
DYADIC_BITS = 62


def check_k(k: int, least: int = 1) -> None:
    """DomainError unless least <= k <= INT64_MAX."""
    if not least <= k <= INT64_MAX:
        got = k if k < least else f"a {k.bit_length()}-bit k"
        raise DomainError(f"k must be >= {least} and below 2^63, got {got}")


def dyadic(values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Routes (index, num, den) with values[index] = num/den in lowest terms, den = 2^e.

    The first route, possibly empty, is int64 and holds every float64
    with den <= 2^DYADIC_BITS and |num| < 2^DYADIC_BITS; a second,
    present only when some value needs it, holds the rest as Python ints
    in object arrays.  DomainError for a non-finite value.
    """
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(f"{values[np.argmin(finite)]} is not a finite number")
    mantissa, exponent = np.frexp(values)
    word = exponent <= DYADIC_BITS  # |value| < 2^62
    top = np.ldexp(np.where(word, mantissa, 0.0), 53).astype(np.int64)
    # the trailing zero bits of top, from its lowest set bit (-1 at top = 0)
    zeros = np.frexp(top & -top)[1].astype(np.int64) - 1
    shift = 53 - exponent.astype(np.int64)
    e = np.where(top == 0, 0, np.maximum(shift - zeros, 0))
    num = np.where(e >= shift, top << np.maximum(e - shift, 0), top >> np.maximum(shift - e, 0))
    word &= e <= DYADIC_BITS
    fast = np.flatnonzero(word)
    routes = [(fast, num[fast], np.left_shift(1, e[fast]))]
    if fast.size < values.size:
        slow = np.flatnonzero(~word)
        ratios = [value.as_integer_ratio() for value in values[slow].tolist()]
        routes.append((slow, *(np.array(part, dtype=object) for part in zip(*ratios))))
    return routes


def integer_kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer bisection; exact at perfect powers."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def divisor_sieve(limit: int) -> np.ndarray:
    """Exact d(n) for all n <= limit, as an int32 array indexed by n whose
    entry 0 is unused and holds 0, by a sqrt(N) pair sieve.

    d(n) counts the ordered pairs (i, j) with i*j = n.  Each pair has a
    smaller factor i <= floor(sqrt(N)), so for each such i the square
    i*i gets 1 and every larger multiple i*j (j > i) gets 2, one strided
    numpy add per i.  That is floor(sqrt(N)) Python iterations and
    sum_{i<=sqrt N} (N/i - i + 1) ~ N(ln(N)/2 + gamma - 1/2) strided
    int32 increments.
    """
    if limit < 1:
        raise SizeError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_SIEVE:
        raise SizeError(f"sieve limit {limit} exceeds memory cap {MAX_SIEVE}")
    check_budget(limit, "divisor_sieve")
    d = np.zeros(limit + 1, dtype=np.int32)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i] += 1
        d[i * (i + 1) :: i] += 2
    return d


def require_table(need: int, table: np.ndarray) -> np.ndarray:
    """table, or DomainError unless it reaches d[need]."""
    if len(table) <= need:
        raise DomainError(f"divisor table covers {len(table) - 1} < required {need}")
    return table


def sum_d_squared(limit: int, table: np.ndarray) -> int:
    """Exact sum of d(n)^2 for n <= limit.

    The second moment grows like N log^3 N; callers check the fitted
    constant of that envelope.
    """
    v = require_table(limit, table)[1 : limit + 1].astype(np.int64)
    return int(np.dot(v, v))


def moment_ratio(limit: int, total: int) -> float:
    """total / (limit log^3 limit): the fitted constant of the second
    moment's envelope, or total itself when limit = 1."""
    return total / (limit * math.log(limit) ** 3) if limit > 1 else float(total)


@dataclass(frozen=True)
class ProblemInstance:
    """Size parameter x and mixed-power exponent k (k >= 3)."""

    x: int
    k: int

    def __post_init__(self):
        check_k(self.k, 3)
        if self.x < 1:
            raise DomainError(f"x must be >= 1, got {self.x}")

    @property
    def square_limit(self) -> int:
        return math.isqrt(self.x)

    @property
    def power_limit(self) -> int:
        return integer_kth_root(self.x, self.k)

    @property
    def max_value(self) -> int:
        r, p = self.square_limit, self.power_limit
        return 3 * r * r + p**self.k

    @property
    def tuple_count(self) -> int:
        return self.square_limit**3 * self.power_limit


def _gathered_sum(d: np.ndarray, values: np.ndarray, shifts: np.ndarray, step: int) -> int:
    """sum of d[v + s] over v in values and s in shifts, `step` values at a time."""
    total = 0
    for lo in range(0, len(values), step):
        total += int(d.take(values[None, lo : lo + step] + shifts).sum(dtype=np.int64))
    return total


def exact_S_direct(inst: ProblemInstance, table: np.ndarray) -> int:
    """Exact quadruple-sum value by enumerating square triples and every n4.

    The summand is symmetric in (n1, n2, n3), so only n1 <= n2 <= n3 is
    visited, each triple weighted by its number of orderings: 1 for
    n1 = n2 = n3 and, for n1 = a, 3 for n2 = a < n3, 6 for a < n2 < n3 and
    3 for a < n2 = n3.  The pairs n2 < n3 come from one upper triangle
    ordered by n2, so those with n2 >= a are a suffix.  Each piece is
    gathered from the divisor table for all n4 at once, about 2^18 entries
    per gather, and summed in int64 into a Python int, exact in any order,
    so the rows n1 = a, whose cost falls with a, run through
    threads.ordered_map, each taken by the next free thread.  No
    histogram or transform is used, so the route stays independent of
    exact_S_convolution; the budget still counts every ordered tuple.
    """
    check_budget(inst.tuple_count, "exact_S_direct")
    d = require_table(inst.max_value, table)
    r, p_lim = inst.square_limit, inst.power_limit
    sq = np.arange(1, r + 1, dtype=np.int64) ** 2
    powers = np.arange(1, p_lim + 1, dtype=np.int64)[:, None] ** inst.k
    n2, n3 = np.triu_indices(r, 1)
    pairs = sq[n2] + sq[n3]
    # pairs[start[a]:] are the pairs whose smaller index is >= a
    start = np.searchsorted(n2, np.arange(r + 1))
    step = max(1, 2**18 // p_lim)

    def row(a: int) -> int:
        shifts = powers + sq[a]
        ties = _gathered_sum(d, pairs[start[a] : start[a + 1]], shifts, step)
        ties += _gathered_sum(d, 2 * sq[a + 1 :], shifts, step)
        return 3 * ties + 6 * _gathered_sum(d, pairs[start[a + 1] :], shifts, step)

    return _gathered_sum(d, 3 * sq, powers, step) + sum(threads.ordered_map(row, range(r)))


def build_histograms(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """The square indicator, of length r^2 + 1 (entry s is 1 when s = n^2
    with 1 <= n <= r), and the powers n4^k for 1 <= n4 <= P."""
    r, p_lim = inst.square_limit, inst.power_limit
    check_budget(r * r + 1 + p_lim, "build_histograms")
    indicator = np.bincount(np.arange(1, r + 1, dtype=np.int64) ** 2)
    return indicator, np.arange(1, p_lim + 1, dtype=np.int64) ** inst.k


def _fft_length(n: int) -> int:
    """The least 2^a * 3^b * 5^c >= n (n >= 1), where pocketfft runs fastest."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least odd * 2^a >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _fft_cube_checked(a: np.ndarray) -> np.ndarray:
    """Float a*a*a with a rounding-margin guard, at the 5-smooth length
    _fft_length covering the 3 len(a) - 2 coefficients.

    Any coefficient at distance >= 0.25 from the nearest integer raises
    PrecisionError; callers then fall back to the exact cube.
    The spectrum is cubed through one temporary and the distances
    overwrite the float output, so the peak is about 2 n doubles.
    """
    out_len = 3 * len(a) - 2
    n = _fft_length(out_len)
    spectrum = np.fft.rfft(a.astype(np.float64), n)
    spectrum *= spectrum * spectrum
    coeffs = np.fft.irfft(spectrum, n)[:out_len]
    del spectrum
    rounded = np.rint(coeffs)
    coeffs -= rounded
    dist = float(np.abs(coeffs, out=coeffs).max())
    del coeffs
    if dist >= 0.25:
        raise PrecisionError(f"float transform rounding distance {dist:.3f} >= 0.25")
    return rounded.astype(np.int64)


def _exact_cube(a: np.ndarray) -> np.ndarray:
    """Exact a*a*a for a >= 0 in int64: a*a, then (a*a)*a, each the sum of
    one shifted copy per nonzero entry of a.

    Every coefficient, partial sum and scaled copy is at most
    max(a) * sum(a)^2, so the adds run in int32 below 2^31 and in int64
    below 2^63; a larger bound raises SizeError before any allocation.
    """
    top = int(a.max())
    # top^3 <= bound; below 2^21 the int64 sum of an array in memory cannot wrap
    bound = top**3 if top >= 2**21 else top * int(a.sum()) ** 2
    if bound >= 2**63:
        raise SizeError(f"cube coefficients may reach {bound}, beyond int64")
    dtype = np.int32 if bound < 2**31 else np.int64
    support = np.flatnonzero(a)
    terms = list(zip(support.tolist(), a[support].tolist()))

    def times_a(b: np.ndarray) -> np.ndarray:
        out = np.zeros(len(b) + len(a) - 1, dtype=dtype)
        for i, v in terms:
            out[i : i + len(b)] += b if v == 1 else v * b
        return out

    return times_a(times_a(a.astype(dtype))).astype(np.int64)


def cube(a: np.ndarray, transform: str = "auto") -> np.ndarray:
    """The exact a*a*a of a >= 0 in int64: "auto" tries the checked float
    FFT and falls back to _exact_cube, which "ntt" forces.  "ntt" names
    the exact route for the callers and benchmark metrics that pass it;
    no number-theoretic transform is left."""
    if transform == "auto":
        try:
            return _fft_cube_checked(a)
        except PrecisionError:
            pass
    elif transform != "ntt":
        raise DomainError(f"unknown transform {transform!r}")
    return _exact_cube(a)


def exact_S_convolution(inst: ProblemInstance, table: np.ndarray, transform: str = "auto") -> int:
    """Exact quadruple-sum value: S = <r3, W> with W[m] = sum over n4 of
    d(m + n4^k), where r3 = cube(square indicator) counts the ordered
    (n1, n2, n3) with n1^2 + n2^2 + n3^2 = m.  W and the dot are built in
    segments of _SEGMENT entries through threads.ordered_map: each sums
    one table slice per n4 into a cache-resident int32 buffer, below
    P * max d < 2^20 wherever the sieve cap admits the table, and returns
    its int64 dot as a Python int, exact in any order.  The last slice
    ends at most at max_value.
    """
    d = require_table(inst.max_value, table)
    indicator, powers = build_histograms(inst)
    r3 = cube(indicator, transform)
    shifts = powers.tolist()

    def segment(lo: int) -> int:
        hi = min(lo + _SEGMENT, len(r3))
        window = np.zeros(hi - lo, dtype=np.int32)
        for s in shifts:
            window += d[s + lo : s + hi]
        return int(np.dot(window.astype(np.int64), r3[lo:hi]))

    return sum(threads.ordered_map(segment, range(0, len(r3), _SEGMENT)))
