"""Exact arithmetic backbone.

Divisor-count sieve, and two independent exact evaluators for the
divisor sum over quadruples (n1, n2, n3, n4) with n1, n2, n3 up to
r = sqrt(x) and n4 up to P = x^(1/k):

    S = sum d(n1^2 + n2^2 + n3^2 + n4^k)

The divisor table is the sieve's int32 array d, d[n] = d(n); its readers
check or build it through require_table.

One evaluator enumerates the tuples (each unordered square triple once,
weighted by its orderings).  The other cubes the square indicator, by a
guarded float FFT or an NTT modulo one prime, into the k-independent
three-square counts r3, and pairs r3 with the divisor table shifted by
each n4^k.  The two must agree to the last digit.  Both run on every
CPU: the direct rows, the NTT's slices and the window segments go
through threads.ordered_map.

The float cube runs at the least 2^a * 3^b * 5^c covering the 3r^2 + 1
coefficients of r3, the NTT at the power of two covering them.  The NTT
prime 5*2^25 + 1 admits up to 2^25 points, so x <= 11,189,024
(r <= 3344); r3 stays below r^2, far under the prime.
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

# NTT prime 5*2^25 + 1 with primitive root 3: transform lengths up to 2^25.
_NTT_PRIME = 167772161
_NTT_ROOT = 3
_NTT_MAX_LEN = 1 << 25

# Entries of r3 per window segment: its int32 window is 256 KiB.
_SEGMENT = 1 << 16


def integer_kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) by integer bisection; exact at perfect powers."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
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


def require_table(need: int, table: np.ndarray | None = None) -> np.ndarray:
    """table, or divisor_sieve(need) when None; DomainError unless it reaches d[need]."""
    if table is None:
        return divisor_sieve(need)
    if len(table) <= need:
        raise DomainError(f"divisor table covers {len(table) - 1} < required {need}")
    return table


def sum_d_squared(limit: int, table: np.ndarray | None = None) -> int:
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
        if self.k < 3:
            raise DomainError(f"k must be >= 3, got {self.k}")
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


def exact_S_direct(inst: ProblemInstance, table: np.ndarray | None = None) -> int:
    """Exact quadruple-sum value by enumerating square triples and every n4.

    The summand is symmetric in (n1, n2, n3), so only n1 <= n2 <= n3 is
    visited, each triple weighted by its number of orderings: 1 for
    n1 = n2 = n3 and, for n1 = a, 3 for n2 = a < n3, 6 for a < n2 < n3 and
    3 for a < n2 = n3.  The pairs n2 < n3 come from one upper triangle
    ordered by n2, so those with n2 >= a are a suffix.  Each piece is
    gathered from the divisor table for all n4 at once, about 2^18 entries
    per gather, and summed in int64 into a Python int, exact in any order,
    so the rows n1 = a run interleaved through threads.ordered_map.  No
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
    PrecisionError; callers then fall back to the exact modular path.
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
        raise PrecisionError(
            f"float transform rounding distance {dist:.3f} >= 0.25; "
            "exact modular transform required"
        )
    return rounded.astype(np.int64)


def _unit_powers(w: int, count: int) -> np.ndarray:
    """[w^0, w^1, ..., w^(count-1)] mod _NTT_PRIME by doubling the known prefix.

    Operands stay below the prime < 2^31, so every product fits int64 exactly.
    """
    ws = np.ones(1, dtype=np.int64)
    while len(ws) < count:
        ws = np.concatenate((ws, ws * pow(w, len(ws), _NTT_PRIME) % _NTT_PRIME))
    return ws[:count]


def _bit_reversal(n: int) -> np.ndarray:
    """Index permutation i -> bit-reverse(i) over log2(n) bits, in O(n) work:
    the reversal over one more bit is 2*rev followed by 2*rev + 1."""
    rev = np.zeros(n, dtype=np.int64)
    half = 1
    while half < n:
        rev[:half] *= 2
        np.add(rev[:half], 1, out=rev[half : 2 * half])
        half *= 2
    return rev


def _stages(a: np.ndarray, first: int, invert: bool) -> None:
    """The butterfly stages of lengths first, 2*first, ..., len(a), in place.

    Only the twiddle product is reduced mod p; lifting each difference by
    p keeps the entries nonnegative, where numpy's % runs fastest."""
    p = _NTT_PRIME
    length = first
    while length <= len(a):
        w = pow(_NTT_ROOT, (p - 1) // length, p)
        if invert:
            w = pow(w, p - 2, p)
        half = length // 2
        blocks = a.reshape(-1, length)
        left = blocks[:, :half]
        right = blocks[:, half:] * _unit_powers(w, half)
        right %= p
        diff = left - right
        diff += p
        left += right
        blocks[:, half:] = diff
        length *= 2


def _ntt(a: np.ndarray, invert: bool) -> np.ndarray:
    """Radix-2 number-theoretic transform mod p = _NTT_PRIME; returns a new array.

    The input is permuted into bit-reversed order by one gather and
    reduced mod p, then log2(n) butterfly stages run as O(log^2 n) numpy
    calls.  The first log2(n/w) stages act on w contiguous slices, w the
    power of two covering threads.WORKERS (at most n/2), through
    threads.ordered_map; the last log2(w) act on the whole array.  Lazy
    reduction keeps the entries in [0, (s+1)p) after s stages, below
    26p < 2^33 at the 2^25 cap, so each product with a twiddle or 1/n
    fits int64; one % p ends the transform.
    """
    p = _NTT_PRIME
    n = len(a)
    a = a[_bit_reversal(n)]
    a %= p
    m = n // min(1 << (threads.WORKERS - 1).bit_length(), max(1, n // 2))
    threads.ordered_map(lambda lo: _stages(a[lo : lo + m], 2, invert), range(0, n, m))
    _stages(a, 2 * m, invert)
    if invert:
        a *= pow(n, p - 2, p)
    a %= p
    return a


def _ntt_cube(a: np.ndarray) -> np.ndarray:
    """Exact a*a*a for a >= 0, modulo _NTT_PRIME.

    Every output coefficient is at most max(a) * sum(a)^2, so the
    residues are the coefficients when that bound is below the prime.
    A longer transform than the prime supports, or a larger bound,
    raises SizeError before anything is padded or transformed.
    """
    out_len = 3 * len(a) - 2
    n = 1 << (out_len - 1).bit_length()
    if n > _NTT_MAX_LEN:
        raise SizeError(f"NTT length {n} for {out_len} coefficients exceeds {_NTT_MAX_LEN}")
    bound = int(a.max()) * int(a.sum()) ** 2
    if bound >= _NTT_PRIME:
        raise SizeError(f"NTT coefficients may reach {bound}, beyond the prime {_NTT_PRIME}")
    f = _ntt(np.pad(a.astype(np.int64), (0, n - len(a))), False)
    return _ntt(f * f % _NTT_PRIME * f % _NTT_PRIME, True)[:out_len]


def cube(a: np.ndarray, transform: str = "auto") -> np.ndarray:
    """The exact a*a*a of a >= 0 in int64: "auto" tries the checked float
    FFT and falls back to the modular transform, which "ntt" forces."""
    if transform == "auto":
        try:
            return _fft_cube_checked(a)
        except PrecisionError:
            pass
    elif transform != "ntt":
        raise DomainError(f"unknown transform {transform!r}")
    return _ntt_cube(a)


def exact_S_convolution(
    inst: ProblemInstance,
    table: np.ndarray | None = None,
    transform: str = "auto",
) -> int:
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
