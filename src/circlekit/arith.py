"""Exact arithmetic backbone.

Divisor-count sieve, and two independent exact evaluators for the
divisor sum over quadruples (n1, n2, n3, n4) with n1, n2, n3 up to
sqrt(x) and n4 up to x^(1/k):

    S = sum d(n1^2 + n2^2 + n3^2 + n4^k)

One evaluator enumerates the tuples (each unordered square triple once,
weighted by its orderings); the other convolves the two
representation histograms (n1^2+n2^2 against n3^2+n4^k), by a guarded
float FFT or an NTT modulo one prime, and pairs the result with the
divisor table.  The two must agree to the last digit.

Both transforms run at the power of two covering the max_value + 1
output coefficients.  The NTT prime 5*2^25 + 1 admits up to 2^25 points,
where the coefficients stay below it (at most 2.82e7, at k = 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import check_budget
from .errors import DomainError, PrecisionError, SizeError

# Largest divisor table we are willing to allocate (entries).
MAX_SIEVE = 200_000_000

# NTT prime 5*2^25 + 1 with primitive root 3: transform lengths up to 2^25.
_NTT_PRIME = 167772161
_NTT_ROOT = 3
_NTT_MAX_LEN = 1 << 25


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


@dataclass(frozen=True)
class DivisorTable:
    """d(n) for 1 <= n <= limit; index 0 is unused and holds 0."""

    limit: int
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside table range [1, {self.limit}]")
        return int(self.values[n])


def divisor_sieve(limit: int) -> DivisorTable:
    """Exact d(n) for all n <= limit by a sqrt(N) pair sieve.

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
    return DivisorTable(limit=limit, values=d)


def sum_d_squared(limit: int, table: DivisorTable | None = None) -> int:
    """Exact sum of d(n)^2 for n <= limit.

    The second moment grows like N log^3 N; callers check the fitted
    constant of that envelope.
    """
    if table is None:
        table = divisor_sieve(limit)
    if table.limit < limit:
        raise DomainError(f"table covers {table.limit} < {limit}")
    v = table.values[1 : limit + 1].astype(np.int64)
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


def _require_table(inst: ProblemInstance, table: DivisorTable | None) -> DivisorTable:
    need = inst.max_value
    if table is None:
        return divisor_sieve(need)
    if table.limit < need:
        raise DomainError(f"divisor table covers {table.limit} < required {need}")
    return table


def _gathered_sum(d: np.ndarray, values: np.ndarray, shifts: np.ndarray, step: int) -> int:
    """sum of d[v + s] over v in values and s in shifts, `step` values at a time."""
    total = 0
    for lo in range(0, len(values), step):
        total += int(d.take(values[None, lo : lo + step] + shifts).sum(dtype=np.int64))
    return total


def exact_S_direct(inst: ProblemInstance, table: DivisorTable | None = None) -> int:
    """Exact quadruple-sum value by enumerating square triples and every n4.

    The summand is symmetric in (n1, n2, n3), so only n1 <= n2 <= n3 is
    visited, each triple weighted by its number of orderings: 1 for
    n1 = n2 = n3 and, for n1 = a, 3 for n2 = a < n3, 6 for a < n2 < n3 and
    3 for a < n2 = n3.  The pairs n2 < n3 come from one upper triangle
    ordered by n2, so those with n2 >= a are a suffix.  Each piece is
    gathered from the divisor table for all n4 at once, about 2^18 entries
    per gather, and summed in int64 into a Python int.  No histogram or
    transform is used, so the route stays independent of
    exact_S_convolution; the budget still counts every ordered tuple.
    """
    check_budget(inst.tuple_count, "exact_S_direct")
    table = _require_table(inst, table)
    r, p_lim = inst.square_limit, inst.power_limit
    d = table.values
    sq = np.arange(1, r + 1, dtype=np.int64) ** 2
    powers = np.arange(1, p_lim + 1, dtype=np.int64)[:, None] ** inst.k
    n2, n3 = np.triu_indices(r, 1)
    pairs = sq[n2] + sq[n3]
    # pairs[start[a]:] are the pairs whose smaller index is >= a
    start = np.searchsorted(n2, np.arange(r + 1))
    step = max(1, 2**18 // p_lim)
    total = _gathered_sum(d, 3 * sq, powers, step)
    for a in range(r):
        shifts = powers + sq[a]
        total += 3 * _gathered_sum(d, pairs[start[a] : start[a + 1]], shifts, step)
        total += 6 * _gathered_sum(d, pairs[start[a + 1] :], shifts, step)
        total += 3 * _gathered_sum(d, 2 * sq[a + 1 :], shifts, step)
    return total


def build_histograms(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """Exact representation counts for n1^2+n2^2 and n3^2+n4^k: entry s of
    each array counts the representations of s by that form."""
    r, p_lim = inst.square_limit, inst.power_limit
    check_budget(r * r + r * p_lim, "build_histograms")
    sq = np.arange(1, r + 1, dtype=np.int64) ** 2
    pw = np.arange(1, p_lim + 1, dtype=np.int64) ** inst.k
    pair = (sq[:, None] + sq[None, :]).ravel()
    mixed = (sq[:, None] + pw[None, :]).ravel()
    return np.bincount(pair), np.bincount(mixed)


def _fft_convolve_checked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float convolution with a rounding-margin guard.

    Any coefficient at distance >= 0.25 from the nearest integer raises
    PrecisionError; callers then fall back to the exact modular path.
    The second spectrum is multiplied into the first in place and the
    distances overwrite the float output, so the peak is the two spectra
    and a float copy of b, about 2.5 n doubles for half-length inputs.
    """
    out_len = len(a) + len(b) - 1
    n = 1 << (out_len - 1).bit_length()
    spectrum = np.fft.rfft(a.astype(np.float64), n)
    spectrum *= np.fft.rfft(b.astype(np.float64), n)
    conv = np.fft.irfft(spectrum, n)[:out_len]
    del spectrum
    rounded = np.rint(conv)
    conv -= rounded
    dist = float(np.abs(conv, out=conv).max())
    del conv
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


def _ntt(a: np.ndarray, invert: bool) -> np.ndarray:
    """Radix-2 number-theoretic transform mod p = _NTT_PRIME; returns a new array.

    The input is permuted into bit-reversed order by one gather and
    reduced mod p, then log2(n) butterfly stages run as whole-array
    numpy operations; only the twiddle product needs a % p.  Each
    stage's twiddles come from _unit_powers, so the Python-level work is
    O(log^2 n) numpy calls and no per-element loop.  Each % p runs in
    place on an array this function owns, to keep the peak memory low.
    """
    p = _NTT_PRIME
    n = len(a)
    a = a[_bit_reversal(n)]
    a %= p
    length = 2
    while length <= n:
        w = pow(_NTT_ROOT, (p - 1) // length, p)
        if invert:
            w = pow(w, p - 2, p)
        half = length // 2
        ws = _unit_powers(w, half)
        blocks = a.reshape(-1, length)
        left = blocks[:, :half]
        right = blocks[:, half:] * ws
        right %= p
        # left and right lie in [0, p), so one conditional step of p
        # reduces their sum and difference
        total = left + right
        total -= p * (total >= p)
        diff = left - right
        diff += p * (diff < 0)
        blocks[:, :half] = total
        blocks[:, half:] = diff
        length *= 2
    if invert:
        a *= pow(n, p - 2, p)
        a %= p
    return a


def _ntt_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer convolution modulo _NTT_PRIME.

    Every output coefficient is at most min(max a * sum b, max b * sum a),
    so the residues are the coefficients when that bound is below the
    prime.  A longer transform than the prime supports, or a larger
    bound, raises SizeError before anything is padded or transformed.
    """
    out_len = len(a) + len(b) - 1
    n = 1 << (out_len - 1).bit_length()
    if n > _NTT_MAX_LEN:
        raise SizeError(f"NTT length {n} for {out_len} coefficients exceeds {_NTT_MAX_LEN}")
    bound = min(int(a.max()) * int(b.sum()), int(b.max()) * int(a.sum()))
    if bound >= _NTT_PRIME:
        raise SizeError(f"NTT coefficients may reach {bound}, beyond the prime {_NTT_PRIME}")
    fa = _ntt(np.pad(a.astype(np.int64), (0, n - len(a))), False)
    fb = _ntt(np.pad(b.astype(np.int64), (0, n - len(b))), False)
    return _ntt(fa * fb % _NTT_PRIME, True)[:out_len]


def exact_S_convolution(
    inst: ProblemInstance,
    table: DivisorTable | None = None,
    transform: str = "auto",
) -> int:
    """Exact quadruple-sum value via histogram convolution.

    transform: "auto" tries the checked float FFT and falls back to the
    exact modular transform; "ntt" forces the modular transform.  The
    convolution has max_value + 1 coefficients, all covered by the table.
    """
    table = _require_table(inst, table)
    r12, r34 = build_histograms(inst)
    if transform == "ntt":
        conv = _ntt_convolve(r12, r34)
    elif transform == "auto":
        try:
            conv = _fft_convolve_checked(r12, r34)
        except PrecisionError:
            conv = _ntt_convolve(r12, r34)
    else:
        raise DomainError(f"unknown transform {transform!r}")
    d = table.values[: len(conv)].astype(np.int64)
    return int(np.dot(d, conv))
