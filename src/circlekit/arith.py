"""Exact arithmetic backbone.

Divisor-count sieve, and two independent exact evaluators for the
divisor sum over quadruples (n1, n2, n3, n4) with n1, n2, n3 up to
r = sqrt(x) and n4 up to P = x^(1/k):

    S = sum d(n1^2 + n2^2 + n3^2 + n4^k)

The divisor table is the sieve's int32 array d, d[n] = d(n), sieved in
value windows by the command that reads it; every reader checks its
coverage by require_table.

One evaluator sums over n4 first, then enumerates each unordered square
triple once, weighted by its orderings.  The other cubes the square
indicator, an int8 array, into the k-independent three-square counts r3
and pairs r3 with the divisor table shifted by each n4^k.  The cube runs
by guarded float FFTs split by the parity of the three roots, one piece
per class of r3's index mod 4, each at the least 2^a * 3^b * 5^c
covering its 3r^2/4 + 1 coefficients.  When a piece's guard trips, the
cube falls back to indicator_power(indicator, 3), about 3r^3 shifted
integer adds: the one exact convolution, which transform="ntt" always
runs and which also serves the oracle and Hua's moments.  Every
route holds r3 in int32: two roots fix the third, so an entry is at
most r^2 < 2^31 wherever the sieve cap admits the table.  The
evaluators must agree to the last digit.  The sieve windows, the
parity pieces, the direct rows and the window segments run on every CPU
through threads.ordered_map.

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

# Entries of the divisor table per sieve window: 8 MiB of int32.
_SIEVE_WINDOW = 1 << 21

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
    smaller factor i <= floor(sqrt(n)), so the square i*i gets 1 and
    every larger multiple i*j (j > i) gets 2.  So d(n) <= 2 sqrt(n), and
    every entry is below 2 sqrt(MAX_SIEVE) < 2^15.  The table is filled
    in place, in windows of _SIEVE_WINDOW entries handed out through
    threads.ordered_map; the window [lo, hi) makes one strided numpy add
    per i <= sqrt(hi - 1).  That is about sqrt(N) Python iterations per
    window and sum_{i<=sqrt N} (N/i - i + 1) ~ N(ln(N)/2 + gamma - 1/2)
    strided int32 increments in all.
    """
    if limit < 1:
        raise SizeError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_SIEVE:
        raise SizeError(f"sieve limit {limit} exceeds memory cap {MAX_SIEVE}")
    check_budget(limit, "divisor_sieve")
    d = np.zeros(limit + 1, dtype=np.int32)
    starts = range(0, limit + 1, _SIEVE_WINDOW)
    threads.ordered_map(lambda lo: _sieve_window(d[lo : lo + _SIEVE_WINDOW], lo), starts)
    return d


def _sieve_window(window: np.ndarray, lo: int) -> None:
    """Add to window, the table's entries lo, lo + 1, ..., the pair
    sieve's increments that fall on them."""
    i = np.arange(1, math.isqrt(lo + len(window) - 1) + 1)
    squares = i * i
    window[squares[squares >= lo] - lo] += 1
    # each i's first multiple i*j >= lo with j > i
    first = np.maximum(squares + i, -(-lo // i) * i) - lo
    for step, start in zip(i.tolist(), first.tolist()):
        window[start::step] += 2


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


def _gathered_sum(d: np.ndarray, values: np.ndarray, shift: int) -> int:
    """sum of d[v + shift] over v in values, 2^18 values at a time."""
    total = 0
    for lo in range(0, len(values), 2**18):
        total += int(d.take(values[lo : lo + 2**18] + shift).sum(dtype=np.int64))
    return total


def exact_S_direct(inst: ProblemInstance, table: np.ndarray) -> int:
    """Exact quadruple-sum value by enumerating square triples after the n4 sum.

    w[m] = sum over n4 of d(m + n4^k), 0 <= m <= 3r^2, takes one int32 add
    of a table slice per n4; its entries are below P * 2 sqrt(MAX_SIEVE)
    < 2^24 wherever the sieve cap admits the table (d(n) <= 2 sqrt(n) and
    P <= 368 there).  The summand is symmetric in (n1, n2, n3), so only
    n1 <= n2 <= n3 is visited, each weighted by its number of orderings:
    1 for n1 = n2 = n3 and, for n1 = a, 3 for n2 = a < n3, 6 for
    a < n2 < n3 and 3 for a < n2 = n3.  The pairs n2 < n3 come from one
    upper triangle ordered by n2, so those with n2 >= a are a suffix.
    Each piece is gathered from w, one read per triple, and summed in
    int64 into a Python int, exact in any order, so the rows n1 = a, whose
    cost falls with a, run through threads.ordered_map.  The triples are
    enumerated, not counted by a histogram or transform, so the route
    stays independent of exact_S_convolution; the budget still counts
    every ordered tuple, r^3 P.
    """
    check_budget(inst.tuple_count, "exact_S_direct")
    d = require_table(inst.max_value, table)
    r, p_lim = inst.square_limit, inst.power_limit
    sq = np.arange(1, r + 1, dtype=np.int64) ** 2
    w = np.zeros(3 * r * r + 1, dtype=np.int32)
    for n4 in range(1, p_lim + 1):
        w += d[n4**inst.k :][: len(w)]
    n2, n3 = np.triu_indices(r, 1)
    pairs = sq[n2] + sq[n3]
    # pairs[start[a]:] are the pairs whose smaller index is >= a
    start = np.searchsorted(n2, np.arange(r + 1))

    def row(a: int) -> int:
        ties = _gathered_sum(w, pairs[start[a] : start[a + 1]], sq[a])
        ties += _gathered_sum(w, 2 * sq[a + 1 :], sq[a])
        return 3 * ties + 6 * _gathered_sum(w, pairs[start[a + 1] :], sq[a])

    return _gathered_sum(w, 3 * sq, 0) + sum(threads.ordered_map(row, range(r)))


def build_histograms(inst: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
    """The square indicator, int8 of length r^2 + 1 (entry s is 1 when s = n^2
    with 1 <= n <= r), and the powers n4^k for 1 <= n4 <= P."""
    r, p_lim = inst.square_limit, inst.power_limit
    check_budget(r * r + 1 + p_lim, "build_histograms")
    indicator = np.zeros(r * r + 1, dtype=np.int8)
    indicator[np.arange(1, r + 1, dtype=np.int64) ** 2] = 1
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


def _rounded(coeffs: np.ndarray, out: np.ndarray) -> None:
    """Write the integers nearest to coeffs into out, or raise
    PrecisionError when one is at distance >= 0.25; _parity_cube then
    falls back to indicator_power.  The distances overwrite coeffs, so
    no float temporary is made."""
    np.rint(coeffs, out=out, casting="unsafe")
    coeffs -= out
    dist = float(np.abs(coeffs, out=coeffs).max())
    if dist >= 0.25:
        raise PrecisionError(f"float transform rounding distance {dist:.3f} >= 0.25")


def _parity_cube(indicator: np.ndarray) -> np.ndarray:
    """The exact int32 cube of the square indicator, split by the parity of
    the three roots, or indicator_power(indicator, 3) when a guard trips.

    An even root 2j gives 4 j^2 and an odd root 2j + 1 gives
    4 j(j + 1) + 1, so e = indicator[0::4] marks the j^2 and
    o = indicator[1::4] the j(j + 1).  A triple with c odd roots sums to
    c mod 4, so r3[c::4] is in turn e^3, 3 e^2 o, 3 e o^2 and o^3: two
    forward transforms and four inverses at the 5-smooth length covering
    3 len(e) - 2, about 3/4 of one unsplit float cube's transform work.
    Both are mapped through threads.ordered_map, and each inverse is
    rounded by _rounded straight into the strided view r3[c::4].
    """
    parts = indicator[0::4], indicator[1::4]
    n = _fft_length(3 * len(parts[0]) - 2)
    spectra = threads.ordered_map(lambda part: np.fft.rfft(part.astype(np.float64), n), parts)
    r3 = np.empty(3 * len(indicator) - 2, dtype=np.int32)

    def piece(c: int) -> None:
        # the orderings of 3 - c even roots and c odd ones: 1, 3, 3, 1
        first, second, third = [spectra[0]] * (3 - c) + [spectra[1]] * c
        spectrum = first * second
        spectrum *= third
        if 0 < c < 3:
            spectrum *= 3
        view = r3[c::4]
        coeffs = np.fft.irfft(spectrum, n)[: len(view)]
        del spectrum
        _rounded(coeffs, view)

    try:
        threads.ordered_map(piece, range(4))
    except PrecisionError:
        return indicator_power(indicator, 3)
    return r3


def indicator_power(indicator: np.ndarray, t: int) -> np.ndarray:
    """The exact t-th power of a 0/1 indicator: t - 1 rounds, each the sum
    of one shifted copy of the running power per entry 1.

    Each coefficient counts ordered t-tuples of the n ones, so it is at
    most n^(t-1): the power is int32 below 2^31, int64 below 2^63 and
    Python ints (an object array) beyond, the width its adds ran in.
    """
    ones = np.flatnonzero(indicator).tolist()
    # n^(t-1) >= 2^((t-1)(bits-1)): a large t passes int64 before n^(t-1) is formed
    bound = 2**63 if (t - 1) * (len(ones).bit_length() - 1) >= 63 else len(ones) ** (t - 1)
    dtype = np.int32 if bound < 2**31 else np.int64 if bound < 2**63 else object
    power = indicator.astype(dtype)
    for _ in range(t - 1):
        out = np.zeros(len(power) + len(indicator) - 1, dtype=dtype)
        for i in ones:
            out[i : i + len(power)] += power
        power = out
    return power


def exact_S_convolution(inst: ProblemInstance, table: np.ndarray, transform: str = "auto") -> int:
    """Exact quadruple-sum value: S = <r3, W> with W[m] = sum over n4 of
    d(m + n4^k), where r3, the cube of the square indicator, counts the
    ordered (n1, n2, n3) with n1^2 + n2^2 + n3^2 = m.  "auto" cubes by
    _parity_cube, "ntt" exactly by indicator_power; any other transform
    is a DomainError.  W and the dot are built in segments of _SEGMENT
    entries through threads.ordered_map: each sums one table slice per
    n4 into a cache-resident int32 buffer and returns its int64 dot as
    a Python int, exact in any order.  The buffer holds at most
    P * 2 sqrt(MAX_SIEVE) < 2^24 wherever the sieve cap admits the
    table, since d(n) <= 2 sqrt(n) and P <= 368 there, so a dot, at most
    that times the r^3 < 2^39 triples r3 sums to (3 r^2 <= MAX_SIEVE),
    stays in int64.  The last slice ends at most at max_value.
    """
    if transform not in ("auto", "ntt"):
        raise DomainError(f"unknown transform {transform!r}")
    d = require_table(inst.max_value, table)
    indicator, powers = build_histograms(inst)
    r3 = _parity_cube(indicator) if transform == "auto" else indicator_power(indicator, 3)
    shifts = powers.tolist()

    def segment(lo: int) -> int:
        hi = min(lo + _SEGMENT, len(r3))
        window = np.zeros(hi - lo, dtype=np.int32)
        for s in shifts:
            window += d[s + lo : s + hi]
        return int(np.dot(window.astype(np.int64), r3[lo:hi]))

    return sum(threads.ordered_map(segment, range(0, len(r3), _SEGMENT)))
