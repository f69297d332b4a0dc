"""Complete and incomplete exponential sums.

power_sum_spectrum gives S_k(q, a) = sum_{r=1..q} e(a r^k / q) for every
a from one FFT of the histogram of r^k mod q, formed for all r by
square-and-multiply on int64 arrays, exact for q <= 2^31 and refused
beyond it; complete_power_sum reads one a from it.  weyl_batch
evaluates sum_{n <= x^(1/l)} e(alpha n^l) at many alpha with the phase
alpha*n^l reduced mod 1 in exact integer arithmetic (a float's value is
a dyadic rational num/2^e), keeping per-term phase error at the ulp
level regardless of how large n^l gets.  arith.dyadic gives each alpha
its route.  On the int64 route (2^e <= 2^62) the sums are the rows of a
samples x terms phase table in wrapping uint64 arithmetic under the
mask 2^e - 1, formed in chunks of at most _WEYL_TABLE = 2^16 entries
(one row when a row's block is longer); a row on the Python-int route
forms its phases on Python integers.  weyl_sum is weyl_batch at one
alpha, with the same bits.
divisor_exp_sum evaluates sum_{n <= 4x} d(n) e(n (a/q + beta)) with n a
reduced mod q in integers, in blocks of a bounded number of terms.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import check_k, dyadic, integer_kth_root, require_table
from .errors import DomainError

# Terms per block of the divisor exponential sum.
_TERMS = 1 << 16
# Terms per block of a Weyl sum; any m up to it sums as one numpy array.
_WEYL_TERMS = 1 << 20
# Entries per chunk of a Weyl batch's phase table, about 48 bytes each while
# the chunk is live.
_WEYL_TABLE = 1 << 16


def _check_modulus(q: int, k: int) -> None:
    check_k(k)
    if not 1 <= q <= 2**31:
        raise DomainError(f"need 1 <= q <= 2^31, got q={q}")


def _power_residues(q: int, k: int) -> np.ndarray:
    """r^k mod q for r = 1..q by left-to-right square-and-multiply.

    The accumulator starts at r for k's leading bit.  Both factors of
    every product are below q <= 2^31, so it stays below 2^62 in int64.
    """
    base = np.arange(1, q + 1, dtype=np.int64) % q
    power = base
    for bit in bin(k)[3:]:
        power = power * power % q
        if bit == "1":
            power = power * base % q
    return power


def coprime_mask(q: int) -> np.ndarray:
    """gcd(a, q) == 1 for a = 0..q-1: the multiples of every divisor
    f > 1 of q struck out, f and q/f found by trial division to sqrt(q)."""
    mask = np.ones(q, dtype=bool)
    mask[0] = q == 1
    for f in range(2, math.isqrt(q) + 1):
        if q % f == 0:
            mask[::f] = mask[:: q // f] = False
    return mask


def complete_power_sum(q: int, a: int, k: int) -> complex:
    """S_k(q, a), gcd(a, q) = 1, from power_sum_spectrum.  No command
    calls it: it stays only because perfbench/spans.py names it."""
    if math.gcd(a, q) != 1:
        raise DomainError(f"gcd(a, q) must be 1, got gcd({a}, {q})")
    return complex(power_sum_spectrum(q, k)[a % q])


def power_sum_spectrum(q: int, k: int) -> np.ndarray:
    """S_k(q, a) for every residue a = 0..q-1 at once.

    The histogram of r^k mod q is Fourier-transformed; entry a of the
    conjugated DFT is exactly sum_r e(a r^k / q).
    """
    _check_modulus(q, k)
    counts = np.bincount(_power_residues(q, k), minlength=q).astype(np.float64)
    return np.conj(np.fft.fft(counts))


def weyl_sum(alpha: float, x: int, ell: int) -> complex:
    """sum_{1 <= n <= x^(1/ell)} e(alpha n^ell): weyl_batch at one alpha."""
    return complex(weyl_batch(np.array([float(alpha)]), x, ell)[0])


def weyl_batch(alphas: np.ndarray, x: int, ell: int) -> np.ndarray:
    """weyl_sum at every alpha, as a row of a samples x terms phase table.

    alpha = num/den exactly, on its dyadic route.  The phase
    (num n^ell mod den)/den is the same float from uint64 arithmetic
    (the row masked by den - 1) as from the Python integers of the other
    route.  The terms come in blocks of _WEYL_TERMS and the int64 route's
    rows in chunks of at most _WEYL_TABLE entries, or one row where a
    block is longer; each row's block is one pairwise numpy sum, and the
    blocks add in order.
    """
    check_k(ell)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    m = integer_kth_root(x, ell)
    alphas = np.asarray(alphas, dtype=np.float64)
    (fast, num, den), *wide = dyadic(alphas)
    nums, masks, dens = num.astype(np.uint64), (den - 1).astype(np.uint64), den.astype(np.float64)
    total = None
    for lo in range(1, m + 1, _WEYL_TERMS):
        hi = min(lo + _WEYL_TERMS, m + 1)
        # numpy's integer power squares and multiplies, wrapping mod 2^64
        # like the products; den = 2^e divides 2^64, so every residue mod
        # den survives, and dividing by a power of two is exact
        powers = np.arange(lo, hi, dtype=np.uint64) ** np.uint64(ell)
        step = max(1, _WEYL_TABLE // (hi - lo))
        sums = np.empty(alphas.size, dtype=complex)
        for start in range(0, fast.size, step):
            rows = slice(start, start + step)
            residues = powers * nums[rows, None] & masks[rows, None]
            phases = residues.astype(np.float64) / dens[rows, None]
            sums[fast[rows]] = np.exp(2j * np.pi * phases).sum(axis=1)
        for index, wide_num, wide_den in wide:
            for row, a, d in zip(index.tolist(), wide_num.tolist(), wide_den.tolist()):
                phases = np.array([(a * pow(n, ell, d) % d) / d for n in range(lo, hi)])
                sums[row] = np.exp(2j * np.pi * phases).sum()
        total = sums if total is None else total + sums
    return total


def divisor_exp_sum(a: int, q: int, beta: float, x: int, table: np.ndarray) -> complex:
    """f(a/q + beta) = sum_{n <= 4x} d(n) e(n (a/q + beta)), _TERMS terms at a time."""
    n_max = 4 * x
    table = require_table(n_max, table)
    total = 0j
    for start in range(1, n_max + 1, _TERMS):
        n = np.arange(start, min(start + _TERMS, n_max + 1), dtype=np.int64)
        phases = ((n * a) % q) / q + n.astype(np.float64) * beta
        d = table[start : start + n.size].astype(np.float64)
        total += complex((d * np.exp(2j * np.pi * phases)).sum())
    return total
