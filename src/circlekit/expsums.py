"""Complete and incomplete exponential sums.

power_sum_spectrum gives S_k(q, a) = sum_{r=1..q} e(a r^k / q) for every
a from one FFT of the histogram of r^k mod q, formed for all r by
square-and-multiply on int64 arrays, exact for q <= 2^31 and refused
beyond it; complete_power_sum reads one a from it.  weyl_sum
evaluates sum_{n <= x^(1/l)} e(alpha n^l) with the phase alpha*n^l
reduced mod 1 in exact integer arithmetic (a float's value is a dyadic
rational num/2^e), keeping per-term phase error at the ulp level
regardless of how large n^l gets.  For e <= 64, which every
|alpha| >= 2^-12 satisfies, the reduction runs in wrapping uint64
arithmetic; smaller alpha falls back to Python integers.
divisor_exp_sum evaluates sum_{n <= 4x} d(n) e(n (a/q + beta)) with n a
reduced mod q in integers, in blocks of a bounded number of terms.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import check_k, integer_kth_root, require_table
from .errors import DomainError

_WORD = 2**64

# Terms per block of the divisor exponential sum.
_TERMS = 1 << 16
# Terms per block of a Weyl sum; any m up to it sums as one numpy array.
_WEYL_TERMS = 1 << 20


def _check_modulus(q: int, k: int) -> None:
    if q < 1 or k < 1 or q > 2**31:
        raise DomainError(f"need 1 <= q <= 2^31 and k >= 1, got q={q}, k={k}")


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
    """sum_{1 <= n <= x^(1/ell)} e(alpha n^ell) with exact phase reduction,
    _WEYL_TERMS terms at a time.

    alpha = num/2^e exactly.  The phase (num n^ell mod 2^e)/2^e is the
    same float from uint64 arithmetic (e <= 64) as from Python integers.
    """
    check_k(ell)
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    m = integer_kth_root(x, ell)
    num, den = float(alpha).as_integer_ratio()
    sums = []
    for lo in range(1, m + 1, _WEYL_TERMS):
        hi = min(lo + _WEYL_TERMS, m + 1)
        if den > _WORD:
            phases = np.fromiter(
                (((num * pow(n, ell, den)) % den) / den for n in range(lo, hi)),
                dtype=np.float64,
                count=hi - lo,
            )
        else:
            # den = 2^e divides 2^64, so wrapping uint64 products keep every
            # residue mod den; dividing by a power of two is exact.
            # numpy's integer power squares and multiplies, wrapping alike
            n = np.arange(lo, hi, dtype=np.uint64)
            residues = n ** np.uint64(ell) * np.uint64(num % _WORD) & np.uint64(den - 1)
            phases = residues.astype(np.float64) / float(den)
        sums.append(complex(np.exp(2j * np.pi * phases).sum()))
    return sum(sums[1:], sums[0])


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
