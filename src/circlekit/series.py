"""Singular series: local densities and their truncated sums.

The local density at modulus q is

    A_k(q) = q^(-5) sum_{a coprime to q} S_2(q, a)^3 S_k(q, a),

real by conjugate pairing, multiplicative in q, and bounded by
q^(-3/2-1/k) up to a constant.  The two truncated sums kept here are
sigma1 = sum A_k(q) and sigma2 = sum (-2 log q + 2 gamma) A_k(q).

At an odd prime p, A_k(p) has a closed form for every k >= 1.  For
p not dividing a, S_2(p, a) = (a/p) G with the Legendre symbol (a/p)
and the Gauss sum G, G^2 = (-1/p) p; and sum_{a=1..p-1} (a/p) e(am/p)
= (m/p) G.  So

    sum_a S_2^3 S_k = G^3 sum_r sum_a (a/p) e(a r^k / p)
                    = G^4 sum_{r=1..p-1} (r/p)^k = p^2 sum_r (r/p)^k,

which is 0 for odd k and p^2 (p - 1) for even k: A_k(p) = 0 for odd k
and (p - 1) / p^3 for even k, whether or not p divides k.  Python's
(p - 1) / p**3 is that rational correctly rounded.

Every other prime power, 2^e and p^e with e >= 2, takes A_k from the
residue spectrum: S_2 and S_k from expsums.power_sum_spectrum, whose
residue powers are whole-array int64 arithmetic (so it refuses
q > 2^31), on the a coprime to q from expsums.coprime_mask.  The tests
hold the closed form to exact solution counts mod p and the spectrum to
the direct sum over residues.  sigma_truncated takes the prime-power
terms this way, on the calling thread, and extends them
multiplicatively; local_density returns the same bits at every prime
power.  With the singular integrals J1, J2 they assemble the main term
(MainTerm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arith import check_k
from .budget import check_budget
from .errors import DomainError, NumericalIntegrityError
from .expsums import coprime_mask, power_sum_spectrum

IMAG_TOL = 1e-9


def _real_part(value: complex, q: int) -> float:
    if abs(value.imag) >= IMAG_TOL:
        raise NumericalIntegrityError(
            f"local density at q={q} has imaginary part {value.imag:.3e} "
            f">= {IMAG_TOL:.0e}; conjugate cancellation failed"
        )
    return value.real


def local_density(q: int, k: int) -> float:
    """A_k(q): the closed form at an odd prime, else the residue spectrum,
    with the bits of the series term at a prime power.  No command calls
    it: it stays only because perfbench/spans.py names it."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    # trial division stays within the spectrum's q <= 2^31, which refuses the rest
    if 2 < q <= 2**31 and all(q % f for f in range(2, math.isqrt(q) + 1)):
        return _odd_prime_density(q, k)
    return _spectrum_density(q, k)


def _odd_prime_density(p: int, k: int) -> float:
    return (p - 1) / p**3 if k % 2 == 0 else 0.0


def _spectrum_density(q: int, k: int) -> float:
    s2 = power_sum_spectrum(q, 2)
    sk = power_sum_spectrum(q, k)
    mask = coprime_mask(q)
    total = complex((s2[mask] ** 3 * sk[mask]).sum()) / q**5
    return _real_part(total, q)


def log_weight(q: int) -> float:
    """sigma2's weight -2 log q + 2 gamma at modulus q."""
    return -2.0 * math.log(q) + 2.0 * np.euler_gamma


@dataclass(frozen=True)
class SingularSeriesPartial:
    """Truncated singular series: its terms and the running sums of
    sigma1 and sigma2 over q = 1..Q, whose last entries they are."""

    k: int
    Q: int
    terms: list[tuple[int, float]]
    running1: list[float]
    running2: list[float]

    @property
    def sigma1(self) -> float:
        return self.running1[-1]

    @property
    def sigma2(self) -> float:
        return self.running2[-1]


def check_series(Q: int, k: int) -> None:
    """Refuse a truncated series before any work: Q below 1, a k that
    arith.check_k refuses, or Q past the budget."""
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    check_k(k)
    # the spectra visit under 2Q residues at the 2^e and at most 1.5Q at the
    # p^e (e >= 2) of each of the sqrt(Q)/2 odd p <= sqrt(Q); Q more for the terms
    check_budget(Q * (math.isqrt(Q) + 3), "singular series")


def sigma_truncated(Q: int, k: int) -> SingularSeriesPartial:
    """Partial sums of the singular series over q <= Q.

    A_k comes at prime powers from the closed form or the spectrum; any
    other q is A(q / p^e) A(p^e) with p^e the part of q's largest prime,
    so the prime-power factors multiply in ascending prime order.  The
    + 0.0 turns a negative factor times an exact zero into 0.0, not
    -0.0, and keeps every other bit.
    """
    check_series(Q, k)
    # part[q] = p^e dividing q exactly, p its largest prime: p is still 0
    # when reached, and each power's multiples are overwritten in turn
    part = np.zeros(Q + 1, dtype=np.int64)
    local = {}
    for p in range(2, Q + 1):
        if part[p]:
            continue
        pe = p
        while pe <= Q:
            part[pe::pe] = pe
            local[pe] = _odd_prime_density(p, k) if pe == p > 2 else _spectrum_density(pe, k)
            pe *= p
    density = [0.0, 1.0]
    for q, pe in enumerate(part.tolist()[2:], 2):
        density.append(local[q] if pe == q else density[q // pe] * density[pe] + 0.0)
    values = density[1:]
    terms = list(zip(range(1, Q + 1), values))
    return SingularSeriesPartial(
        k=k, Q=Q, terms=terms,
        running1=list(accumulate(values)),
        running2=list(accumulate(log_weight(q) * a for q, a in terms)),
    )


@dataclass(frozen=True)
class MainTerm:
    """C1 x^(3/2+1/k) log x + C2 x^(3/2+1/k), C1 = sigma1 J1 and
    C2 = sigma1 J2 + sigma2 J1, from truncated series and integrals."""

    k: int
    sigma1: float
    sigma2: float
    j1: float
    j2: float

    @property
    def C1(self) -> float:
        return self.sigma1 * self.j1

    @property
    def C2(self) -> float:
        return self.sigma1 * self.j2 + self.sigma2 * self.j1

    def scale(self, x: int) -> float:
        return float(x) ** (1.5 + 1.0 / self.k)

    def value(self, x: int) -> float:
        scale = self.scale(x)
        return self.C1 * scale * math.log(x) + self.C2 * scale
