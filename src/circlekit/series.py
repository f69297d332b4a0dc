"""Singular series: local densities and their truncated sums.

The local density at modulus q is

    A_k(q) = q^(-5) sum_{a coprime to q} S_2(q, a)^3 S_k(q, a),

real by conjugate pairing, multiplicative in q, and bounded by
q^(-3/2-1/k) up to a constant.  The two truncated sums kept here are
sigma1 = sum A_k(q) and sigma2 = sum (-2 log q + 2 gamma) A_k(q).

A_k comes from the residue spectrum, which the truncated sums evaluate
at prime powers only and extend multiplicatively; the direct sum over
residues it is tested against lives with the tests.  The spectrum path
takes S_2 and S_k from expsums.power_sum_spectrum, whose residue powers
are whole-array int64 arithmetic (so it refuses q > 2^31), and keeps
the a coprime to q with expsums.coprime_mask.  With the singular
integrals J1, J2 they assemble the main term (MainTerm).

sigma_truncated evaluates the spectrum at every prime power q <= Q
through threads.ordered_map, on every CPU, since each is independent
numpy work; the multiplicative fill then runs in ascending q as a
serial loop would.  The workers call the private _spectrum_density,
not local_density: the benchmark's tracer wraps local_density and
keeps one span stack for all threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .budget import check_budget
from .errors import DomainError, NumericalIntegrityError
from .expsums import coprime_mask, power_sum_spectrum
from .threads import ordered_map

IMAG_TOL = 1e-9


def _real_part(value: complex, q: int) -> float:
    if abs(value.imag) >= IMAG_TOL:
        raise NumericalIntegrityError(
            f"local density at q={q} has imaginary part {value.imag:.3e} "
            f">= {IMAG_TOL:.0e}; conjugate cancellation failed"
        )
    return value.real


def local_density(q: int, k: int) -> float:
    """A_k(q) via the vectorized residue spectrum.  No command calls it:
    it stays only because perfbench/spans.py names it."""
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    return _spectrum_density(q, k)


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
    """Refuse a truncated series before any work: Q or k below 1, or Q
    past the budget."""
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    # at most the residues of every modulus q <= Q are visited
    check_budget(Q * (Q + 1) // 2, "singular series")


def sigma_truncated(Q: int, k: int) -> SingularSeriesPartial:
    """Partial sums of the singular series over q <= Q.

    A_k comes from the residue spectrum at prime powers, all of them
    first and in parallel; any other q is A(q / p^e) A(p^e) with p^e
    the part of q's largest prime, so the prime-power factors multiply
    in ascending prime order.
    """
    check_series(Q, k)
    # part[q] = p^e dividing q exactly, p its largest prime: p is still 0
    # when reached, and each power's multiples are overwritten in turn
    part = np.zeros(Q + 1, dtype=np.int64)
    for p in range(2, Q + 1):
        if part[p]:
            continue
        pe = p
        while pe <= Q:
            part[pe::pe] = pe
            pe *= p
    parts = part.tolist()
    powers = [q for q in range(2, Q + 1) if parts[q] == q]
    local = dict(zip(powers, ordered_map(lambda q: _spectrum_density(q, k), powers)))
    density = [0.0, 1.0]
    for q, pe in enumerate(parts[2:], 2):
        density.append(local[q] if pe == q else density[q // pe] * density[pe])
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
