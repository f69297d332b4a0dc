"""Exact-rational error-exponent bookkeeping.

Every major-arc and minor-arc error term has size x^e(theta) with
e(theta) = x_exp + theta_coeff * theta, where Q = x^theta is the
major-arc modulus cutoff and tau has been substituted by x/Q.  The
arbitrarily small epsilon exponents are dropped (set to zero), so the
achieved saving below the main-term exponent 3/2 + 1/k must come out
strictly positive.

The minimax over theta in (0, theta_max] runs in Fraction arithmetic:
the upper envelope of finitely many affine functions attains its
minimum at a pairwise crossing or at the right endpoint, so evaluating
that candidate set is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


@dataclass(frozen=True)
class ExponentTerm:
    """One error term x^(x_exp) * Q^(theta_coeff) with Q = x^theta."""

    x_exp: Fraction
    theta_coeff: Fraction
    label: str

    def exponent(self, theta: Fraction) -> Fraction:
        return self.x_exp + self.theta_coeff * theta


def major_arc_terms(k: int) -> list[ExponentTerm]:
    """The six distinct major-arc error exponents after tau = x/Q.

    The series-tail term appears twice before deduplication (once from
    the truncation, once from the arc-spacing term Q tau^(3/2+1/k)).
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    half = Fraction(1, 2)
    inv_k = Fraction(1, k)
    return [
        ExponentTerm(Fraction(3, 2) + inv_k, -half - inv_k, "major:series-tail"),
        ExponentTerm(inv_k, Fraction(5, 2) - inv_k, "major:power-sum-error"),
        ExponentTerm(half + inv_k, 2 - inv_k, "major:tau-cross"),
        ExponentTerm(Fraction(5, 6) + inv_k, Fraction(7, 6) - inv_k, "major:cube-root"),
        ExponentTerm(half, Fraction(5, 2), "major:divisor-tau"),
        ExponentTerm(Fraction(5, 6), Fraction(5, 3), "major:divisor-cube-root"),
    ]


def minor_arc_terms(k: int) -> list[ExponentTerm]:
    """Minor-arc exponents: one Weyl term for 3<=k<=5, two-term bounds above."""
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if k <= 5:
        return [
            ExponentTerm(Fraction(7, 4) + Fraction(1, 2 * k), Fraction(-1), "minor:weyl")
        ]
    if k == 6:
        return [
            ExponentTerm(Fraction(5, 3), Fraction(-17, 32), "minor:weyl-q"),
            ExponentTerm(Fraction(319, 192), Fraction(-1, 2), "minor:weyl-x"),
        ]
    if k == 7:
        return [
            ExponentTerm(Fraction(23, 14), Fraction(-33, 64), "minor:weyl-q"),
            ExponentTerm(Fraction(735, 448), Fraction(-1, 2), "minor:weyl-x"),
        ]
    base = Fraction(3, 2) + Fraction(1, k)
    return [
        ExponentTerm(base, Fraction(-(k * k - k + 1), 2 * k * (k - 1)), "minor:smooth-q"),
        ExponentTerm(base - Fraction(1, 2 * k * k * (k - 1)), Fraction(-1, 2), "minor:smooth-x"),
    ]


@dataclass(frozen=True)
class DeltaResult:
    """Optimal cutoff exponent and the achieved error saving delta."""

    k: int
    theta_star: Fraction
    worst_exp: Fraction
    delta: Fraction
    binding_terms: tuple[str, ...]


def balance(
    terms: list[ExponentTerm], theta_max: Fraction
) -> tuple[Fraction, Fraction, tuple[str, ...]]:
    """Exact minimax of the affine envelope over theta in (0, theta_max].

    Candidates are theta_max and every pairwise crossing inside the
    interval; ties break toward smaller theta.  Returns (theta_star,
    min-max exponent, labels of the binding terms).
    """
    if not terms:
        raise DomainError("term list must be nonempty")
    theta_max = Fraction(theta_max)
    if theta_max <= 0:
        raise DomainError(f"theta_max must be positive, got {theta_max}")
    candidates = {theta_max}
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            a, b = terms[i], terms[j]
            if a.theta_coeff == b.theta_coeff:
                continue
            crossing = (b.x_exp - a.x_exp) / (a.theta_coeff - b.theta_coeff)
            if 0 < crossing <= theta_max:
                candidates.add(crossing)
    best_theta = None
    best_value = None
    for theta in sorted(candidates):
        value = max(term.exponent(theta) for term in terms)
        if best_value is None or value < best_value:
            best_theta, best_value = theta, value
    binding = tuple(
        sorted({t.label for t in terms if t.exponent(best_theta) == best_value})
    )
    return best_theta, best_value, binding


def derive_delta(k: int) -> DeltaResult:
    """Balance all error terms at the admissible cutoff and read off delta."""
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    terms = major_arc_terms(k) + minor_arc_terms(k)
    theta_star, worst, binding = balance(terms, Fraction(2, k + 2))
    main_exp = Fraction(3, 2) + Fraction(1, k)
    return DeltaResult(
        k=k,
        theta_star=theta_star,
        worst_exp=worst,
        delta=main_exp - worst,
        binding_terms=binding,
    )


def reference_delta(k: int) -> Fraction:
    """The published error-saving exponents (hand table for k <= 7,
    closed form 1/(k+2) + 1/(2k^2(k-1)) beyond)."""
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    table = {
        3: Fraction(19, 60),
        4: Fraction(5, 24),
        5: Fraction(19, 140),
        6: Fraction(25, 192),
        7: Fraction(457, 4032),
    }
    if k in table:
        return table[k]
    return Fraction(1, k + 2) + Fraction(1, 2 * k * k * (k - 1))
