"""Reference routes for the two densities, one frequency or modulus at a time.

whole_array_unit_phase and whole_array_log_phase are adaptive panel
Gauss-Legendre quadratures of the phase integrals, at least ten nodes
per oscillation, doubled until two refinements agree; j_density builds
the singular-integral density from them.  local_density_direct sums
A_k(q) over the residues with one generator-form complete power sum
each.  Tests require the library's vectorized evaluators to agree with
them.
"""

import math

import numpy as np

from circlekit import integrals
from circlekit.integrals import linear_phase_batch
from circlekit.series import _real_part
from power_residue_reference import complete_power_sum_reference


def whole_array_refine(rule, panels, tol):
    # every node of a refinement formed and summed as one array
    previous = None
    for _ in range(7):
        value = rule(panels)
        if previous is not None and abs(value - previous) < 0.5 * tol:
            return value
        previous = value
        panels *= 2
    raise AssertionError("no convergence")


def whole_array_unit_phase(beta, k):
    """int_0^1 e(beta u^k) du, any beta."""
    def rule(panels):
        nodes, weights = integrals._panel_nodes(np.linspace(0.0, 1.0, panels + 1), 8)
        return complex(np.sum(weights * np.exp(2j * np.pi * beta * nodes**k)))

    panels = max(4, math.ceil(10.0 * max(1.0, k * abs(beta) / (2 * math.pi))))
    return whole_array_refine(rule, panels, 1e-9)


def _log_edges(upper, panels):
    # one graded edge an octave from LOG_SPLIT below 1, and `panels` uniform panels
    graded = integrals.LOG_SPLIT * 2.0 ** np.arange(0, 40)
    uniform = np.linspace(integrals.LOG_SPLIT, upper, panels + 1)
    return np.unique(np.concatenate([graded[graded < min(1.0, upper)], uniform, [upper]]))


def _log_head(beta):
    # int_0^d e(-beta u) log u du through (beta d)^3, d = LOG_SPLIT: the
    # Taylor terms (-2 pi i beta)^n / n! times int_0^d u^n log u du =
    # d^(n+1) (log d / (n+1) - 1 / (n+1)^2)
    d = integrals.LOG_SPLIT
    return sum((-2j * math.pi * beta) ** n / math.factorial(n)
               * d ** (n + 1) * (math.log(d) / (n + 1) - 1.0 / (n + 1) ** 2) for n in range(4))


def whole_array_log_phase(beta, upper=3.0):
    """int_0^upper e(-beta u) log u du, any beta: the head [0, LOG_SPLIT]
    through the third order in beta, then panels graded toward 0."""
    def rule(panels):
        nodes, weights = integrals._panel_nodes(_log_edges(upper, panels), 8)
        return complex(np.sum(weights * np.log(nodes) * np.exp(-2j * np.pi * beta * nodes)))

    panels = max(8, math.ceil(10.0 * max(1.0, upper * abs(beta) / (2 * math.pi))))
    return _log_head(beta) + whole_array_refine(rule, panels, 1e-8)


def j_density(beta, k, which):
    """Density value at one frequency via the reference quadratures."""
    square = whole_array_unit_phase(beta, 2)
    power = whole_array_unit_phase(beta, k)
    last = whole_array_log_phase(beta) if which == 2 else complex(linear_phase_batch(beta))
    return square**3 * power * last


def local_density_direct(q, k):
    """A_k(q) by direct summation over residues."""
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            square = complete_power_sum_reference(q, a, 2)
            total += square**3 * complete_power_sum_reference(q, a, k)
    return _real_part(total / q**5, q)
