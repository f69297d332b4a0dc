"""Reference routes for the two densities, one frequency or modulus at a time.

j_density builds the singular-integral density from the adaptive
quadratures, and local_density_direct sums A_k(q) over the residues
with one complete power sum each.  Tests require the library's
vectorized evaluators to agree with them.
"""

import math

from circlekit.expsums import complete_power_sum
from circlekit.integrals import (
    linear_phase_batch,
    log_weighted_integral,
    unit_power_phase_integral,
)
from circlekit.series import _real_part


def j_density(beta, k, which):
    """Density value at one frequency via the reference quadratures."""
    square = unit_power_phase_integral(beta, 2)
    power = unit_power_phase_integral(beta, k)
    last = log_weighted_integral(beta) if which == 2 else complex(linear_phase_batch(beta))
    return square**3 * power * last


def local_density_direct(q, k):
    """A_k(q) by direct summation over residues."""
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += complete_power_sum(q, a, 2) ** 3 * complete_power_sum(q, a, k)
    return _real_part(total / q**5, q)
