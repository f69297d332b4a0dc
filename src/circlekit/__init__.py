"""circlekit: exact and numerical verification of a divisor-sum asymptotic
over mixed-power quadruples (three squares and one k-th power)."""

__version__ = "0.1.0"

from .arith import (
    ProblemInstance,
    divisor_sieve,
    exact_S_convolution,
    exact_S_direct,
    sum_d_squared,
)
from .circle import ArcParameters, classify_arc, dirichlet_approx, hua_count
from .exponents import DeltaResult, derive_delta, reference_delta
from .integrals import j_values, j_volume_oracle
from .series import MainTerm, sigma_truncated

__all__ = [
    "__version__",
    "ArcParameters",
    "DeltaResult",
    "MainTerm",
    "ProblemInstance",
    "classify_arc",
    "derive_delta",
    "dirichlet_approx",
    "divisor_sieve",
    "exact_S_convolution",
    "exact_S_direct",
    "hua_count",
    "j_values",
    "j_volume_oracle",
    "reference_delta",
    "sigma_truncated",
    "sum_d_squared",
]
