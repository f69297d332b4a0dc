"""Exception taxonomy.

The CLI maps these onto exit codes: usage/domain problems -> 2,
verification mismatches -> 3, budget refusals and MemoryError -> 4,
numerical integrity failures -> 5.  `verify --method both` raises
VerificationMismatch, and writes no report, when its evaluators differ.
"""


class CircleKitError(Exception):
    """Base class for all library errors."""


class DomainError(CircleKitError, ValueError):
    """Arguments outside an operation's documented domain."""


class SizeError(DomainError):
    """A table or transform size that cannot be honored."""


class BudgetError(CircleKitError):
    """Work refused because it exceeds the configured budget."""

    def __init__(self, required: int, budget: int, label: str = ""):
        self.required = int(required)
        self.budget = int(budget)
        self.label = label
        what = f" for {label}" if label else ""
        super().__init__(
            f"work budget exceeded{what}: requires {self.required} units, "
            f"budget is {self.budget} (raise CIRCLEKIT_BUDGET to allow)"
        )


class NumericalIntegrityError(CircleKitError):
    """A numerical invariant (cancellation, rounding margin) was violated."""


class PrecisionError(NumericalIntegrityError):
    """A floating transform produced coefficients too far from integers."""


class VerificationMismatch(CircleKitError):
    """Two evaluation routes that must agree exactly disagreed."""
