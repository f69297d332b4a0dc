"""Work-unit budgeting.

A "work unit" is one inner-loop visit (a tuple enumerated, a table cell
written, a pair hashed).  The cap comes from the CIRCLEKIT_BUDGET
environment variable; operations that would exceed it refuse up front
with the required amount instead of grinding away.  An unset or empty
variable means DEFAULT_BUDGET; anything that is not a finite number is a
DomainError.
"""

import math
import os

from .errors import BudgetError, DomainError

DEFAULT_BUDGET = 2_000_000_000

# Most pair sums hua_count's j = 2 count visits, whatever the work budget.
# It sorts them a value bucket at a time, so this caps its run time (about
# 20 times Y = 5000's), not the size of an array.
MAX_SORT = 250_000_000


def work_budget() -> int:
    raw = os.environ.get("CIRCLEKIT_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"CIRCLEKIT_BUDGET must be a finite number, got {raw!r}")
    return max(1, int(value))


def check_budget(required: int, label: str = "") -> None:
    budget = work_budget()
    if required > budget:
        raise BudgetError(required, budget, label)
