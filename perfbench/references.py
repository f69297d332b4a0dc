"""Committed reference values for the correctness gate.

Exact values that are too slow to recompute on every run are pinned
here.  Each was computed by a route independent of the code path the
benchmark times:

* S_3(10^6) by the exact number-theoretic transform
  (exact_S_convolution(..., transform="ntt")); `verify` times the
  float-FFT path.
* hua counts by a pure-Python count of pair sums in arbitrary-precision
  integers; `hua_count` sorts an int64 array.

Regenerate with `PYTHONPATH=src python3 perfbench/references.py` from
the repository root.
"""

from __future__ import annotations

from collections import Counter

# (x, k) -> S_k(x)
EXACT_S = {
    (10**6, 3): 1439237378546,
}

# (Y, k, j) -> number of solutions of m1^k + m2^k = n1^k + n2^k in [1, Y]
HUA_COUNTS = {
    (100, 3, 2): 20260,
    (5000, 3, 2): 50123248,
}


def hua_pair_count(Y: int, k: int) -> int:
    """The j = 2 moment count: sum over s of r(s)^2, r(s) = #{(m1, m2): m1^k + m2^k = s}."""
    powers = [m**k for m in range(1, Y + 1)]
    counts = Counter(a + b for a in powers for b in powers)
    return sum(c * c for c in counts.values())


def main() -> None:
    from circlekit import ProblemInstance, divisor_sieve, exact_S_convolution

    for x, k in EXACT_S:
        inst = ProblemInstance(x=x, k=k)
        value = exact_S_convolution(inst, divisor_sieve(inst.max_value), transform="ntt")
        print(f"    ({x}, {k}): {value},")
    for Y, k, j in HUA_COUNTS:
        print(f"    ({Y}, {k}, {j}): {hua_pair_count(Y, k)},")


if __name__ == "__main__":
    main()
