"""Spans recorded from outside circlekit.

A Tracer replaces public circlekit functions with wrappers at every
module attribute that holds them, so each call records a span (name,
start, end, parent, work units) no matter which module looked the
function up.  Spans stay in memory; the benchmark aggregates them into
per-layer metrics after the run.

Work units follow the arithmetic the library's own `check_budget`
calls use, so units_per_s compares the same nominal work across
commits even when an implementation changes how much it really does.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass

from circlekit.arith import integer_kth_root


def _conv_length(a) -> int:
    # transform length of exact_S_convolution: the power of two covering
    # 4x+2 and the full linear convolution of the two histograms
    inst = a["inst"]
    n = max(4 * inst.x + 2, inst.max_value + 1)
    return 1 << (n - 1).bit_length()


def _beta_points(a) -> int:
    # nodes j_value evaluates at the seed's panel schedule: 4-point
    # panels of width 1/10 up to 2pi/3, then width 2pi/(30 beta); the
    # fine and the half-resolution coarse grid
    pivot, c, B = 2.0 * math.pi / 3.0, 2.0 * math.pi / 30.0, float(a["B"])
    if B <= pivot:
        fine = math.ceil(B / 0.1)
    else:
        fine = math.ceil(pivot / 0.1) + math.ceil((B * B - pivot * pivot) / (2.0 * c))
    return 4 * (fine + (fine + 1) // 2)


def _hua_units(a) -> int:
    Y, j = a["Y"], a["j"]
    if j <= 1:
        return Y
    if j == 2:
        return Y * Y
    t = 2 ** (j - 1)
    return (t * Y ** a["k"] + 1) * (t - 1)


def _histogram_cells(a) -> int:
    inst = a["inst"]
    return inst.square_limit * (inst.square_limit + inst.power_limit)


def _calls(a) -> int:
    return 1


# (defining module, function) -> (span-name suffix from bound args, units)
LAYERS = {
    ("arith", "divisor_sieve"): (None, lambda a: a["limit"]),
    ("arith", "build_histograms"): (None, _histogram_cells),
    ("arith", "exact_S_convolution"): (lambda a: a["transform"], _conv_length),
    ("arith", "exact_S_direct"): (None, lambda a: a["inst"].tuple_count),
    ("series", "sigma_truncated"): (None, lambda a: a["Q"]),
    ("series", "local_density"): (None, lambda a: a["q"]),
    ("integrals", "j_value"): (None, _beta_points),
    ("integrals", "j_density_batch"): (None, lambda a: len(a["betas"])),
    ("integrals", "volume_midpoint"): (None, lambda a: a["grid"] ** 4),
    ("integrals", "unit_power_phase_integral"): (None, _calls),
    ("integrals", "log_weighted_integral"): (None, _calls),
    ("circle", "classify_arc"): (None, _calls),
    ("circle", "dirichlet_approx"): (None, _calls),
    ("circle", "hua_count"): (None, _hua_units),
    ("expsums", "weyl_sum"): (None, lambda a: integer_kth_root(a["x"], a["ell"])),
    ("expsums", "complete_power_sum"): (None, lambda a: a["q"]),
    ("exponents", "derive_delta"): (None, _calls),
}

# Span names reported for every workload, so each run prints the same
# metric set; "cli.main" is opened by the benchmark around each CLI call
# and its units are report bytes.
SPAN_NAMES = [
    f"{mod}.{fn}" for (mod, fn) in LAYERS if fn != "exact_S_convolution"
] + ["arith.exact_S_convolution.auto", "arith.exact_S_convolution.ntt", "cli.main"]

CLI_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    units: int


class Tracer:
    """Records nested spans; `install` wraps the circlekit layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, units: int = 1) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, units))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, sid: int, units: int | None = None) -> None:
        self.spans[sid].end = time.perf_counter()
        if units is not None:
            self.spans[sid].units = units
        self._stack.pop()

    def _wrap(self, name: str, fn, suffix, units):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if units is _calls:  # skip binding, the costliest step of a wrapper
                label, count = name, 1
            else:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                label = f"{name}.{suffix(bound.arguments)}" if suffix else name
                count = units(bound.arguments)
            sid = self.begin(label, count)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function wherever a circlekit module binds it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "circlekit" or name.startswith("circlekit.")
        ]
        for (mod_name, fn_name), (suffix, units) in LAYERS.items():
            original = getattr(sys.modules[f"circlekit.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, suffix, units)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, [])
            if min(e, span.end) > max(s, span.start)
        ]
        out.append((span.end - span.start) - _union_length(clipped))
    return out


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass calls, self time, units and units per second for SPAN_NAMES.

    units_per_s divides by the calls' whole duration (children
    included), the rate a caller of the function sees.
    """
    selfs = self_times(spans)
    acc = {name: [0, 0.0, 0, 0.0] for name in SPAN_NAMES}
    for span, own in zip(spans, selfs):
        row = acc.get(span.name)
        if row is None:
            continue
        row[0] += 1
        row[1] += own
        row[2] += span.units
        row[3] += span.end - span.start
    metrics = {}
    for name, (calls, self_s, units, total_s) in acc.items():
        metrics[f"{name}.calls"] = calls / passes
        metrics[f"{name}.self_s"] = self_s / passes
        metrics[f"{name}.units"] = units / passes
        metrics[f"{name}.units_per_s"] = units / total_s if total_s > 0 else 0.0
    return metrics


def coverage(spans: list[Span], wall_s: float, below_cli: bool = False) -> float:
    """Share of wall_s inside named layer spans, or only those below the CLI."""
    named = [(s.start, s.end) for s in spans if not (below_cli and s.name == CLI_SPAN)]
    return _union_length(named) / wall_s if wall_s > 0 else 0.0
