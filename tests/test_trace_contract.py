"""The library surface that the benchmark's `--trace 1` mode relies on.

perfbench/spans.py looks up each LAYERS function with a bare getattr on
its circlekit module and rebinds it wherever a circlekit module holds
it, so removing or renaming one of them breaks traced runs.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import math  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import circlekit.cli  # noqa: E402,F401  (binds the layer functions the commands call)
import spans  # noqa: E402
from circlekit import threads  # noqa: E402
from circlekit.arith import ProblemInstance, divisor_sieve  # noqa: E402
from circlekit.circle import ArcParameters  # noqa: E402
from circlekit.expsums import complete_power_sum, power_sum_spectrum  # noqa: E402
from circlekit.integrals import (  # noqa: E402
    log_phase_batch,
    log_weighted_integral,
    unit_phase_batch,
    unit_power_phase_integral,
)


def test_every_traced_layer_is_a_library_function():
    missing = [
        f"{module}.{name}"
        for module, name in spans.LAYERS
        if not callable(getattr(importlib.import_module(f"circlekit.{module}"), name, None))
    ]
    assert missing == []


def test_tracer_uninstall_restores_every_binding():
    modules = {
        name: module
        for name, module in sys.modules.items()
        if name == "circlekit" or name.startswith("circlekit.")
    }
    before = {name: dict(vars(module)) for name, module in modules.items()}
    sieve = circlekit.arith.divisor_sieve
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert circlekit.arith.divisor_sieve is not sieve
        assert circlekit.cli.divisor_sieve is not sieve
    finally:
        tracer.uninstall()
    for name, module in modules.items():
        now = vars(module)
        assert now.keys() == before[name].keys(), name
        changed = [attr for attr, value in before[name].items() if now[attr] is not value]
        assert changed == [], name


def test_threaded_exact_routes_record_only_their_own_spans(monkeypatch):
    # helper threads call no wrapped layer, so the single span stack holds:
    # each route's one span, and the convolution's histogram child opened
    # on the calling thread
    monkeypatch.setattr(threads, "WORKERS", 2)
    inst = ProblemInstance(x=5000, k=3)
    table = divisor_sieve(inst.max_value)
    tracer = spans.Tracer()
    tracer.install()
    try:
        circlekit.arith.exact_S_direct(inst, table)
        direct = list(tracer.spans)
        tracer.spans.clear()
        circlekit.arith.exact_S_convolution(inst, table, "ntt")
        convolution = list(tracer.spans)
    finally:
        tracer.uninstall()
    assert [(span.name, span.parent) for span in direct] == [("arith.exact_S_direct", -1)]
    assert [(span.name, span.parent) for span in convolution] == [
        ("arith.exact_S_convolution.ntt", -1),
        ("arith.build_histograms", 0),
    ]


# x = 500, k = 3: r = 22 squares, P = 7 powers, values up to 3 * 22^2 + 7^3
SMALL = ProblemInstance(x=500, k=3)
# sieved outside the tracer, as every command passes its own table
SMALL_TABLE = divisor_sieve(SMALL.max_value)

# one call per LAYERS function on small arguments, with the span name and
# units spans gives it
LAYER_CALLS = {
    ("arith", "divisor_sieve"): ((100,), "arith.divisor_sieve", 100),
    ("arith", "build_histograms"): ((SMALL,), "arith.build_histograms", 22 * (22 + 7)),
    # the power of two covering 4x + 2 = 2002
    ("arith", "exact_S_convolution"): ((SMALL, SMALL_TABLE, "ntt"),
                                       "arith.exact_S_convolution.ntt", 2048),
    ("arith", "exact_S_direct"): ((SMALL, SMALL_TABLE), "arith.exact_S_direct", 22**3 * 7),
    ("series", "sigma_truncated"): ((5, 3), "series.sigma_truncated", 5),
    ("series", "local_density"): ((7, 3), "series.local_density", 7),
    # B = 5: 71 fine and 36 coarse panels of 4 nodes
    ("integrals", "j_value"): ((3, 1, 5.0), "integrals.j_value", 428),
    ("integrals", "j_density_batch"): ((np.array([0.0, 1.0, 2.0]), 3, 1),
                                       "integrals.j_density_batch", 3),
    ("integrals", "volume_midpoint"): ((3, 1, 64), "integrals.volume_midpoint", 64**4),
    ("integrals", "unit_power_phase_integral"): ((1.5, 3),
                                                 "integrals.unit_power_phase_integral", 1),
    ("integrals", "log_weighted_integral"): ((1.5,), "integrals.log_weighted_integral", 1),
    ("circle", "classify_arc"): ((0.3, ArcParameters.default(10**4, 3)),
                                 "circle.classify_arc", 1),
    ("circle", "dirichlet_approx"): ((0.3, 100.0), "circle.dirichlet_approx", 1),
    ("circle", "hua_count"): ((10, 3, 2), "circle.hua_count", 100),
    ("expsums", "weyl_sum"): ((0.3, 1000, 3), "expsums.weyl_sum", 10),
    ("expsums", "complete_power_sum"): ((7, 2, 3), "expsums.complete_power_sum", 7),
    ("exponents", "derive_delta"): ((3,), "exponents.derive_delta", 1),
}


def test_every_traced_layer_has_a_call():
    assert sorted(LAYER_CALLS) == sorted(spans.LAYERS)


@pytest.mark.parametrize("layer", list(LAYER_CALLS), ids=[".".join(key) for key in LAYER_CALLS])
def test_traced_call_records_its_span_and_units(layer):
    # the units rule binds the function's own parameter names, so a rename
    # breaks the traced call here
    args, name, units = LAYER_CALLS[layer]
    tracer = spans.Tracer()
    tracer.install()
    try:
        getattr(importlib.import_module(f"circlekit.{layer[0]}"), layer[1])(*args)
    finally:
        tracer.uninstall()
    assert [(span.name, span.units) for span in tracer.spans if span.parent == -1] == [
        (name, units)
    ]


BETAS = [0.0, 0.3, 9.99, 10.0, 10.01, 123.4, 2000.0]


def test_one_value_forms_read_the_batch_evaluators():
    # bitwise the batch at |beta|, conjugated for beta < 0, and the
    # spectrum's entry a mod q
    for beta in BETAS + [-b for b in BETAS[1:]]:
        def batch(evaluate):
            value = complex(evaluate(np.array([abs(beta)]))[0])
            return value.conjugate() if beta < 0 else value

        for k in (1, 2, 3, 8):
            assert unit_power_phase_integral(beta, k) == batch(lambda b: unit_phase_batch(b, k))
        assert log_weighted_integral(beta) == batch(log_phase_batch)
        assert log_weighted_integral(beta, 4.0) == batch(lambda b: log_phase_batch(b, 4.0))
    for q in (1, 2, 12, 37, 4096, 4999):
        for k in (1, 2, 3, 8):
            spectrum = power_sum_spectrum(q, k)
            for a in (1, q - 1, -1, q * 10**20 + 1):
                if math.gcd(a, q) == 1:
                    assert complete_power_sum(q, a, k) == spectrum[a % q], (q, a, k)
