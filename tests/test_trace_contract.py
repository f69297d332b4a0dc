"""The library surface that the benchmark's `--trace 1` mode relies on.

perfbench/spans.py looks up each LAYERS function with a bare getattr on
its circlekit module and rebinds it wherever a circlekit module holds
it, so removing or renaming one of them breaks traced runs.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import circlekit.cli  # noqa: E402,F401  (binds the layer functions the commands call)
import spans  # noqa: E402


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
