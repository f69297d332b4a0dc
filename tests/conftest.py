import numpy as np
import pytest


@pytest.fixture
def no_array_allocation(monkeypatch):
    """Make numpy's array constructors fail the test, so that a refusal
    which must come before any allocation cannot start a huge one."""

    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated before the refusal")

    for name in ("arange", "array", "empty", "fromiter", "ones", "zeros"):
        monkeypatch.setattr(np, name, refuse)
