"""Layout rules for the library source."""

import ast
import sys
from pathlib import Path

import pytest

SOURCE = sorted((Path(__file__).parent.parent / "src" / "circlekit").glob("*.py"))

# numpy is the one runtime dependency in pyproject.toml; the test extras
# (mpmath, scipy, hypothesis, jsonschema) are oracles, not library code
RUNTIME = {"numpy", "circlekit"}


@pytest.mark.parametrize("path", SOURCE, ids=[p.name for p in SOURCE])
def test_lines_fit_100_columns(path):
    long = [n for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert long == [], f"{path.name}: lines {long} exceed 100 columns"


def _imported(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports anywhere in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCE, ids=[p.name for p in SOURCE])
def test_imports_only_stdlib_and_numpy(path):
    foreign = _imported(ast.parse(path.read_text())) - sys.stdlib_module_names - RUNTIME
    assert foreign == set(), f"{path.name} imports {sorted(foreign)}"


def test_import_rule_sees_foreign_modules():
    tree = ast.parse("import os, scipy.special\nfrom mpmath import mp\nfrom . import arith\n")
    assert _imported(tree) - sys.stdlib_module_names - RUNTIME == {"scipy", "mpmath"}
