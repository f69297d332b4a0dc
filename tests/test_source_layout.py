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


# numpy's BLAS-backed products; np.dot stays allowed, since arith calls it
# only on int64 arrays, which numpy sums in its own integer loop, not BLAS
BLAS_PRODUCTS = {"matmul", "vdot", "inner", "tensordot", "einsum"}


def _blas_products(tree: ast.AST) -> list[int]:
    """Lines of the @ products and the BLAS_PRODUCTS calls in tree."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_PRODUCTS:
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCE, ids=[p.name for p in SOURCE])
def test_no_blas_products(path):
    # a BLAS product's rounding follows its kernel, row count and thread
    # count; numpy's pairwise sums give every value the same bits anywhere
    lines = _blas_products(ast.parse(path.read_text()))
    assert lines == [], f"{path.name}: BLAS products on lines {lines}"


def test_blas_rule_sees_products():
    tree = ast.parse("c = a @ b\nc @= b\nd = np.einsum('i,i', a, b)\ne = inner(a, b)\n"
                     "f = np.dot(a, b)\ng = a * b\n")
    assert _blas_products(tree) == [1, 2, 3, 4]
