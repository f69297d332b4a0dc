"""Layout rules for the library source."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = sorted((ROOT / "src" / "circlekit").glob("*.py"))

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


def test_cli_imports_no_numpy():
    # the CLI formats what the library computes; array code stays in the library
    cli = ROOT / "src" / "circlekit" / "cli.py"
    assert "numpy" not in _imported(ast.parse(cli.read_text()))


def test_import_rule_sees_foreign_modules():
    tree = ast.parse("import os, scipy.special\nfrom mpmath import mp\nfrom . import arith\n")
    assert _imported(tree) - sys.stdlib_module_names - RUNTIME == {"scipy", "mpmath"}


# numpy's BLAS-backed products; np.dot stays allowed, since arith calls it
# only on int64 arrays, which numpy sums in its own integer loop, not BLAS
BLAS_PRODUCTS = {"matmul", "vdot", "inner", "tensordot", "einsum"}


def _calls(tree: ast.AST, names: set[str]) -> list[int]:
    """Lines of the calls in tree to a function or attribute named in names."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                lines.append(node.lineno)
    return sorted(lines)


def _blas_products(tree: ast.AST) -> list[int]:
    """Lines of the @ products and the BLAS_PRODUCTS calls in tree."""
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    return sorted(lines + _calls(tree, BLAS_PRODUCTS))


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


@pytest.mark.parametrize("path", SOURCE, ids=[p.name for p in SOURCE])
def test_no_convolve(path):
    # arith.indicator_power is the one exact convolution; a second would
    # duplicate it
    lines = _calls(ast.parse(path.read_text()), {"convolve"})
    assert lines == [], f"{path.name}: convolve calls on lines {lines}"


def test_convolve_rule_sees_calls():
    tree = ast.parse("a = np.convolve(b, c)\nd = numpy.convolve(b, c)\nfrom numpy import convolve\n"
                     "e = convolve(b, c)\nf = _ntt_convolve(b, c)\ng = indicator_power(b, 3)\n")
    assert _calls(tree, {"convolve"}) == [1, 2, 4]


def _defined(tree: ast.Module) -> set[str]:
    """The public top-level functions and classes of a module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("_")
    }


def _referenced(tree: ast.Module) -> set[str]:
    """The names, attributes and imports each top-level statement of a module
    reads, less the name the statement itself defines."""
    names = set()
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
        names |= found - {getattr(statement, "name", None)}
    return names


def test_every_public_definition_is_used_or_traced():
    # the benchmark's tracer wraps spans.LAYERS, which no module need call
    sys.path.insert(0, str(ROOT / "perfbench"))
    import spans

    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCE}
    referenced = set().union(*map(_referenced, trees.values()))
    unused = [
        f"{module}.{name}" for module, tree in trees.items()
        for name in sorted(_defined(tree) - referenced)
        if (module, name) not in spans.LAYERS
    ]
    assert unused == []


def test_reference_rule_sees_unused_definitions():
    tree = ast.parse("def used(): pass\ndef alone(n): return alone(n - 1)\nclass Kept: pass\n"
                     "def _private(): pass\nx = used()\ny: Kept\n")
    assert _defined(tree) - _referenced(tree) == {"alone"}


# what the convolution route is built from: the direct route names none of
# it, so the paper's two exact routes stay independent
CONVOLUTION_ROUTE = {"indicator_power", "_parity_cube", "build_histograms",
                     "exact_S_convolution", "bincount", "fft"}


def test_direct_route_names_no_convolution_code():
    tree = ast.parse((ROOT / "src" / "circlekit" / "arith.py").read_text())
    direct = next(node for node in tree.body if getattr(node, "name", None) == "exact_S_direct")
    assert _referenced(ast.Module([direct], [])) & CONVOLUTION_ROUTE == set()


def test_direct_route_rule_sees_names():
    tree = ast.parse("def f(a):\n    h = np.bincount(a)\n    s = np.fft.rfft(_parity_cube(h))\n"
                     "    g = arith.exact_S_convolution\n    return indicator_power(h, 3) + a.take(s)\n")
    assert _referenced(tree) & CONVOLUTION_ROUTE == {
        "bincount", "fft", "_parity_cube", "exact_S_convolution", "indicator_power"
    }


def _mapping_functions(tree: ast.Module) -> set[str]:
    """The top-level functions of a module that call ordered_map, in their
    own body or in a function nested in it."""
    def calls_map(node: ast.AST) -> bool:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "ordered_map":
                    return True
        return False

    return {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and calls_map(node)
    }


def test_every_ordered_map_user_is_listed_in_threads():
    # threads' "Users:" paragraph is the audit list for the rule that
    # mapped work calls no function the benchmark's tracer wraps
    threads = ROOT / "src" / "circlekit" / "threads.py"
    doc = ast.get_docstring(ast.parse(threads.read_text()))
    users = next(part for part in doc.split("\n\n") if part.startswith("Users:"))
    listed = set(re.findall(r"\w+\.\w+", users))
    unlisted = [
        f"{path.stem}.{name}" for path in SOURCE if path != threads
        for name in sorted(_mapping_functions(ast.parse(path.read_text())))
        if f"{path.stem}.{name}" not in listed
    ]
    assert unlisted == []


def test_map_rule_sees_users():
    tree = ast.parse("def a(): return threads.ordered_map(f, x)\n"
                     "def b():\n    def inner(y): return ordered_map(f, y)\n    return inner(1)\n"
                     "def c(): return map(f, x)\n")
    assert _mapping_functions(tree) == {"a", "b"}


# arith.check_k owns the k rule, least <= k < 2^63; integer_kth_root keeps
# its own k >= 1, since it runs on Python ints at any k, k + 2 included
K_RULE_OWNERS = frozenset({"check_k", "integer_kth_root"})


def _is_k(node: ast.AST) -> bool:
    """Whether node is k, ell, some .k or a ks[...]."""
    if isinstance(node, ast.Subscript):
        return getattr(node.value, "id", None) == "ks"
    return getattr(node, "id", None) in ("k", "ell") or getattr(node, "attr", None) == "k"


def _compares_k(test: ast.AST) -> bool:
    """Whether test compares a k with an int constant."""
    sides = [test.left, *test.comparators] if isinstance(test, ast.Compare) else []
    return any(map(_is_k, sides)) and any(
        isinstance(side, ast.Constant) and type(side.value) is int for side in sides
    )


def _k_rule_copies(tree: ast.AST, owners: frozenset[str] = frozenset()) -> list[int]:
    """Lines of the ifs in tree, outside the functions named in owners, that
    compare a k with an int constant and raise."""
    owned = {
        id(node) for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in owners for node in ast.walk(func)
    }
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.If) and id(node) not in owned
        and any(map(_compares_k, ast.walk(node.test)))
        and any(isinstance(inner, ast.Raise) for part in node.body for inner in ast.walk(part))
    )


@pytest.mark.parametrize("path", SOURCE, ids=[p.name for p in SOURCE])
def test_k_rule_has_one_owner(path):
    owners = K_RULE_OWNERS if path.stem == "arith" else frozenset()
    lines = _k_rule_copies(ast.parse(path.read_text()), owners)
    assert lines == [], f"{path.name}: k tests on lines {lines}; call arith.check_k"


def test_k_rule_sees_copies():
    tree = ast.parse(
        "def f(k, ks, p, ell):\n"
        "    if k < 3:\n        raise DomainError(k)\n"
        "    if Y < 1 or p.k < 1:\n        raise DomainError(Y)\n"
        "    if ks[0] <= 2:\n        raise DomainError(ks)\n"
        "    if 1 > ell:\n        raise ValueError(ell)\n"
        "    if k <= 5:\n        return 1\n"
        "    if (Y.bit_length() - 1) * k >= 63:\n        raise SizeError(k)\n"
        "    if q < 1:\n        raise DomainError(q)\n"
        "def check_k(k):\n    if k < 1:\n        raise DomainError(k)\n"
    )
    assert _k_rule_copies(tree, {"check_k"}) == [2, 4, 6, 8]
    assert _k_rule_copies(tree) == [2, 4, 6, 8, 17]
