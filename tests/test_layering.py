"""Layering guard: no layer imports another layer's private helpers.

A module under src/turanlab may not import a ``_``-prefixed name from
another turanlab module, and a test may not import one from
``turanlab.cli``, ``turanlab.suites``, ``turanlab.patterns`` or
``turanlab.solvers``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "turanlab"
TESTS = ROOT / "tests"


def _private_imports(source: str, modules) -> list[tuple[int, str, str]]:
    """(line, module, name) for every ``from <module> import _name`` where
    the absolute module name (relative imports resolve inside turanlab)
    satisfies modules(name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            module = "turanlab" + ("." + module if module else "")
        for alias in node.names:
            if alias.name.startswith("_") and modules(module):
                found.append((node.lineno, module, alias.name))
    return found


def _in_package(module: str) -> bool:
    return module == "turanlab" or module.startswith("turanlab.")


def _guarded_for_tests(module: str) -> bool:
    return module in ("turanlab.cli", "turanlab.suites", "turanlab.patterns", "turanlab.solvers")


def test_guard_flags_private_imports():
    source = (
        "from .patterns import _iter_kst, iter_kst\n"
        "from turanlab.cli import JobSpec, _emit\n"
        "from turanlab.suites import random_3graph as _random_3graph\n"
        "from itertools import _private\n"
        "from turanlab.solvers import _branch_and_bound\n"
        "from turanlab.hypergraph import _check_handshake\n"
    )
    assert _private_imports(source, _in_package) == [
        (1, "turanlab.patterns", "_iter_kst"),
        (2, "turanlab.cli", "_emit"),
        (5, "turanlab.solvers", "_branch_and_bound"),
        (6, "turanlab.hypergraph", "_check_handshake"),
    ]
    assert _private_imports(source, _guarded_for_tests) == [
        (1, "turanlab.patterns", "_iter_kst"),
        (2, "turanlab.cli", "_emit"),
        (5, "turanlab.solvers", "_branch_and_bound"),
    ]


def test_modules_import_no_private_names():
    bad = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := _private_imports(path.read_text(), _in_package))
    }
    assert bad == {}


def test_tests_import_no_private_guarded_names():
    bad = {
        path.name: hits
        for path in sorted(TESTS.rglob("*.py"))
        if (hits := _private_imports(path.read_text(), _guarded_for_tests))
    }
    assert bad == {}
