"""Layering guard: no layer imports another layer's private helpers.

A module under src/turanlab may not import a ``_``-prefixed name from
another turanlab module, and a test may not import one from
``turanlab.cli`` or ``turanlab.suites``.
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


def _cli_or_suites(module: str) -> bool:
    return module in ("turanlab.cli", "turanlab.suites")


def test_guard_flags_private_imports():
    source = (
        "from .patterns import _iter_kst, iter_kst\n"
        "from turanlab.cli import JobSpec, _emit\n"
        "from turanlab.suites import random_3graph as _random_3graph\n"
        "from itertools import _private\n"
    )
    assert _private_imports(source, _in_package) == [
        (1, "turanlab.patterns", "_iter_kst"),
        (2, "turanlab.cli", "_emit"),
    ]
    assert _private_imports(source, _cli_or_suites) == [(2, "turanlab.cli", "_emit")]


def test_modules_import_no_private_names():
    bad = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := _private_imports(path.read_text(), _in_package))
    }
    assert bad == {}


def test_tests_import_no_private_cli_or_suites_names():
    bad = {
        path.name: hits
        for path in sorted(TESTS.rglob("*.py"))
        if (hits := _private_imports(path.read_text(), _cli_or_suites))
    }
    assert bad == {}
