"""Package imports stay at module top, so an import cycle between the
library modules fails at import time instead of hiding in a function;
zero finding keeps its single bisection loop; and every public function
and class is listed in its module's ``__all__``, the names that the
benchmark's layer tracer wraps."""

import ast
import importlib
from pathlib import Path

import pytest

import harmonic_range

SOURCES = sorted(Path(harmonic_range.__file__).parent.glob("*.py"))


def _function_level_package_imports(tree: ast.AST) -> list[int]:
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0
                    or (node.module or "").split(".")[0] == "harmonic_range"):
                lines.append(node.lineno)
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "harmonic_range" for a in node.names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_package_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _function_level_package_imports(tree) == []


def test_the_check_sees_a_deferred_relative_import():
    tree = ast.parse("def f():\n    from . import zeros as zeros_mod\n")
    assert _function_level_package_imports(tree) == [2]


def _bisection_loops(tree: ast.AST) -> int:
    """Number of `for ... in range(BISECT_HALVINGS)` loops."""
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.For)
               and isinstance(node.iter, ast.Call)
               and isinstance(node.iter.func, ast.Name)
               and node.iter.func.id == "range"
               and any(isinstance(arg, ast.Name) and arg.id == "BISECT_HALVINGS"
                       for arg in node.iter.args))


def test_one_bisection_loop_and_no_curve_tracing_in_lewis():
    loops = sum(_bisection_loops(ast.parse(p.read_text())) for p in SOURCES)
    assert loops == 1
    lewis = next(p for p in SOURCES if p.name == "lewis.py")
    assert "trace_zero_set" not in lewis.read_text()


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_definitions_are_exported(path):
    name = "harmonic_range" if path.stem == "__init__" else f"harmonic_range.{path.stem}"
    exported = set(importlib.import_module(name).__all__)
    public = _public_definitions(ast.parse(path.read_text()))
    assert [n for n in public if n not in exported] == []
