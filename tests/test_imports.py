"""Package imports stay at module top, so an import cycle between the
library modules fails at import time instead of hiding in a function;
zero finding keeps its single bisection loop; every public function and
class is listed in its module's ``__all__``, the names that the
benchmark's layer tracer wraps; the finite-and-positive input test is
written once, in its guard; no module imports a name it never uses,
which a deletion can leave behind; one function builds the rings of
circle samples; each expression compiles into one program; the Lewis scan
leaves the choice of its sampler to the term splitter of the expressions;
every public function and class of a layer has a caller outside the
tests, or is named in the README; and every defaulted parameter of a
layer's public functions and methods is set to another value by some
call in the library or the benchmark, or else is a module constant."""

import ast
import importlib
import inspect
import itertools
import re
from pathlib import Path

import pytest

import harmonic_range

SOURCES = sorted(Path(harmonic_range.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


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


def _is_finite_and_positive(node: ast.AST) -> bool:
    """Whether node is `isfinite(x) and x > 0`, in any order and spelling."""
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)):
        return False
    finite, positive = set(), set()
    for test in node.values:
        if (isinstance(test, ast.Call) and test.args
                and getattr(test.func, "attr", getattr(test.func, "id", None))
                == "isfinite"):
            finite.add(ast.dump(test.args[0]))
        elif isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, right = test.left, test.comparators[0]
            if isinstance(test.ops[0], ast.Lt):
                left, right = right, left
            elif not isinstance(test.ops[0], ast.Gt):
                continue
            if isinstance(right, ast.Constant) and right.value == 0:
                positive.add(ast.dump(left))
    return bool(finite & positive)


def _finite_and_positive_lines(tree: ast.AST) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree)
                  if _is_finite_and_positive(node))


def test_finite_and_positive_is_tested_once_in_its_guard():
    found = [(p.name, line) for p in SOURCES
             for line in _finite_and_positive_lines(ast.parse(p.read_text()))]
    circles = next(p for p in SOURCES if p.name == "circles.py")
    guard = next(node for node in ast.parse(circles.read_text()).body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_require_positive")
    assert [(name, guard.lineno <= line <= guard.end_lineno)
            for name, line in found] == [("circles.py", True)]


def test_the_check_sees_an_inline_positivity_test():
    tree = ast.parse("if not (math.isfinite(r) and r > 0):\n    pass\n"
                     "ok = 0 < step and np.isfinite(step)\n")
    assert _finite_and_positive_lines(tree) == [1, 3]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports and never reads; a name in its ``__all__``
    counts as read, since the package re-exports it."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_import_left_unused():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "from .circles import circle_max, multiplicity\n"
                     "x = np.pi * circle_max\n")
    assert _unused_imports(tree) == ["math", "multiplicity"]


def _angle_grid(node: ast.AST, names: set[str]) -> bool:
    """Whether node uses np.arange or np.linspace, or a name in names."""
    return any((isinstance(n, ast.Call)
                and getattr(n.func, "attr", None) in ("arange", "linspace"))
               or (isinstance(n, ast.Name) and n.id in names)
               for n in ast.walk(node))


def _ring_builders(tree: ast.Module) -> list[str]:
    """Functions and methods, as ``f`` or ``Class.f``, that build a ring:
    np.exp of an imaginary multiple of a grid of angles from np.arange or
    np.linspace, directly or through local names.  e^{ikt} at given angles,
    as in FourierProfile.reconstruct or the bisection on a probe circle,
    builds none."""
    defs = [(node.name, node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)]
    found = []
    for name, fn in defs:
        grids: set[str] = set()  # local names bound to grids of angles
        while True:
            bound = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                     and _angle_grid(node.value, grids)
                     for t in node.targets if isinstance(t, ast.Name)}
            if bound <= grids:
                break
            grids |= bound
        if any(isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "exp" and node.args
               and _angle_grid(node.args[0], grids)
               and any(isinstance(c, ast.Constant) and isinstance(c.value, complex)
                       for c in ast.walk(node.args[0]))
               for node in ast.walk(fn)):
            found.append(name)
    return found


def test_one_function_builds_rings():
    found = [(p.name, name) for p in SOURCES
             for name in _ring_builders(ast.parse(p.read_text()))]
    assert found == [("circles.py", "_ring")]


def test_the_check_sees_a_hand_built_ring():
    tree = ast.parse("def f(u, n):\n"
                     "    theta = np.arange(n) * (2.0 * math.pi / n)\n"
                     "    z = 2.0 * np.exp(1j * theta)\n"
                     "    return u.value(z)\n"
                     "class P:\n"
                     "    def g(self, n):\n"
                     "        return np.exp(2j * np.pi * np.linspace(0, 1, n))\n"
                     "def h(t, k):\n"
                     "    return np.exp(1j * k * t)\n")
    assert _ring_builders(tree) == ["f", "P.g"]


def _outside_calls(tree: ast.AST, name: str) -> list[int]:
    """Lines that call name, other than its own recursive calls."""
    own = {id(node) for fn in ast.walk(tree)
           if isinstance(fn, ast.FunctionDef) and fn.name == name
           for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == name and id(node) not in own]


def _defined_names(tree: ast.AST) -> set[str]:
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {t.id for node in ast.walk(tree)
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for t in getattr(node, "targets", [getattr(node, "target", None)])
              if isinstance(t, ast.Name)}
    return names


def test_one_compiled_program():
    # the builder of compiled programs has one caller, and no second op
    # table (once Python complex arithmetic for scalars) comes back
    callers = [p.name for p in SOURCES
               for _ in _outside_calls(ast.parse(p.read_text()), "_build")]
    assert callers == ["expressions.py"]
    assert [(p.name, n) for p in SOURCES
            for n in _defined_names(ast.parse(p.read_text()))
            if "SCALAR_OPS" in n] == []


def test_the_check_sees_a_second_program():
    tree = ast.parse("def _build(e, ops):\n"
                     "    return _build(e.left, ops)\n"
                     "_SCALAR_OPS: dict = {}\n"
                     "array = _build(e, _OPS)\n"
                     "scalar = _build(e, _SCALAR_OPS)\n")
    assert _outside_calls(tree, "_build") == [4, 5]
    assert "_SCALAR_OPS" in _defined_names(tree)


# the expression node classes, and the tree walks that once chose the scan
# sampler beside the splitter
_SAMPLER_CHOICE = {"Const", "Var", "Add", "Mul", "Neg", "Pow", "Exp",
                   "degree", "coefficients"}


def _sampler_choices(tree: ast.AST) -> list[str]:
    """The node classes, degree and coefficients that tree imports, and the
    .degree() methods it calls."""
    found = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names if a.name in _SAMPLER_CHOICE]
    found += [f".{node.func.attr}()" for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "degree"]
    return found


def test_the_splitter_alone_chooses_the_lewis_sampler():
    lewis = next(p for p in SOURCES if p.name == "lewis.py")
    assert _sampler_choices(ast.parse(lewis.read_text())) == []


def test_the_check_sees_a_second_sampler_choice():
    tree = ast.parse("from .expressions import (Exp, HarmonicComponent, _terms,\n"
                     "                          coefficients)\n"
                     "if isinstance(u.expr, Exp) and u.degree() == 1:\n"
                     "    rows = coefficients(u.expr, C)\n")
    assert _sampler_choices(tree) == ["Exp", "coefficients", ".degree()"]


def _read_names(tree: ast.Module, skip: str | None = None) -> set[str]:
    """The names tree reads, bare or as an attribute, outside its top-level
    function or class named skip."""
    own = {id(node) for fn in tree.body
           if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and fn.name == skip
           for node in ast.walk(fn)}
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in own}


def _uncalled(module: str, names: list[str], trees: dict[str, ast.Module],
              text: str) -> list[str]:
    """The names of module that no tree reads outside their own definition
    and that text never mentions."""
    return [name for name in names
            if not any(name in _read_names(tree, name if key == module else None)
                       for key, tree in trees.items())
            and not re.search(rf"\b{name}\b", text)]


def test_every_public_callable_has_a_caller():
    # the library and the CLI, whose __init__ re-exports without reading a
    # name, the benchmark's harness, and the acceptance criteria
    trees = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    trees |= {f"bench/{p.name}": ast.parse(p.read_text())
              for p in sorted((REPO / "bench").glob("*.py"))}
    trees["test_acceptance"] = ast.parse(
        (REPO / "tests" / "test_acceptance.py").read_text())
    readme = (REPO / "README.md").read_text()
    uncalled = []
    for path in SOURCES:
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"harmonic_range.{path.stem}")
        names = [n for n in module.__all__ if callable(getattr(module, n))]
        uncalled += [(path.name, n)
                     for n in _uncalled(path.stem, names, trees, readme)]
    assert uncalled == []


def test_the_check_sees_a_name_only_its_tests_call():
    trees = {"zeros": ast.parse("def find_zero(u):\n"
                                "    return find_zero(u - 1)\n"
                                "def trace(u):\n"
                                "    return u\n"),
             "cli": ast.parse("from . import zeros\nzeros.trace(0)\n")}
    names = ["find_zero", "trace", "parse_expr"]
    assert _uncalled("zeros", names, trees, "`parse_expr(text)`") == ["find_zero"]


def _signature(fn) -> inspect.Signature:
    """fn's signature, without the self of a method taken from its class."""
    sig = inspect.signature(fn)
    params = list(sig.parameters.values())
    if params and params[0].name == "self":
        sig = sig.replace(parameters=params[1:])
    return sig


def _unvaried(sigs: dict[str, inspect.Signature], trees) -> list[str]:
    """'name.param' for each defaulted parameter of the functions sigs, by
    name, that no call of that name in trees sets, by position or by
    keyword, to anything but a literal equal to its default."""
    varied = set()
    for tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name not in sigs:
                continue
            params = sigs[name].parameters
            # positions are known up to the first *args
            args = itertools.takewhile(lambda a: not isinstance(a, ast.Starred),
                                       call.args)
            passed = list(zip(params, args))
            # another function of the same name may take other keywords
            passed += [(k.arg, k.value) for k in call.keywords if k.arg in params]
            for param, arg in passed:
                default = params[param].default
                try:
                    same = ast.literal_eval(arg) == default
                except ValueError:  # not a literal: some other value
                    same = False
                if not same:
                    varied.add(f"{name}.{param}")
    return [f"{name}.{p.name}" for name, sig in sigs.items()
            for p in sig.parameters.values()
            if p.default is not p.empty and f"{name}.{p.name}" not in varied]


def test_every_default_is_set_otherwise_by_a_caller():
    # a setting that only the tests vary is a module constant
    sigs = {}
    for path in SOURCES:
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"harmonic_range.{path.stem}")
        for obj in (getattr(module, n) for n in module.__all__):
            if inspect.isfunction(obj):
                sigs[obj.__name__] = _signature(obj)
            elif inspect.isclass(obj):
                sigs |= {n: _signature(getattr(obj, n)) for n, v in vars(obj).items()
                         if not n.startswith("_") and (
                             inspect.isfunction(v)
                             or isinstance(v, (staticmethod, classmethod)))}
    trees = [ast.parse(p.read_text()) for p in SOURCES]
    trees += [ast.parse(p.read_text()) for p in sorted((REPO / "bench").glob("*.py"))]
    assert _unvaried(sigs, trees) == []


def test_the_check_sees_a_setting_only_its_tests_vary():
    def fit(arcs, tol=1e-2, grid=200, seed=None):
        pass

    class Arcs:
        def within(self, other, tol=0.0):
            pass
    calls = ast.parse("fit(a, 1e-2, grid=100)\n"
                      "x.within(b, tol=0.0)\n"
                      "fit(a, seed=s, *rest)\n")
    sigs = {"fit": _signature(fit), "within": _signature(Arcs.within)}
    assert _unvaried(sigs, [calls]) == ["fit.tol", "within.tol"]
