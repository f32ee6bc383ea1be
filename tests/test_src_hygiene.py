"""Source hygiene: no module in ``src/cie`` keeps an import it never reads
or a function parameter whose body never reads it, and every name
``cie.__all__`` exports resolves. Removing code tends to leave such imports
and parameters behind; these checks use only the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cie

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "cie").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that module-level imports bind and nothing in ``source`` reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import json\nimport math\nfrom os import path, sep\n"
                          "math.pi\nprint(sep)\n") == ["line 1: json", "line 3: path"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for every parameter, ``self`` and ``cls`` aside,
    that its function's body never reads (nested functions included)."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        unused += [f"{name}.{p}" for p in params if p not in read and p not in ("self", "cls")]
    return unused


# Parameters kept although unread, each with its reason.
KEPT_PARAMETERS = {
    # perfbench times and calls refresh(cg, graph, cb, max_depth); the name
    # and its four parameters go once that benchmark calls instantiate.
    ("causality.py", "refresh.cg"),
    # Every rubric check is called as check(snapshot, query, expect, mode).
    ("harness.py", "_check_remediation.mode"),
}


def test_the_check_sees_an_unused_parameter():
    assert unused_parameters(
        "def f(a, b, *rest, c, **kw):\n    return a + kw['x']\n"
        "def g(self, d):\n    def h(e):\n        return d\n"
        "k = lambda x, y: x\n") == ["f.b", "f.rest", "f.c", "h.e", "<lambda>.y"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_function_parameters(path):
    unused = [name for name in unused_parameters(path.read_text())
              if (path.name, name) not in KEPT_PARAMETERS]
    assert unused == []


def test_every_kept_parameter_is_still_unread():
    by_file = {path.name: unused_parameters(path.read_text()) for path in SOURCES}
    assert all(name in by_file[file] for file, name in KEPT_PARAMETERS)


def test_every_exported_name_resolves():
    assert len(cie.__all__) == len(set(cie.__all__))
    missing = [name for name in cie.__all__ if not hasattr(cie, name)]
    assert missing == []
