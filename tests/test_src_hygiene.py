"""Source hygiene: no module in ``src/cie`` keeps an import it never reads,
and every name ``cie.__all__`` exports resolves. Removing code tends to
leave such imports behind; these checks use only the standard library."""

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


def test_every_exported_name_resolves():
    assert len(cie.__all__) == len(set(cie.__all__))
    missing = [name for name in cie.__all__ if not hasattr(cie, name)]
    assert missing == []
