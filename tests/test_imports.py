"""Every name a module of the sten package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import sten

PACKAGE = Path(sten.__file__).resolve().parent

# Bound without a use because perfbench/test_perfbench.py looks them up on
# these modules.
ALLOWED = {("training", "gru_forward"), ("scoring", "gru_forward")}


def unused_imports(source: str) -> list[str]:
    """The names bound by an import statement of ``source`` that no other
    expression of it reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from a import b, c as d\nd(os.sep)\n")
    assert unused_imports(source) == ["b (line 3)"]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_unused_import(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert [u for u in unused if (module, u.split()[0]) not in ALLOWED] == []
