"""Every top-level function and class of the sten package is used by the
package: nothing in ``src/`` exists only to be tested.  The functions the
benchmark traces by name (BENCHMARK.json's per-layer metrics) are exempt."""

import ast
import json
from pathlib import Path

import sten

PACKAGE = Path(sten.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function or class of ``sources``
    (module name -> source) whose name no other top-level statement of any
    of them reads, as a name or an attribute.  A definition's own body does
    not count: a function that only calls itself is unreferenced."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return [f"{module}.{name}" for module, name in defined if name not in used]


def traced_by_the_benchmark() -> set[str]:
    """``module.function`` of every per-layer metric ``module.function.field``."""
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    return {m["name"].rsplit(".", 1)[0] for m in metrics}


def test_detects_an_unreferenced_definition():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    return g()\n\nclass C:\n    pass\n",
               "b": "import a\nx = a.C()\n\ndef h():\n    return h\n"}
    assert unreferenced_definitions(sources) == ["a.f", "b.h"]


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    exempt = traced_by_the_benchmark()
    assert [name for name in unreferenced_definitions(sources) if name not in exempt] == []
