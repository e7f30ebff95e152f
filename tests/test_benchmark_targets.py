"""The benchmark traces ``<module>.<function>`` of the sten package by name.

Its per-layer metric names are ``<module>.<function>.<field>``; every such
function must exist, or a rename here silently breaks the traced benchmark.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_functions():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({".".join(n.split(".")[:2]) for n in names if not n.startswith("trace.")})


def test_benchmark_lists_traced_functions():
    assert traced_functions()


@pytest.mark.parametrize("qualname", traced_functions())
def test_traced_function_resolves(qualname):
    module, function = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"sten.{module}"), function, None))
