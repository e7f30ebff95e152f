"""Every name a module of the sten package imports is used in that module."""

import ast
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"], ids=["unset", "set"])
def test_import_runs_blas_on_one_thread_unless_set(preset):
    """``import sten`` sets each BLAS thread count that is unset to 1 and
    keeps one the user set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(PACKAGE.parent)
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    code = f"import os, sten; print(*(os.environ.get(v, '-') for v in {BLAS_VARS!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["1", preset or "1", "1"]


def _blas_threads_after(code: str, **preset: str) -> int:
    """The thread count of numpy's bundled OpenBLAS after ``code`` runs in a
    fresh interpreter with ``preset`` as its only BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(PACKAGE.parent))
    code += ("\nimport ctypes, numpy"
             "\nget = ctypes.CDLL(numpy._core._multiarray_umath.__file__)"
             ".scipy_openblas_get_num_threads64_"
             "\nget.argtypes, get.restype = [], ctypes.c_int"
             "\nprint(get())")
    return int(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout)


def _bundled_openblas() -> bool:
    try:
        ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return False
    return True


@pytest.mark.skipif(not _bundled_openblas(), reason="numpy without its bundled OpenBLAS")
def test_import_after_numpy_runs_blas_on_one_thread_unless_set():
    """numpy loaded first has read the BLAS variables already: ``import sten``
    then sets its OpenBLAS to one thread, and leaves a count the user set."""
    assert _blas_threads_after("import numpy, sten") == 1
    user = _blas_threads_after("import numpy", OPENBLAS_NUM_THREADS="2")
    assert _blas_threads_after("import numpy, sten", OPENBLAS_NUM_THREADS="2") == user
    if (os.cpu_count() or 1) >= 2:
        assert user == 2
