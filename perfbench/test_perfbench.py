"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "0.1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_the_spec_metrics(workload, trace):
    res = result(bench("--workload", workload, "--seed", "3", "--trace", str(trace), "--tiny"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_quality_repeats_across_processes_and_seeds():
    def quality(seed):
        res = result(bench("--workload", "long_small_ep", "--seed", seed, "--tiny"))
        return {k: res["metrics"][k]["value"] for k in run.QUALITY}

    first = quality("5")
    assert first == quality("5")
    # The seed draws measurement units only, which z-scoring removes.
    assert first == quality("6")


def test_spans_nest_within_the_pass_and_bindings_are_restored(tmp_path):
    from sten import networks, ndkernel, scoring, training

    w = run.WORKLOADS["long_small_ep"]
    cfg = run.config_for("long_small_ep", tiny=True)
    files = run.Files(*(tmp_path / n for n in ("train.csv", "test.csv", "m.ckpt", "s.csv")))
    run.setup(w, cfg, 1, files, None)
    originals = {(mod, name): getattr(mod, name) for mod, name in [
        (training, "gru_forward"), (scoring, "gru_forward"), (networks, "gru_forward"),
        (ndkernel, "sigmoid"), (training, "train")]}

    tracer = Tracer({qual: target for qual, (target, _) in run.LAYERS.items()})
    tracer.run = "pass-0"
    with tracer:
        wrapped = tracer.bindings()
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn
        out = run.measured_pass(w, cfg, files, run.Tally(), {})

    assert wrapped and all(getattr(mod, attr) is orig for mod, attr, orig in wrapped)
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn
    selfs = self_times(tracer.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) <= out["pipeline_s"]
    names = {sp.name for sp in tracer.spans}
    assert {"ndkernel.sigmoid", "ndkernel.gru_backward", "scoring.aggregate_timestamps"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "train_paper", "--seed", "1", "--tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
