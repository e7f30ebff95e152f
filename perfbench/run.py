#!/usr/bin/env python3
"""STEN benchmark: workloads shaped like ``sten train`` -> ``sten score`` -> ``sten eval``.

Run from the repository root:

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each run repeats cycles for ``--seconds``: a set-up makes the inputs from
``--seed`` (synthetic series written as CSV, plus a checkpoint for
``score_paper``), then a measured pass makes the library calls the CLI
subcommands make, in the same order, and checks their outputs.  The last
stdout line is one JSON object: ``correct``, ``attempted`` and ``failed``
count pipeline stages, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``), each a median over
set-ups or passes.  A traced run also writes its spans to
``.perfbench/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads: one thread is as fast as two
# for these shapes on a 2-core box, and its timings spread less.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import sten
    from sten import StenError, cli, scoring, seqdata, training
except ImportError as exc:
    sys.exit(f"perfbench: cannot import sten from {SRC}: {exc}")
if not Path(sten.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: sten was imported from {sten.__file__}, not from {SRC}")

from tracer import Target, Tracer, layer_totals, self_times  # noqa: E402

WORK = ROOT / ".perfbench"
# A cycle repeats its set-up until this much time has passed, so that a
# set-up of a few milliseconds is still sampled often enough to be steady.
MIN_SETUP_S = 0.2


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict          # overrides of cli.SCHEMA defaults
    train_in_pass: bool   # False: set-up trains the checkpoint that passes score


WORKLOADS = {
    "train_paper": Workload(
        why="paper-size full model, one batch of 256 windows: training (GRU forward "
            "and BPTT on both shapes, Adam) is most of each pass",
        config=dict(mode="full", d_model=256, epochs=1, n_train=2650, n_test=600),
        train_in_pass=True),
    "score_paper": Workload(
        why="scores with a paper-size checkpoint made in set-up: forward only, "
            "no backward or Adam, so a training-only change should not move it",
        config=dict(mode="full", d_model=256, epochs=1, n_train=730, n_test=4000),
        train_in_pass=False),
    "long_small_ep": Workload(
        why="dsn_plus_ep at d_model 32 on a long test series: per-step dispatch, "
            "full hidden trajectories, CSV I/O, aggregation and eval metrics show",
        config=dict(mode="dsn_plus_ep", d_model=32, epochs=1, n_train=2650, n_test=30000),
        train_in_pass=True),
}

# Sizes for the benchmark's own tests: every stage runs, in well under a second.
TINY = dict(d_model=8, n_train=300, n_test=400)

# Raw quality: Kim et al. (AAAI 2022) show that point adjustment inflates scores.
QUALITY = {"auc_roc": "raw_auc_roc", "auc_pr": "raw_auc_pr", "vus_pr": "vus_pr"}

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "train_windows_per_s": "1/s",
    "score_timestamps_per_s": "1/s", "peak_rss_mb": "MB",
    "auc_roc": "ratio", "auc_pr": "ratio", "vus_pr": "ratio", "success_rate": "ratio",
}


# ---------------------------------------------------------------------------
# Per-layer targets: work counts computed from argument shapes
# ---------------------------------------------------------------------------

def _gru_counts(shape, p, recurrent_gemms: int) -> dict:
    """Row-steps and GEMM flops of a GRU pass over an input of shape (B, T, d_in).

    Forward runs three input and three recurrent GEMMs per step; BPTT runs
    three weight-gradient GEMMs for each of W and U plus three for dh.
    """
    B, T = shape[0], shape[1]
    d, d_in = p.d_model, p.d_in
    return {"row_steps": B * T,
            "gflop": 2 * B * T * (3 * d * d_in + recurrent_gemms * d * d) / 1e9}


def _listed_slots(args, kwargs):
    slots = list(args[0])
    return (slots,) + args[1:], kwargs, {"slots": len(slots)}


LAYERS: dict[str, tuple[Target, tuple[str, ...]]] = {
    "ndkernel.gru_forward": (
        Target(count=lambda a, k, r: _gru_counts(np.shape(a[0]), a[1], 3)),
        ("calls", "row_steps", "gflop", "s", "self_s")),
    "ndkernel.sigmoid": (Target(count=lambda a, k, r: {"elems": int(np.size(a[0]))}),
                         ("calls", "elems", "s")),
    "ndkernel.gru_backward": (Target(count=lambda a, k, r: _gru_counts(a[0].X.shape, a[1], 6)),
                              ("calls", "row_steps", "gflop", "s", "self_s")),
    "ndkernel.adam_update": (Target(), ("calls", "s")),
    "ndkernel.backward": (Target(), ("s",)),
    "ndkernel.softmax": (Target(), ("calls", "s")),
    "networks.embed_windows": (Target(count=lambda a, k, r: {"windows": len(a[1])}),
                               ("calls", "windows", "s", "self_s")),
    "networks.sample_pairs": (Target(count=lambda a, k, r: {"pairs": len(r)}), ("pairs", "s")),
    "networks.write_checkpoint": (Target(count=lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
                                  ("bytes", "s")),
    "networks.read_checkpoint": (Target(count=lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
                                 ("bytes", "s")),
    "objectives.js_rows": (Target(count=lambda a, k, r: {"rows": int(np.size(r))}),
                           ("rows", "s")),
    "objectives.js_rows_grad_p": (Target(), ("s",)),
    "training.train": (Target(), ("s", "self_s")),
    "training.build_sten_tape": (Target(), ("calls", "s", "self_s")),
    "scoring.score_series": (Target(), ("s", "self_s")),
    "scoring.aggregate_timestamps": (Target(before=_listed_slots), ("calls", "slots", "s")),
    "scoring.write_scores_csv": (Target(count=lambda a, k, r: {"rows": a[1].n}), ("rows", "s")),
    "scoring.read_scores_csv": (Target(count=lambda a, k, r: {"rows": len(r["score"])}),
                                ("rows", "s")),
    "seqdata.load_csv": (Target(count=lambda a, k, r: {"rows": r.n}), ("rows", "s")),
    "seqdata.make_windows": (Target(count=lambda a, k, r: {"windows": len(r)}),
                             ("windows", "s")),
    "seqdata.zscore_apply": (Target(), ("s",)),
    "seqdata.synth_generate": (Target(), ("s",)),
    "evalmetrics.evaluate": (Target(), ("s", "self_s")),
    "evalmetrics.affiliation": (Target(), ("s",)),
    "evalmetrics.range_auc": (Target(), ("calls", "s")),
    "evalmetrics.point_adjust": (Target(), ("s",)),
    "evalmetrics.best_f1": (Target(), ("s",)),
}

FIELD_UNITS = {"s": "s", "self_s": "s", "gflop": "gflop.computed", "bytes": "bytes"}
TRACE_UNITS = {"trace.pipeline_s": "s", "trace.overhead_pct": "%"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{f}": FIELD_UNITS.get(f, "count")
             for name, (_, fields) in LAYERS.items() for f in fields}
    units.update(TRACE_UNITS)
    return units


# ---------------------------------------------------------------------------
# Stages: the library calls of one CLI subcommand each
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """A stage's output failed a correctness check."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Files:
    train: Path
    test: Path
    ckpt: Path
    scores: Path


def setup(w: Workload, cfg: dict, seed: int, files: Files,
          tracer: Tracer | None) -> float | None:
    """``sten synth`` with its measurement units drawn from ``seed``, and for a
    scoring workload ``sten train`` on the result.  Returns training windows
    per second when set-up trains.

    Only the ``sten synth`` part is traced, so that the trace of a scoring
    workload shows no training."""
    with tracer or contextlib.nullcontext():
        train_series, test_series = seqdata.synth_generate(cli.build_synth_config(cfg))
    train_series, test_series = in_units(seed, train_series, test_series)
    seqdata.save_csv(train_series, files.train)
    seqdata.save_csv(test_series, files.test)
    if w.train_in_pass:
        return None
    tc = cli.build_train_config(cfg)
    t0 = time.perf_counter()
    model = training.train(train_series, tc)
    dt = time.perf_counter() - t0
    training.save_checkpoint(model, files.ckpt)
    return train_windows(cfg, tc) / dt


def in_units(seed: int, *series: seqdata.MultivariateSeries) -> list:
    """The series with each dimension in units drawn from ``seed``.

    The workload's signal and anomalies are fixed: the detection quality of a
    briefly trained model depends mostly on which series it sees (on
    train_paper, eight synthetic seeds gave AUC-PR quartiles further apart
    than their median), so a
    seed-drawn series would leave the quality metrics no use for comparing
    runs.  Per-dimension scale and offset change every value in the CSV files
    while z-scoring removes them, so quality must agree across seeds up to
    rounding.
    """
    rng = np.random.default_rng(seed)
    d = series[0].d
    scale = 10.0 ** rng.uniform(-1.0, 1.0, size=d)
    offset = scale * rng.uniform(-3.0, 3.0, size=d)
    return [seqdata.MultivariateSeries(values=s.values * scale + offset, labels=s.labels)
            for s in series]


def train_windows(cfg: dict, tc: training.TrainConfig) -> int:
    return ((cfg["n_train"] - tc.L) // tc.R_train + 1) * tc.epochs


def stage_train(cfg: dict, files: Files) -> float:
    """``sten train``: returns seconds spent in ``train``."""
    series = seqdata.load_csv(files.train)
    tc = cli.build_train_config(cfg)
    t0 = time.perf_counter()
    model = training.train(series, tc)
    dt = time.perf_counter() - t0
    training.save_checkpoint(model, files.ckpt)
    return dt


def stage_score(cfg: dict, files: Files) -> tuple[float, np.ndarray]:
    """``sten score``: returns seconds spent in ``score_series`` and the scores."""
    model = training.load_checkpoint(files.ckpt)
    test = seqdata.load_csv(files.test)
    sc = cli.build_score_config(cfg)
    t0 = time.perf_counter()
    result = scoring.score_series(model, test, sc)
    dt = time.perf_counter() - t0
    scoring.write_scores_csv(files.scores, result, labels=test.labels)
    check(result.n == cfg["n_test"], f"{result.n} scores for {cfg['n_test']} timestamps")
    check(bool(np.all(np.isfinite(result.scores))), "non-finite scores")
    check(bool(np.all(result.coverage >= 1)), "a timestamp has coverage 0")
    return dt, result.scores


def stage_eval(cfg: dict, files: Files, scores: np.ndarray, quality_ref: dict) -> float:
    """``sten eval --point-adjust both``: returns seconds spent evaluating.

    The raw quality metrics must equal the run's first result, which is kept
    in ``quality_ref["value"]``."""
    cols = scoring.read_scores_csv(files.scores)
    check(np.array_equal(cols["score"], scores), "scores CSV does not read back bit-identical")
    t0 = time.perf_counter()
    doc = cli.evaluate_to_doc(cols["score"], cols["label"], cfg)
    dt = time.perf_counter() - t0
    check(all(key in doc for key in QUALITY.values()), "quality metrics undefined")
    quality = {name: doc[key] for name, key in QUALITY.items()}
    quality_ref.setdefault("value", quality)
    check(quality == quality_ref["value"],
          f"quality {quality} differs from the first result {quality_ref['value']}")
    return dt


class Tally:
    """Pipeline stages attempted and failed (raised StenError or failed a check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (StenError, CheckFailed) as exc:
            self.failed += 1
            print(f"perfbench: stage {name} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            raise


def measured_pass(w: Workload, cfg: dict, files: Files, tally: Tally,
                  quality_ref: dict) -> dict:
    """One pass from CSV files to the metric report; stage times in seconds."""
    t0 = time.perf_counter()
    out = {}
    if w.train_in_pass:
        out["train_s"] = tally.run("train", stage_train, cfg, files)
    out["score_s"], scores = tally.run("score", stage_score, cfg, files)
    out["eval_s"] = tally.run("eval", stage_eval, cfg, files, scores, quality_ref)
    out["pipeline_s"] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def config_for(name: str, tiny: bool) -> dict:
    cfg = {k: default for k, (_, default) in cli.SCHEMA.items()}
    cfg.update(WORKLOADS[name].config)
    if tiny:
        cfg.update(TINY)
    cfg["point_adjust"] = "both"
    return cfg


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure for ``seconds``, and return the result object."""
    w = WORKLOADS[name]
    cfg = config_for(name, tiny)
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    files = Files(work / "train.csv", work / "test.csv", work / "model.ckpt",
                  work / "scores.csv")
    tracer = Tracer({qual: target for qual, (target, _) in LAYERS.items()})
    tally = Tally()
    quality_ref: dict = {}
    setup_s, setup_rates = [], []
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    longest = 0.0  # a cycle starts only if one as long as the longest yet fits
    try:
        # Each cycle sets up afresh (same seed, same files) before its pass,
        # so that set-ups, like passes, are spread over the whole run.
        while (not plain or (trace and not traced)
               or time.perf_counter() + longest < deadline):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < MIN_SETUP_S:
                tracer.run = f"setup-{len(setup_s)}"
                t_setup = time.perf_counter()
                setup_rates.append(tally.run("setup", setup, w, cfg, seed, files,
                                             tracer if trace else None))
                setup_s.append(time.perf_counter() - t_setup)
            if trace and len(traced) < len(plain):
                tracer.run = f"pass-{len(traced)}"
                with tracer:
                    traced.append(measured_pass(w, cfg, files, tally, quality_ref))
                done = traced
            else:
                plain.append(measured_pass(w, cfg, files, tally, quality_ref))
                done = plain
            longest = max(longest, time.perf_counter() - t0)
            print(f"{'traced ' if done is traced else ''}pass {len(done) - 1}: "
                  f"setup_s {setup_s[-1]:.4f} " + " ".join(
                      f"{k} {v:.4f}" for k, v in done[-1].items()),
                  file=sys.stderr)
    except (StenError, CheckFailed):
        pass  # counted in the tally; the run reports what it measured
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layer_metrics(tracer, plain, traced)
        write_spans(tracer, name, seed)
    else:
        metrics = end_to_end_metrics(cfg, w, plain, setup_s, setup_rates, quality_ref, tally)
    return {"correct": tally.failed == 0 and bool(plain), "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(cfg: dict, w: Workload, passes: list[dict], setup_s: list[float],
                       setup_rates: list, quality_ref: dict, tally: Tally) -> dict:
    n_test = cfg["n_test"]
    if w.train_in_pass:
        n_win = train_windows(cfg, cli.build_train_config(cfg))
        train_rates = [n_win / p["train_s"] for p in passes]
    else:
        train_rates = setup_rates
    values = {
        "setup_s": _median(setup_s),
        "pipeline_s": _median([p["pipeline_s"] for p in passes]),
        "train_windows_per_s": _median(train_rates),
        "score_timestamps_per_s": _median([n_test / p["score_s"] for p in passes]),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality_ref.get("value", dict.fromkeys(QUALITY, 0.0)),
        "success_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END_UNITS.items()}


def layer_metrics(tracer: Tracer, plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer values for the ``sten synth`` of one set-up plus one measured
    pass, each the median over the run's set-ups or traced passes."""
    runs = sorted({sp.run for sp in tracer.spans})
    setups = [r for r in runs if r.startswith("setup-")]
    passes = [f"pass-{i}" for i in range(len(traced))]
    per_setup = layer_totals(tracer.spans, setups)
    per_pass = layer_totals(tracer.spans, passes)
    traced_s = _median([p["pipeline_s"] for p in traced])
    plain_s = _median([p["pipeline_s"] for p in plain])
    values = {
        "trace.pipeline_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0,
    }
    units = per_layer_units()
    for metric in units:
        if metric in values:
            continue
        target, fld = metric.rsplit(".", 1)
        values[metric] = (per_setup.get(target, {}).get(fld, 0)
                          + per_pass.get(target, {}).get(fld, 0))
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def write_spans(tracer: Tracer, name: str, seed: int) -> Path:
    path = WORK / f"spans-{name}-s{seed}.jsonl"
    selfs = self_times(tracer.spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "env": environment(seed)}) + "\n")
        for sp, self_s in zip(tracer.spans, selfs):
            fh.write(json.dumps({"name": sp.name, "id": sp.id, "parent": sp.parent,
                                 "run": sp.run, "start": sp.start, "end": sp.end,
                                 "self_s": self_s, "counts": sp.counts}) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd + ["--tiny"] * args.tiny).returncode)
        return status

    WORK.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(f"workload {args.workload} seed {args.seed} "
          f"({'per-layer, traced' if args.trace else 'end-to-end'})")
    for k, m in result["metrics"].items():
        print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
