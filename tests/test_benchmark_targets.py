"""The benchmark traces ``<module>.<function>`` of the sten package by name.

Its per-layer metric names are ``<module>.<function>.<field>``; every such
function must exist, or a rename here silently breaks the traced benchmark.
Some counters are read from a traced call's arguments or result, so those
must keep their meaning too.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from sten import cli, ndkernel, networks, scoring, training
from sten.networks import init_phi, sample_pairs
from sten.scoring import ScoreConfig, ScoreSeries, aggregate_timestamps
from sten.seqdata import MultivariateSeries, NormStats, load_csv, make_windows, window_starts
from sten.training import TrainConfig, TrainedModel, build_sten_tape, train

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


@pytest.mark.parametrize("module", [training, scoring], ids=["training", "scoring"])
def test_gru_forward_stays_bound_for_the_benchmark_test(module):
    """perfbench/test_perfbench.py wraps gru_forward on these modules, which
    bind it without calling it; deleting the binding breaks that test."""
    assert module.gru_forward is ndkernel.gru_forward


def schema_config(**overrides):
    """The config perfbench/run.py builds: cli.SCHEMA defaults and a few overrides."""
    cfg = {k: default for k, (_, default) in cli.SCHEMA.items()}
    cfg.update(overrides)
    return cfg


@pytest.mark.parametrize("mode,d_model", [("full", 256), ("dsn_plus_ep", 32)])
def test_cli_config_contract(mode, d_model):
    """perfbench/run.py takes cli.SCHEMA's (type, default) pairs, overrides a
    few keys, and builds its configs and eval report with the cli builders."""
    cfg = schema_config(mode=mode, d_model=d_model, epochs=1, n_train=300, n_test=400,
                        point_adjust="both")
    synth = cli.build_synth_config(cfg)
    assert (synth.n_train, synth.n_test) == (300, 400)
    tc = cli.build_train_config(cfg)
    assert (tc.mode, tc.d_model, tc.epochs, tc.L) == (mode, d_model, 1, 100)
    assert cli.build_score_config(cfg).R_test == 10
    labels = np.zeros(400, dtype=np.int64)
    labels[100:130] = 1
    scores = np.random.default_rng(0).random(400) + labels
    doc = cli.evaluate_to_doc(scores, labels, cfg)
    assert {"raw_auc_roc", "raw_auc_pr", "vus_pr"} <= set(doc)


# The benchmark's per-layer counters read these results and arguments.

def test_make_windows_length_counts_windows():
    series = MultivariateSeries(values=np.zeros((57, 2)))
    assert len(make_windows(series, 10, 7)) == len(window_starts(57, 10, 7)) == 7
    assert len(make_windows(series, 10, 7, cover_tail=True)) == 8


@pytest.mark.parametrize("n,k", [(2, 1), (7, 3)])
def test_sample_pairs_length_counts_pairs(n, k):
    assert len(sample_pairs(n, np.random.default_rng(0), k)) == n * k


def test_load_csv_n_counts_rows(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("a,b,label\n1,2,0\n\n3,4,1\n5,6,0\n")
    assert load_csv(path).n == 3


def test_write_scores_csv_second_argument_n_counts_rows(tmp_path):
    col = np.linspace(0.0, 1.0, 5)
    series = ScoreSeries(scores=col, score_otn=col, score_dsn=col, coverage=np.ones(5))
    args = (tmp_path / "scores.csv", series)
    scoring.write_scores_csv(*args, labels=np.zeros(5))
    assert args[1].n == 5
    assert len(args[0].read_text().splitlines()) == 1 + 5


def test_read_scores_csv_score_length_counts_rows(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("timestamp,score,score_otn,score_dsn\n1,0.5,0.5,0\n\n2,0.1,0.1,0\n"
                    "3,0.2,0.2,0\n")
    assert len(scoring.read_scores_csv(path)["score"]) == 3


def test_embed_windows_second_argument_length_counts_windows(monkeypatch):
    """networks.embed_windows.windows is len(args[1]): the windows eta embeds
    in the call, one row of its result each.  Training embeds each training
    window once, scoring each test window once."""
    calls = []
    real = networks.embed_windows

    def counting(*args):
        out = real(*args)
        calls.append((len(args[1]), len(out)))
        return out

    # networks.forward calls the module's one binding, which the tracer wraps.
    monkeypatch.setattr(networks, "embed_windows", counting)
    tc = TrainConfig(R_train=3, l=3, r=3, m=3, d_model=4, epochs=2, batch_size=5,
                     mode="dsn_only")
    series = MultivariateSeries(values=np.random.default_rng(0).normal(size=(40, 2)))
    model = train(series, tc)
    n_train = len(window_starts(series.n, tc.L, tc.R_train))
    assert len(calls) > 1 and all(n == rows for n, rows in calls)
    assert sum(n for n, _ in calls) == n_train
    calls.clear()
    cfg = ScoreConfig(R_test=4)
    scoring.score_series(model, series, cfg)
    assert [n for n, _ in calls] == [len(make_windows(series, tc.L, cfg.R_test, cover_tail=True))]
    assert all(n == rows for n, rows in calls)


def test_embed_windows_counts_windows_eta_embeds_beside_phi(monkeypatch):
    """A chunk of 54 windows at d_model 128 runs eta's pass beside phi's
    forward, and networks.embed_windows still counts each window eta embeds,
    once."""
    calls = []
    real = networks.embed_windows

    def counting(*args):
        out = real(*args)
        calls.append((len(args[1]), len(out)))
        return out

    monkeypatch.setattr(networks, "embed_windows", counting)
    tc = TrainConfig(R_train=3, l=3, r=3, m=3, d_model=128, mode="full")
    model = TrainedModel(phi=init_phi(2, 128, 3, np.random.default_rng(1)),
                         eta=ndkernel.init_gru(2, 128, np.random.default_rng(2)), config=tc,
                         stats=NormStats(mean=np.zeros(2), std=np.ones(2)), d_in=2)
    series = MultivariateSeries(values=np.random.default_rng(3).normal(size=(220, 2)))
    cfg = ScoreConfig(R_test=4)
    n_windows = len(make_windows(series, tc.L, cfg.R_test, cover_tail=True))
    assert n_windows == 54 and ndkernel._runs_beside(n_windows, tc.d_model)
    scoring.score_series(model, series, cfg)
    assert calls == [(n_windows, n_windows)]


# perfbench/run.py's scoring shapes: (mode, d_model, n_test) of a workload,
# the windows of each of its scoring chunks, and how each chunk runs eta's
# pass: on a helper thread beside phi's forward, or split between the calling
# thread and a helper, as phi's pass over the same windows is.
SCORING_SHAPES = [
    pytest.param("dsn_plus_ep", 32, 30000, [1024, 1024, 943], "beside", id="long_small_ep"),
    pytest.param("full", 256, 4000, [391], "split", id="score_paper"),
    pytest.param("full", 256, 600, [51], "beside", id="train_paper"),
]


@pytest.mark.parametrize("mode,d_model,n_test,chunks,path", SCORING_SHAPES)
def test_which_workloads_score_with_eta_beside_phi(monkeypatch, mode, d_model, n_test, chunks,
                                                    path):
    """A change to ndkernel's rules for helper threads moves these: the
    workloads on the beside path measure it, and score_paper bypasses it."""
    tc = cli.build_train_config(schema_config(mode=mode, d_model=d_model))
    rng = np.random.default_rng(0)
    model = TrainedModel(phi=init_phi(5, d_model, tc.m, rng, with_ep_head=mode == "dsn_plus_ep"),
                         eta=ndkernel.init_gru(5, d_model, rng), config=tc,
                         stats=NormStats(mean=np.zeros(5), std=np.ones(5)), d_in=5)
    series = MultivariateSeries(values=rng.normal(size=(n_test, 5)))
    handed = []
    helper_thread = ndkernel._helper_thread

    def recording(fn, *args):
        X, rows = args[0], args[6]         # _gru_rows(X, W, U, b, H, cache, rows, ...)
        if X.shape[1] == tc.L:             # a pass over windows, not sub-sequences
            handed.append((len(X), rows))
        return helper_thread(fn, *args)

    monkeypatch.setattr(ndkernel, "_helper_thread", recording)
    scoring.score_series(model, series, cli.build_score_config(schema_config()))
    # A split chunk hands over half the rows of eta's pass, then of phi's.
    rows = {"beside": lambda B: [slice(0, B)], "split": lambda B: [slice(B // 2, B)] * 2}[path]
    assert handed == [(B, r) for B in chunks for r in rows(B)]


# perfbench/run.py's training shapes: (mode, d_model, n_train) of a workload,
# the windows of its one batch, and how the batch's first step runs eta's
# pass: on a helper thread beside phi's forward, split between the calling
# thread and a helper as phi's pass over the same windows is, or on the
# calling thread alone; either of the last two before phi's forward.
TRAINING_SHAPES = [
    pytest.param("full", 256, 730, 64, "beside", id="score_paper"),
    pytest.param("full", 256, 2650, 256, "split", id="train_paper"),
    pytest.param("dsn_plus_ep", 32, 2650, 256, "serial", id="long_small_ep"),
]


@pytest.mark.parametrize("mode,d_model,n_train,B,path", TRAINING_SHAPES)
def test_which_workloads_train_with_eta_beside_phi(monkeypatch, mode, d_model, n_train, B,
                                                   path):
    """A change to ndkernel's rules for helper threads moves these:
    score_paper's set-up batch trains on the beside path, train_paper's
    splits its passes, and long_small_ep's starts no helper thread."""
    tc = cli.build_train_config(schema_config(mode=mode, d_model=d_model, epochs=1))
    series = MultivariateSeries(values=np.random.default_rng(0).normal(size=(n_train, 5)))
    assert len(window_starts(n_train, tc.L, tc.R_train)) == B
    # The passes over windows, not sub-sequences, in order: eta's has no cache.
    log = []
    real_forward, helper_thread = ndkernel.gru_forward, ndkernel._helper_thread

    def forward_recording(X, p, want_cache=False, **kwargs):
        if X.shape[1] == tc.L:
            log.append(("pass", "phi" if want_cache else "eta"))
        return real_forward(X, p, want_cache, **kwargs)

    def recording(fn, *args):
        if fn is ndkernel._gru_rows and args[0].shape[1] == tc.L:
            steps, rows = args[5:7]                   # _gru_rows(X, W, U, b, H, steps, rows, ...)
            log.append(("helper", "eta" if steps is None else "phi", rows))
        return helper_thread(fn, *args)

    monkeypatch.setattr(networks, "gru_forward", forward_recording)
    monkeypatch.setattr(ndkernel, "_helper_thread", recording)
    train(series, tc)
    half = slice(B // 2, B)
    # A pass is logged as it is called: eta's, beside phi's, before its helper starts.
    assert log == {
        "beside": [("pass", "eta"), ("helper", "eta", slice(0, B)), ("pass", "phi")],
        "split": [("pass", "eta"), ("helper", "eta", half), ("pass", "phi"),
                  ("helper", "phi", half)],
        "serial": [("pass", "eta"), ("pass", "phi")]}[path]


def test_long_small_ep_trains_without_eta_beside_phi(monkeypatch):
    """train embeds each batch's windows with eta in the batch's first step,
    with phi's forward as the block beside the pass, but long_small_ep's
    batch of 256 windows at d_model 32 has too little work per step to run
    it beside: it starts no helper thread in training."""
    started = []
    monkeypatch.setattr(ndkernel, "_helper_thread", lambda fn, *args: started.append(fn))
    tc = cli.build_train_config(schema_config(mode="dsn_plus_ep", d_model=32, epochs=1))
    series = MultivariateSeries(values=np.random.default_rng(0).normal(size=(2650, 5)))
    assert len(window_starts(series.n, tc.L, tc.R_train)) == tc.batch_size == 256
    train(series, tc)
    assert started == []


def test_aggregate_timestamps_takes_listed_slot_starts(monkeypatch):
    """score_series passes one start per slot, which the benchmark lists, in
    one call for both score columns."""
    tc = TrainConfig(R_train=3, l=3, r=3, m=3, d_model=4, epochs=1, mode="otn_only")
    series = MultivariateSeries(values=np.random.default_rng(0).normal(size=(40, 2)))
    model = train(series, tc)
    counted = []

    def listed(starts, *rest):
        starts = list(starts)
        counted.append(len(starts))
        return aggregate_timestamps(starts, *rest)

    cfg = ScoreConfig(R_test=4)
    want = scoring.score_series(model, series, cfg)
    monkeypatch.setattr(scoring, "aggregate_timestamps", listed)
    got = scoring.score_series(model, series, cfg)
    n_windows = len(make_windows(series, tc.L, cfg.R_test, cover_tail=True))
    assert counted == [n_windows * tc.m]
    for col in ("scores", "score_otn", "score_dsn", "coverage"):
        np.testing.assert_array_equal(getattr(got, col), getattr(want, col), err_msg=col)


def test_gru_forward_calls_sigmoid_once_per_step_on_both_gates(monkeypatch):
    """The benchmark's ndkernel.sigmoid counters measure the z and r gates."""
    sizes = []
    real = ndkernel.sigmoid

    def counting(x, out=None):
        sizes.append(np.size(x))
        return real(x, out=out)

    monkeypatch.setattr(ndkernel, "sigmoid", counting)
    rng = np.random.default_rng(0)
    B, T, d = 3, 7, 4
    ndkernel.gru_forward(rng.normal(size=(B, T, 2)), ndkernel.init_gru(2, d, rng))
    assert sizes == [2 * B * d] * T


@pytest.mark.parametrize("mode,n_passes", [("full", 2), ("otn_only", 1), ("dsn_only", 1),
                                           ("dsn_plus_ep", 1)],
                         ids=["full", "otn_only", "dsn_only", "dsn_plus_ep"])
def test_gru_backward_arguments_under_the_default_config(monkeypatch, mode, n_passes):
    """perfbench/run.py's _gru_counts reads the input's (B, T, d_in) and the
    GruParams' d_model and d_in of each gru_forward and gru_backward call
    (cache.X for the backward); training computes in float32 and keeps both.
    d_model is the hidden size, not the 3 * d_model rows of the stacked
    blocks.  Each training batch makes one training.build_sten_tape call,
    whose one ndkernel.backward call, the step's BPTT, runs one gru_backward
    per GRU pass: dsn_plus_ep runs one pass for both of its branches.  Then
    train calls adam_update, and nothing else per batch."""
    log, seen, forwards = [], [], []
    real = {name: getattr(module, name) for module, name in [
        (training, "build_sten_tape"), (training, "backward"), (training, "adam_update"),
        (ndkernel, "gru_backward"), (ndkernel, "gru_forward")]}

    def logged(name):
        def call(*args, **kwargs):
            log.append(name)
            return real[name](*args, **kwargs)
        return call

    def recording(cache, p, *args, **kwargs):
        log.append("gru_backward")
        seen.append((cache.X.shape, cache.X.dtype, p.d_model, p.d_in))
        return real["gru_backward"](cache, p, *args, **kwargs)

    def forward_recording(X, p, *args, **kwargs):
        forwards.append((np.shape(X), p.d_model, p.d_in))
        return real["gru_forward"](X, p, *args, **kwargs)

    for name in ("build_sten_tape", "backward", "adam_update"):
        monkeypatch.setattr(training, name, logged(name))
    monkeypatch.setattr(ndkernel, "gru_backward", recording)
    # The tracer wraps every binding of gru_forward; networks' is the one called.
    for module in (ndkernel, networks, training):
        monkeypatch.setattr(module, "gru_forward", forward_recording)
    tc = cli.build_train_config(schema_config(mode=mode, d_model=8, epochs=2))
    series = MultivariateSeries(values=np.random.default_rng(0).normal(size=(300, 3)))
    train(series, tc)
    # 300 timestamps give 21 windows: one batch per epoch.
    n_batches = tc.epochs * -(-len(window_starts(series.n, tc.L, tc.R_train)) // tc.batch_size)
    assert n_batches == 2
    assert log == (["build_sten_tape", "backward"] + ["gru_backward"] * n_passes
                   + ["adam_update"]) * n_batches
    for shape, dtype, d_model, d_in in seen:
        assert len(shape) == 3 and shape[1] in (tc.l, tc.L) and shape[2] == d_in == 3
        assert dtype == np.float32 and d_model == 8
    assert forwards
    for shape, d_model, d_in in forwards:
        assert len(shape) == 3 and shape[1] in (tc.l, tc.L) and shape[2] == d_in == 3
        assert d_model == 8


def test_float32_gru_forward_calls_sigmoid_once_per_step_on_both_gates(monkeypatch):
    sizes = []
    real = ndkernel.sigmoid

    def counting(x, out=None):
        sizes.append((np.size(x), x.dtype))
        return real(x, out=out)

    monkeypatch.setattr(ndkernel, "sigmoid", counting)
    rng = np.random.default_rng(0)
    B, T, d = 3, 7, 4
    ndkernel.gru_forward(rng.normal(size=(B, T, 2)).astype(np.float32),
                         ndkernel.init_gru(2, d, rng))
    assert sizes == [(2 * B * d, np.float32)] * T


def test_order_branch_encodes_265_rows_for_a_paper_batch(monkeypatch):
    """ndkernel.gru_forward.row_steps counts the rows the order branch encodes:
    a 256-window batch at stride r with m=10 has 265 distinct sub-sequences,
    and the GRU sees each of them once."""
    rows = []
    real = networks.gru_forward

    def counting(X, p, **kwargs):
        rows.append(np.shape(X)[:2])
        return real(X, p, **kwargs)

    monkeypatch.setattr(networks, "gru_forward", counting)
    cfg = TrainConfig(d_model=4, mode="otn_only")          # L 100, l = r = R_train 10, m 10
    rng = np.random.default_rng(0)
    values = rng.normal(size=(2650, 2))
    starts = window_starts(len(values), cfg.L, cfg.R_train)
    assert len(starts) == 256
    build_sten_tape(init_phi(2, cfg.d_model, cfg.m, rng), None, values, starts, cfg)
    assert rows == [(265, cfg.l)]
