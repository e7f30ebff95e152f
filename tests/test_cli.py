import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sten
from sten import evalmetrics, ndkernel
from sten.cli import (SCHEMA, build_score_config, build_synth_config, build_train_config,
                      evaluate_to_doc, main, _convert)
from sten.evalmetrics import METRIC_GROUPS, evaluate
from sten.ndkernel import GruParams
from sten.networks import read_checkpoint
from sten.scoring import ScoreConfig, score_series
from sten.seqdata import SynthConfig
from sten.training import TrainConfig, load_checkpoint, train

SMALL_CONFIG = """
# small end-to-end settings
n_train = 400
n_test = 200
dims = 2
anomaly_rate = 0.05
seg_len_min = 5
seg_len_max = 15
l = 3
m = 4
R_train = 3
R_test = 6
d_model = 8
epochs = 2
batch_size = 32
lr = 0.001
seed = 7
"""


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    return tmp_path, cfg


def run(argv):
    return main([str(a) for a in argv])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSynth:
    def test_deterministic_files(self, workspace):
        tmp, cfg = workspace
        assert run(["synth", "--config", cfg, "--out-dir", tmp / "d1"]) == 0
        assert run(["synth", "--config", cfg, "--out-dir", tmp / "d2"]) == 0
        assert (tmp / "d1/train.csv").read_bytes() == (tmp / "d2/train.csv").read_bytes()
        assert (tmp / "d1/test.csv").read_bytes() == (tmp / "d2/test.csv").read_bytes()

    def test_row_counts(self, workspace):
        tmp, cfg = workspace
        run(["synth", "--config", cfg, "--out-dir", tmp / "d"])
        assert len((tmp / "d/train.csv").read_text().splitlines()) == 401
        assert len((tmp / "d/test.csv").read_text().splitlines()) == 201

    def test_zero_rate_labels(self, workspace):
        tmp, cfg = workspace
        run(["synth", "--config", cfg, "--out-dir", tmp / "d",
             "--set", "anomaly_rate=0"])
        rows = read_rows(tmp / "d/test.csv")
        assert all(r["label"] == "0" for r in rows)


def prepared_data(tmp, cfg):
    run(["synth", "--config", cfg, "--out-dir", tmp / "data"])
    return tmp / "data/train.csv", tmp / "data/test.csv"


class TestTrain:
    def test_checkpoint_reproducible(self, workspace):
        tmp, cfg = workspace
        train_csv, _ = prepared_data(tmp, cfg)
        assert run(["train", "--train", train_csv, "--config", cfg,
                    "--out", tmp / "a.ckpt"]) == 0
        assert run(["train", "--train", train_csv, "--config", cfg,
                    "--out", tmp / "b.ckpt"]) == 0
        assert (tmp / "a.ckpt").read_bytes() == (tmp / "b.ckpt").read_bytes()

    def test_otn_only_log_dsn_zero(self, workspace):
        tmp, cfg = workspace
        train_csv, _ = prepared_data(tmp, cfg)
        run(["train", "--train", train_csv, "--config", cfg,
             "--mode", "otn_only", "--out", tmp / "m.ckpt"])
        log = (tmp / "m.ckpt.log").read_text().splitlines()
        assert log[0] == "epoch,otn,dsn,total"
        assert all(line.split(",")[2] == "0.0" for line in log[1:])

    def test_bad_layout_usage_error(self, workspace):
        # L follows l, m and r: it is no key to set.
        tmp, cfg = workspace
        train_csv, _ = prepared_data(tmp, cfg)
        code = run(["train", "--train", train_csv, "--config", cfg,
                    "--set", "L=11", "--out", tmp / "m.ckpt"])
        assert code == 1


class TestScore:
    def setup_model(self, tmp, cfg):
        train_csv, test_csv = prepared_data(tmp, cfg)
        run(["train", "--train", train_csv, "--config", cfg, "--out", tmp / "m.ckpt"])
        return test_csv

    def test_every_timestamp_once(self, workspace):
        tmp, cfg = workspace
        test_csv = self.setup_model(tmp, cfg)
        assert run(["score", "--model", tmp / "m.ckpt", "--test", test_csv,
                    "--config", cfg, "--out", tmp / "s.csv"]) == 0
        rows = read_rows(tmp / "s.csv")
        assert [int(r["timestamp"]) for r in rows] == list(range(1, 201))

    def test_beta_zero_matches_otn_column(self, workspace):
        tmp, cfg = workspace
        test_csv = self.setup_model(tmp, cfg)
        run(["score", "--model", tmp / "m.ckpt", "--test", test_csv,
             "--config", cfg, "--beta", "0", "--out", tmp / "s.csv"])
        rows = read_rows(tmp / "s.csv")
        assert all(r["score"] == r["score_otn"] for r in rows)

    def test_config_seed_moves_no_score(self, workspace):
        # A config file may hold keys score does not read, training's seed
        # among them; scoring draws nothing with it.
        tmp, cfg = workspace
        test_csv = self.setup_model(tmp, cfg)
        other = tmp / "other.cfg"
        other.write_text(SMALL_CONFIG.replace("seed = 7", "seed = 11"))
        for name, config in (("s1.csv", cfg), ("s2.csv", other)):
            assert run(["score", "--model", tmp / "m.ckpt", "--test", test_csv,
                        "--config", config, "--out", tmp / name]) == 0
        assert (tmp / "s1.csv").read_bytes() == (tmp / "s2.csv").read_bytes()

    def test_rerun_identical(self, workspace):
        tmp, cfg = workspace
        test_csv = self.setup_model(tmp, cfg)
        run(["score", "--model", tmp / "m.ckpt", "--test", test_csv,
             "--config", cfg, "--out", tmp / "s1.csv"])
        run(["score", "--model", tmp / "m.ckpt", "--test", test_csv,
             "--config", cfg, "--out", tmp / "s2.csv"])
        assert (tmp / "s1.csv").read_bytes() == (tmp / "s2.csv").read_bytes()

    def test_z_score_beyond_float32_is_a_data_error(self, workspace, capsys):
        """Column b is constant in training, so its std is floored; a test
        value 1e31 away has a finite z-score in float64 that float32, the GRU's
        compute dtype, cannot hold."""
        tmp, cfg = workspace
        rows = [f"{np.sin(i / 5):.6f},1.0" for i in range(120)]
        (tmp / "train.csv").write_text("a,b\n" + "\n".join(rows) + "\n")
        rows[40] = "0.5,1e31"
        (tmp / "test.csv").write_text("a,b\n" + "\n".join(rows) + "\n")
        assert run(["train", "--train", tmp / "train.csv", "--config", cfg,
                    "--out", tmp / "m.ckpt"]) == 0
        code = run(["score", "--model", tmp / "m.ckpt", "--test", tmp / "test.csv",
                    "--config", cfg, "--out", tmp / "s.csv"])
        assert code == 2
        assert "dimension 'b': its z-score exceeds the float32 range" in capsys.readouterr().err
        assert not (tmp / "s.csv").exists()

    def test_dimension_mismatch_exit_code(self, workspace, capsys):
        tmp, cfg = workspace
        self.setup_model(tmp, cfg)
        bad = tmp / "bad.csv"
        bad.write_text("a,b,c\n" + "\n".join("1,2,3" for _ in range(120)) + "\n")
        code = run(["score", "--model", tmp / "m.ckpt", "--test", bad,
                    "--config", cfg, "--out", tmp / "s.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "3" in err and "2" in err


def read_rows(path):
    """The rows of a CSV file as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_scores(tmp, labels, scores):
    path = tmp / "scores.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "score", "score_otn", "score_dsn", "label"])
        for i, (s, y) in enumerate(zip(scores, labels), 1):
            w.writerow([i, repr(float(s)), repr(float(s)), "0.0", int(y)])
    return path


class TestEval:

    def test_perfect_detector(self, workspace, capsys):
        tmp, _ = workspace
        rng = np.random.default_rng(0)
        labels = np.zeros(60, dtype=int)
        labels[20:25] = 1
        scores = labels * 10.0 + rng.random(60)
        path = write_scores(tmp, labels, scores)
        assert run(["eval", "--scores", path, "--out", tmp / "rep.json"]) == 0
        doc = json.loads((tmp / "rep.json").read_text())
        assert doc["auc_roc"] == 1.0
        assert doc["auc_pr"] == 1.0

    def test_both_point_adjust_modes_emitted(self, workspace):
        tmp, _ = workspace
        rng = np.random.default_rng(1)
        labels = np.zeros(80, dtype=int)
        labels[30:40] = 1
        scores = rng.random(80) + labels * 0.4
        path = write_scores(tmp, labels, scores)
        run(["eval", "--scores", path, "--point-adjust", "both",
             "--out", tmp / "rep.json"])
        doc = json.loads((tmp / "rep.json").read_text())
        assert "auc_roc" in doc and "raw_auc_roc" in doc
        assert doc["auc_roc"] >= doc["raw_auc_roc"]

    def test_report_echoes_config(self, workspace):
        tmp, _ = workspace
        labels = np.zeros(50, dtype=int)
        labels[10:14] = 1
        path = write_scores(tmp, labels, np.random.default_rng(2).random(50))
        run(["eval", "--scores", path, "--delta", "1.5",
             "--set", "vus_wmax=4", "--out", tmp / "rep.json"])
        doc = json.loads((tmp / "rep.json").read_text())
        assert doc["delta"] == 1.5
        assert doc["vus_wmax"] == 4.0
        assert doc["point_adjust"] == "on"

    def test_metric_subset(self, workspace):
        tmp, _ = workspace
        labels = np.zeros(50, dtype=int)
        labels[10:14] = 1
        path = write_scores(tmp, labels, np.random.default_rng(3).random(50))
        run(["eval", "--scores", path, "--metrics", "roc,pr",
             "--out", tmp / "rep.json"])
        doc = json.loads((tmp / "rep.json").read_text())
        assert "auc_roc" in doc and "best_f1" not in doc

    @pytest.mark.parametrize("metrics,sweeps", [("all", 2), ("roc,pr,f1", 2), ("aff,pr", 2),
                                                ("range,vus", 1)])
    def test_both_sorts_each_series_once(self, monkeypatch, metrics, sweeps):
        """With point_adjust both, the raw report runs every group and the
        adjusted one only roc, pr and f1, so the raw and the adjusted scores
        are each sorted once.  The document is the one of a point-adjusted
        report with every group plus a raw report of roc, pr and f1, key for
        key and bit for bit."""
        rng = np.random.default_rng(6)
        labels = np.zeros(3000, dtype=np.int64)
        for s in range(100, 2900, 250):
            labels[s:s + int(rng.integers(1, 30))] = 1
        scores = np.round(rng.random(3000) + 0.3 * labels, 2)
        cfg = {k: v for k, (_, v) in SCHEMA.items()}
        cfg.update(point_adjust="both", metrics=metrics)
        groups = METRIC_GROUPS if metrics == "all" else tuple(metrics.split(","))
        settings = dict(delta=cfg["delta"], range_w=float(cfg["l"]), vus_wmax=float(cfg["l"]),
                        vus_step=cfg["vus_step"])
        raw = evaluate(scores, labels, point_adjust_on=False, **settings,
                       metrics=tuple(g for g in groups if g in ("roc", "pr", "f1")))
        want = {**evaluate(scores, labels, point_adjust_on=True, metrics=groups,
                           **settings).to_dict(),
                **{"raw_" + k: v for k, v in raw.to_dict().items()}}
        calls, real = [], evalmetrics._sweep
        monkeypatch.setattr(evalmetrics, "_sweep", lambda s: calls.append(1) or real(s))
        doc = evaluate_to_doc(scores, labels, cfg)
        assert len(calls) == sweeps
        config = ("n_timestamps", "point_adjust", "delta", "range_w", "vus_wmax", "vus_step",
                  "metrics")
        assert list(doc)[:len(config)] == list(config)
        assert json.dumps({k: v for k, v in doc.items() if k not in config}) == json.dumps(want)

    def test_length_mismatch_exit_code(self, workspace):
        tmp, _ = workspace
        labels = np.zeros(50, dtype=int)
        labels[5:8] = 1
        path = write_scores(tmp, labels, np.random.default_rng(4).random(50))
        other = tmp / "labels.csv"
        other.write_text("x,label\n" + "\n".join("0.0,0" for _ in range(30)) + "\n")
        assert run(["eval", "--scores", path, "--labels-from", other]) == 2


class TestSweep:
    def test_beta_sweep_trains_once(self, workspace):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "beta", "--values", "0.5,1,2",
                    "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 0
        ckpts = sorted(work.glob("*.ckpt"))
        assert len(ckpts) == 1
        rows = read_rows(tmp / "sweep.csv")
        assert [r["value"] for r in rows] == ["0.5", "1.0", "2.0"]
        assert all(r["param"] == "beta" for r in rows)
        assert all(r["auc_pr"] for r in rows)

    def test_delta_sweep_single_checkpoint(self, workspace):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        run(["sweep", "--param", "delta", "--values", "0.5,1",
             "--train", train_csv, "--test", test_csv, "--config", cfg,
             "--out", tmp / "sweep.csv", "--work-dir", work])
        assert len(sorted(work.glob("*.ckpt"))) == 1

    def test_delta_sweep_scores_once(self, workspace, monkeypatch):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return score_series(*args, **kwargs)

        monkeypatch.setattr(sten.cli, "score_series", counted)
        common = ["--train", train_csv, "--test", test_csv, "--config", cfg,
                  "--work-dir", tmp / "work"]
        assert run(["sweep", "--param", "delta", "--values", "0.5,1,2",
                    "--out", tmp / "sweep.csv", *common]) == 0
        assert len(calls) == 1
        # Each row is the one a sweep over that value alone writes.
        rows = []
        for v in ("0.5", "1", "2"):
            assert run(["sweep", "--param", "delta", "--values", v,
                        "--out", tmp / f"sweep_{v}.csv", *common]) == 0
            rows += (tmp / f"sweep_{v}.csv").read_bytes().splitlines(keepends=True)[1:]
        assert (tmp / "sweep.csv").read_bytes().splitlines(keepends=True)[1:] == rows

    def test_beta_sweep_scores_once(self, workspace, monkeypatch):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return score_series(*args, **kwargs)

        monkeypatch.setattr(sten.cli, "score_series", counted)
        common = ["--train", train_csv, "--test", test_csv, "--config", cfg,
                  "--work-dir", tmp / "work"]
        assert run(["sweep", "--param", "beta", "--values", "0,1,2",
                    "--out", tmp / "sweep.csv", *common]) == 0
        assert len(calls) == 1
        # Each row is the one a sweep that scores with that beta writes.
        rows = []
        for v in ("0", "1", "2"):
            assert run(["sweep", "--param", "beta", "--values", v,
                        "--out", tmp / f"sweep_{v}.csv", *common]) == 0
            rows += (tmp / f"sweep_{v}.csv").read_bytes().splitlines(keepends=True)[1:]
        assert (tmp / "sweep.csv").read_bytes().splitlines(keepends=True)[1:] == rows

    def test_alpha_sweep_trains_per_value(self, workspace):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        run(["sweep", "--param", "alpha", "--values", "0.5,2",
             "--train", train_csv, "--test", test_csv, "--config", cfg,
             "--out", tmp / "sweep.csv", "--work-dir", work])
        assert len(sorted(work.glob("*.ckpt"))) == 2

    def test_a_used_work_dir_gives_the_table_of_a_fresh_one(self, workspace):
        """A sweep trains its models afresh: a checkpoint an earlier sweep left
        in the work dir, of another mode here, is not scored."""
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        common = ["--param", "beta", "--values", "0.5,1", "--train", train_csv,
                  "--test", test_csv, "--config", cfg]
        assert run(["sweep", *common, "--mode", "full", "--out", tmp / "full.csv",
                    "--work-dir", tmp / "used"]) == 0
        for work in ("used", "fresh"):
            assert run(["sweep", *common, "--mode", "otn_only", "--out", tmp / f"{work}.csv",
                        "--work-dir", tmp / work]) == 0
        assert (tmp / "used.csv").read_bytes() == (tmp / "fresh.csv").read_bytes()
        assert (tmp / "used.csv").read_bytes() != (tmp / "full.csv").read_bytes()

    def test_trains_once_per_value(self, workspace, monkeypatch):
        """Values that print alike at 6 significant digits train models of
        their own, each in its own file, and a rerun trains them again."""
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        alphas = []

        def counted(series, tc):
            alphas.append(tc.alpha)
            return train(series, tc)

        monkeypatch.setattr(sten.cli, "train", counted)
        for _ in range(2):
            assert run(["sweep", "--param", "alpha", "--values", "0.1234561,0.1234562",
                        "--train", train_csv, "--test", test_csv, "--config", cfg,
                        "--out", tmp / "sweep.csv", "--work-dir", tmp / "work"]) == 0
        assert alphas == [0.1234561, 0.1234562] * 2
        ckpts = sorted((tmp / "work").glob("*.ckpt"))
        assert [load_checkpoint(c).config.alpha for c in ckpts] == [0.1234561, 0.1234562]

    def test_l_sweep_adjusts_layout(self, workspace):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "l", "--values", "2,4",
                    "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 0
        rows = read_rows(tmp / "sweep.csv")
        assert len(rows) == 2

    def test_l_sweep_honours_a_set_r(self, workspace):
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "l", "--values", "3,4", "--set", "r=2",
                    "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 0
        for l in (3, 4):
            tc = load_checkpoint(work / f"model_l_{l}.ckpt").config
            assert (tc.l, tc.r, tc.L) == (l, 2, l + 3 * 2)

    @pytest.mark.parametrize("values,message", [
        ("3,200", "window length 800 exceeds series length 400"),
        ("3,60", "window length 240 exceeds series length 200")], ids=["both", "test-only"])
    def test_window_longer_than_a_series_fails_before_training(self, workspace, capsys,
                                                                values, message):
        """l 200 gives windows longer than the 400-row train series, l 60
        longer than the 200-row test series only; l 3 fits both."""
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "l", "--values", values,
                    "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 2
        assert message in capsys.readouterr().err
        assert not work.exists()
        assert not (tmp / "sweep.csv").exists()

    @pytest.mark.parametrize("values,settings,message", [
        ("3,40", ["--set", "R_train=250"], "mode 'full' needs >= 2 windows for the distance loss"),
        ("3,50", [], "needs >= 2 windows of length 200, got 1")], ids=["train", "test"])
    def test_too_few_windows_for_the_distance_branch_fails_before_training(
            self, workspace, capsys, values, settings, message):
        """l 40 at R_train 250 leaves the 400-row train series one window, and
        l 50 the 200-row test series one; l 3 gives both series two or more."""
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "l", "--values", values, *settings,
                    "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 2
        assert message in capsys.readouterr().err
        assert not work.exists()
        assert not (tmp / "sweep.csv").exists()

    def test_a_window_too_short_for_error_prediction_fails_before_training(self, workspace,
                                                                            capsys):
        """At m 1, l 1 gives windows of length 1, from which the
        error-prediction branch has no next step to predict; l 3 would train."""
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "l", "--values", "3,1", "--set", "m=1",
                    "--set", "R_test=1", "--mode", "dsn_plus_ep",
                    "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 1
        assert "needs windows of length >= 2" in capsys.readouterr().err
        assert not work.exists()
        assert not (tmp / "sweep.csv").exists()

    def test_sweep_trains_with_seed(self, workspace):
        # score does not read the seed; the sweep still trains with it.
        tmp, cfg = workspace
        train_csv, test_csv = prepared_data(tmp, cfg)
        work = tmp / "work"
        assert run(["sweep", "--param", "beta", "--values", "1",
                    "--seed", "3", "--train", train_csv, "--test", test_csv, "--config", cfg,
                    "--out", tmp / "sweep.csv", "--work-dir", work]) == 0
        assert load_checkpoint(work / "model.ckpt").config.seed == 3


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 3\n")
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "d"]) == 1

    def test_flag_overrides_config(self, workspace, capsys):
        tmp, cfg = workspace
        run(["synth", "--config", cfg, "--out-dir", tmp / "d1", "--seed", "7"])
        run(["synth", "--config", cfg, "--out-dir", tmp / "d2", "--seed", "8"])
        assert (tmp / "d1/test.csv").read_bytes() != (tmp / "d2/test.csv").read_bytes()

    def test_missing_required_flag_usage_error(self):
        assert run(["train", "--out", "x.ckpt"]) == 1

    def test_bad_value_type(self, workspace):
        tmp, cfg = workspace
        assert run(["synth", "--config", cfg, "--out-dir", tmp / "d",
                    "--set", "dims=three"]) == 1

    @pytest.mark.parametrize("setting", ["normalize_embeddings = false", "score_eps = 1e-8"])
    def test_deleted_key_in_a_config_file_is_unknown(self, workspace, capsys, setting):
        """The keys of the distance form and of the order score's floor went
        with their fields (TestBadSettings passes them by --set)."""
        tmp, cfg = workspace
        key = setting.split(" ")[0]
        cfg.write_text(SMALL_CONFIG + setting + "\n")
        # The config is read before the training series, which is not there.
        assert run(["train", "--train", tmp / "train.csv", "--config", cfg,
                    "--out", tmp / "m.ckpt"]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp / "m.ckpt").exists()

    def test_config_may_start_with_a_byte_order_mark(self, workspace):
        """As read_table reads a CSV: a BOM before the first key is no part of it."""
        tmp, cfg = workspace
        bom = tmp / "bom.cfg"
        bom.write_text("\ufeffn_train = 400" + SMALL_CONFIG.replace("n_train = 400", ""),
                       encoding="utf-8")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbfn_train")
        assert run(["synth", "--config", cfg, "--out-dir", tmp / "d1"]) == 0
        assert run(["synth", "--config", bom, "--out-dir", tmp / "d2"]) == 0
        for name in ("train.csv", "test.csv"):
            assert (tmp / "d1" / name).read_bytes() == (tmp / "d2" / name).read_bytes()

    def test_flag_wins_over_set(self, workspace):
        tmp, cfg = workspace
        run(["synth", "--config", cfg, "--out-dir", tmp / "d1", "--seed", "8"])
        run(["synth", "--config", cfg, "--out-dir", tmp / "d2", "--seed", "8", "--set", "seed=9"])
        assert (tmp / "d1/test.csv").read_bytes() == (tmp / "d2/test.csv").read_bytes()


BUILDERS = {SynthConfig: build_synth_config, TrainConfig: build_train_config,
            ScoreConfig: build_score_config}


def schema_defaults():
    return {k: default for k, (_, default) in SCHEMA.items()}


class TestConfigSchema:
    """cli.SCHEMA is derived from the config dataclasses' fields."""

    def test_keys(self):
        assert sorted(SCHEMA) == sorted(
            "seed n_train n_test dims anomaly_rate noise_sigma seg_len_min seg_len_max "
            "period_min period_max n_components spike_scale level_scale freq_scale anomaly_types "
            "R_train l r m d_model alpha lr epochs batch_size mode "
            "beta R_test delta point_adjust metrics range_w vus_wmax vus_step".split())
        assert len(SCHEMA) == 33

    def test_fields_are_keys_of_their_type_and_default(self):
        exceptions = {"r"}                  # optional: it follows l
        for cls in BUILDERS:
            for f in fields(cls):
                if f.name not in exceptions:
                    assert SCHEMA[f.name] == (f.type, f.default), (cls.__name__, f.name)

    def test_builders_return_the_defaults(self):
        cfg = schema_defaults()
        assert build_synth_config(cfg) == SynthConfig()
        assert build_train_config(cfg) == TrainConfig()
        assert build_score_config(cfg) == ScoreConfig()

    def test_every_field_is_reachable_from_a_key(self):
        """Each field of each config changes when one key moves off its default."""
        def moved(key, kind, default):
            if kind.startswith("int"):
                return (default or 0) + 1
            if kind.startswith("float"):
                return (default or 0.5) * 2
            return "otn_only" if key == "mode" else ("spike",)

        base = {cls: build(schema_defaults()) for cls, build in BUILDERS.items()}
        reached = set()
        for key, (kind, default) in SCHEMA.items():
            cfg = dict(schema_defaults(), **{key: moved(key, kind, default)})
            for cls, build in BUILDERS.items():
                got = build(cfg)
                reached |= {(cls, f.name) for f in fields(cls)
                            if getattr(got, f.name) != getattr(base[cls], f.name)}
        assert reached == {(cls, f.name) for cls in BUILDERS for f in fields(cls)}

    def test_layout_keys_follow_l_and_m(self):
        tc = build_train_config(dict(schema_defaults(), l=5, m=4))
        assert (tc.l, tc.r, tc.m, tc.L) == (5, 5, 4, 20)
        tc = build_train_config(dict(schema_defaults(), l=5, m=4, r=2))
        assert (tc.r, tc.L) == (2, 11)

    def test_convert_by_annotation(self):
        assert _convert("anomaly_types", " spike, level_shift ,") == ("spike", "level_shift")
        assert _convert("anomaly_types", "") == ()
        assert _convert("r", "none") is None and _convert("range_w", "") is None
        assert _convert("r", "12") == 12 and _convert("vus_step", "2") == 2.0
        for key, raw in [("dims", "2.0"), ("alpha", "x")]:
            with pytest.raises(sten.ConfigError, match="bad value"):
                _convert(key, raw)


# A named flag is the --set of its key: the same bytes come out.
FLAG_PAIRS = [
    pytest.param("synth", ["--seed", "7"], ["--set", "seed=7"], id="seed"),
    pytest.param("eval", ["--metrics", "roc"], ["--set", "metrics=roc"], id="metrics"),
    pytest.param("eval", ["--point-adjust", "off"], ["--set", "point_adjust=off"],
                 id="point-adjust"),
]


class TestFlagsAreSetKeys:
    @pytest.mark.parametrize("command,flag,setting", FLAG_PAIRS)
    def test_same_bytes(self, workspace, command, flag, setting):
        tmp, cfg = workspace
        labels = np.zeros(80, dtype=int)
        labels[30:40] = 1
        scores = write_scores(tmp, labels, np.random.default_rng(5).random(80) + 0.3 * labels)
        outputs = []
        for i, extra in enumerate((flag, setting)):
            if command == "synth":
                out = tmp / f"d{i}"
                assert run(["synth", "--config", cfg, "--out-dir", out, *extra]) == 0
                outputs.append([(out / n).read_bytes() for n in ("train.csv", "test.csv")])
            else:
                out = tmp / f"rep{i}.json"
                assert run(["eval", "--scores", scores, "--out", out, *extra]) == 0
                outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Data, config, a checkpoint with every kind of block, and its scores."""
    tmp = tmp_path_factory.mktemp("trained")
    cfg = tmp / "run.cfg"
    cfg.write_text(SMALL_CONFIG)
    train_csv, test_csv = prepared_data(tmp, cfg)
    assert run(["train", "--train", train_csv, "--config", cfg, "--mode", "dsn_plus_ep",
                "--out", tmp / "m.ckpt"]) == 0
    assert run(["score", "--model", tmp / "m.ckpt", "--test", test_csv, "--config", cfg,
                "--out", tmp / "s.csv"]) == 0
    latin1_cfg = tmp / "latin1.cfg"
    latin1_cfg.write_bytes(SMALL_CONFIG.encode() + b"# caf\xe9\n")
    return {"dir": tmp, "cfg": cfg, "train": train_csv, "test": test_csv,
            "ckpt": tmp / "m.ckpt", "scores": tmp / "s.csv", "latin1_cfg": latin1_cfg}


def sten_process(argv, files, timeout=None):
    """Run the CLI in a fresh interpreter; {name} in argv is a path from ``files``."""
    argv = [str(a).format(**files) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(sten.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "sten.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_a_train_whose_gru_passes_use_the_worker_exits(workspace):
    """d_model 128 over one batch of 130 windows: every GRU pass runs on two
    threads, and no helper thread holds the interpreter open."""
    tmp, cfg = workspace
    train_csv, _ = prepared_data(tmp, cfg)
    proc = sten_process(["train", "--train", train_csv, "--config", cfg, "--set", "d_model=128",
                         "--set", "batch_size=256", "--out", tmp / "m.ckpt"], {}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert load_checkpoint(tmp / "m.ckpt").config.d_model == 128


def test_a_score_whose_eta_pass_runs_beside_phi_exits(workspace, monkeypatch):
    """A dsn_plus_ep model at d_model 32 scores one chunk of 1,024 windows:
    eta's pass runs on a helper thread beside phi's forward, no helper thread
    holds the interpreter open, and the scores have the bits of a serial run."""
    tmp, cfg = workspace
    run(["synth", "--config", cfg, "--set", "n_test=6150", "--out-dir", tmp / "data"])
    test_csv = tmp / "data/test.csv"
    assert run(["train", "--train", tmp / "data/train.csv", "--config", cfg, "--mode",
                "dsn_plus_ep", "--set", "d_model=32", "--out", tmp / "m.ckpt"]) == 0
    tc = load_checkpoint(tmp / "m.ckpt").config
    n_windows = (6150 - tc.L) // 6 + 1            # R_test 6, no tail window
    assert n_windows == 1024 and ndkernel._runs_beside(n_windows, tc.d_model)
    proc = sten_process(["score", "--model", tmp / "m.ckpt", "--test", test_csv, "--config", cfg,
                         "--out", tmp / "beside.csv"], {}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(ndkernel, "_runs_beside", lambda B, d: False)
    assert run(["score", "--model", tmp / "m.ckpt", "--test", test_csv, "--config", cfg,
                "--out", tmp / "serial.csv"]) == 0
    assert (tmp / "beside.csv").read_bytes() == (tmp / "serial.csv").read_bytes()


# A d_model whose first weight block, (3 d_model, dims) float64, lies beyond
# the 128 TiB address space of x86-64: its allocation fails at once under any
# overcommit setting, before any memory is touched.
BEYOND_ADDRESS_SPACE_D_MODEL = 10 ** 14


def test_an_allocation_that_cannot_fit_is_a_usage_error(workspace):
    """numpy's MemoryError exits 1 with its message, not a traceback."""
    tmp, cfg = workspace
    train_csv, _ = prepared_data(tmp, cfg)
    proc = sten_process(["train", "--train", train_csv, "--config", cfg, "--set",
                         f"d_model={BEYOND_ADDRESS_SPACE_D_MODEL}", "--out", tmp / "m.ckpt"],
                        {}, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("sten: usage error: ")
    assert "Unable to allocate" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp / "m.ckpt").exists()


EXIT_CASES = [
    pytest.param(["train", "--train", "{missing}", "--config", "{cfg}", "--out", "{out}"], 2,
                 id="train-missing-train"),
    pytest.param(["train", "--train", "{train}", "--config", "{missing}", "--out", "{out}"], 2,
                 id="train-missing-config"),
    pytest.param(["score", "--model", "{missing}", "--test", "{test}", "--config", "{cfg}",
                  "--out", "{out}"], 2, id="score-missing-model"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{missing}", "--config", "{cfg}",
                  "--out", "{out}"], 2, id="score-missing-test"),
    # Score draws its references from the test windows: --train is no score
    # flag, so naming a missing file there is a usage error.
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--train", "{missing}",
                  "--config", "{cfg}", "--out", "{out}"], 1, id="score-missing-train"),
    pytest.param(["eval", "--scores", "{missing}"], 2, id="eval-missing-scores"),
    pytest.param(["eval", "--scores", "{scores}", "--labels-from", "{missing}"], 2,
                 id="eval-missing-labels"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--beta", "-1", "--out", "{out}"], 1, id="score-negative-beta"),
    pytest.param(["eval", "--scores", "{scores}", "--delta", "0"], 1, id="eval-zero-delta"),
    # The sweep scores once, at the first value, and still checks every later one.
    pytest.param(["sweep", "--param", "beta", "--values", "1,-1", "--train", "{train}",
                  "--test", "{test}", "--config", "{cfg}", "--out", "{out}",
                  "--work-dir", "{out}-work"], 1, id="sweep-negative-beta"),
    # A flag is offered only by the subcommands that read it.
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--delta", "0", "--out", "{out}"], 1, id="score-unread-delta"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--mode", "dsn_only", "--out", "{out}"], 1, id="score-unread-mode"),
] + [
    # A checkpoint whose checksum holds but whose body breaks the layout.
    pytest.param(["score", "--model", "{%s}" % name, "--test", "{test}", "--config", "{cfg}",
                  "--out", "{out}"], 2, id=f"score-checkpoint-{name.replace('_', '-')}")
    for name in ("bad_json", "config_too_deep", "config_not_utf8", "config_array",
                 "config_past_end", "blocks_past_end", "short_block", "trailing_bytes",
                 "duplicate_block")
]


def checkpoint_body(cfg=b"{}", blocks=(), cfg_len=None, n_blocks=None):
    """A checkpoint body in the layout of networks.write_checkpoint; ``blocks``
    are (name, shape, float32 data) and the lengths and counts may lie."""
    body = b"STENCKPT" + struct.pack("<I", 1)
    body += struct.pack("<I", len(cfg) if cfg_len is None else cfg_len) + cfg
    body += struct.pack("<I", len(blocks) if n_blocks is None else n_blocks)
    for name, shape, data in blocks:
        nb = name.encode("utf-8")
        body += struct.pack("<H", len(nb)) + nb + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        body += np.asarray(data, "<f4").tobytes()
    return body


@pytest.fixture(scope="module")
def malformed(trained, tmp_path_factory):
    """Checkpoints with a valid sha256 over a body that breaks the layout."""
    tmp = tmp_path_factory.mktemp("malformed")
    cfg, blocks = read_checkpoint(trained["ckpt"])
    cfg = json.dumps(cfg, sort_keys=True).encode("utf-8")
    listed = [(k, v.shape, v) for k, v in sorted(blocks.items())]
    bodies = {
        "bad_json": checkpoint_body(cfg=b"{not json"),
        "config_too_deep": checkpoint_body(cfg=b"[" * 100_000 + b"]" * 100_000),
        "config_not_utf8": checkpoint_body(cfg=b'{"mode": "\xff"}'),
        "config_array": checkpoint_body(cfg=b"[1, 2]"),
        "config_past_end": checkpoint_body(cfg_len=1000),
        "blocks_past_end": checkpoint_body(cfg=cfg, blocks=listed, n_blocks=len(listed) + 1),
        "short_block": checkpoint_body(cfg=cfg, blocks=[("norm.mean", (4,), np.zeros(2))]),
        "trailing_bytes": checkpoint_body(cfg=cfg, blocks=listed) + b"\0",
        "duplicate_block": checkpoint_body(cfg=cfg, blocks=listed + listed[:1]),
    }
    paths = {}
    for name, body in bodies.items():
        paths[name] = tmp / f"{name}.ckpt"
        paths[name].write_bytes(body + hashlib.sha256(body).digest())
    return paths


# A non-finite float anywhere in the merged config (file, --set or a flag) is
# a usage error raised before any output is written.
NON_FINITE_CASES = [
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "beta=nan", "--out", "{out}"], id="score-beta-nan"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "beta=inf", "--out", "{out}"], id="score-beta-inf"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--beta", "inf", "--out", "{out}"], id="score-beta-flag-inf"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "vus_wmax=inf", "--out", "{out}"],
                 id="eval-vus-wmax-inf"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "vus_wmax=nan", "--out", "{out}"],
                 id="eval-vus-wmax-nan"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "range_w=nan", "--out", "{out}"],
                 id="eval-range-w-nan"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "vus_step=nan", "--out", "{out}"],
                 id="eval-vus-step-nan"),
    pytest.param(["eval", "--scores", "{scores}", "--delta", "nan", "--out", "{out}"],
                 id="eval-delta-nan"),
    pytest.param(["train", "--train", "{train}", "--config", "{cfg}", "--alpha", "nan",
                  "--out", "{out}"], id="train-alpha-nan"),
    pytest.param(["train", "--train", "{train}", "--config", "{nonfinite_cfg}",
                  "--out", "{out}"], id="train-config-file-lr-inf"),
    pytest.param(["sweep", "--param", "beta", "--values", "1,nan", "--train", "{train}",
                  "--test", "{test}", "--config", "{cfg}", "--out", "{out}",
                  "--work-dir", "{out}-work"], id="sweep-value-nan"),
]


class TestNonFiniteConfig:
    @pytest.mark.parametrize("argv", NON_FINITE_CASES)
    def test_usage_error_and_no_output(self, trained, tmp_path, capsys, argv):
        nonfinite_cfg = tmp_path / "nonfinite.cfg"
        nonfinite_cfg.write_text(SMALL_CONFIG + "lr = inf\n")
        files = dict(trained, out=tmp_path / "out", nonfinite_cfg=nonfinite_cfg)
        assert run([str(a).format(**files) for a in argv]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "out-work").exists()


class TestExitCodes:
    @pytest.mark.parametrize("argv,code", EXIT_CASES)
    def test_exit_code_without_traceback(self, trained, malformed, tmp_path, argv, code):
        files = dict(trained, **malformed, missing=tmp_path / "missing" / "file",
                     out=tmp_path / "out")
        proc = sten_process(argv, files)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("sten: ")


def sweep(*extra):
    return ["sweep", "--train", "{train}", "--test", "{test}", "--config", "{cfg}",
            "--out", "{out}", "--work-dir", "{out}-work", *extra]


# A bad setting exits with its documented code before any work: no exception
# escapes main, and no output file or sweep work dir is made.
BAD_SETTING_CASES = [
    pytest.param(sweep("--param", "alpha", "--values", "1,2", "--set", "metrics=bogus"), 1,
                 id="sweep-unknown-metric-group"),
    pytest.param(sweep("--param", "alpha", "--values", "1,2", "--delta", "0"), 1,
                 id="sweep-zero-delta"),
    pytest.param(sweep("--param", "alpha", "--values", "1,2", "--set", "point_adjust=bogus"), 1,
                 id="sweep-bad-point-adjust"),
    pytest.param(sweep("--param", "delta", "--values", "1,0"), 1, id="sweep-zero-delta-value"),
    pytest.param(sweep("--param", "beta", "--values", "1", "--set", "metrics=,"), 1,
                 id="sweep-no-metric-group"),
    pytest.param(sweep("--param", "alpha", "--values", "1,-1"), 1, id="sweep-negative-alpha"),
    pytest.param(sweep("--param", "beta", "--values", "1", "--seed", "-1"), 1,
                 id="sweep-negative-seed"),
    # Every value's config is checked before the first model trains: alpha 0
    # has no distance branch, alpha 1 needs two windows per batch.
    pytest.param(sweep("--param", "alpha", "--values", "0,1", "--mode", "full",
                       "--set", "batch_size=1"), 1, id="sweep-batch-size-one-with-distance"),
    # L follows l, m and r: it is no key a sweep over l could hold fixed.
    pytest.param(sweep("--param", "l", "--values", "3,2", "--set", "L=12"), 1,
                 id="sweep-l-breaks-set-L"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "range_w=-1", "--out", "{out}"], 1,
                 id="eval-negative-range-w"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "vus_wmax=-1", "--out", "{out}"], 1,
                 id="eval-negative-vus-wmax"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "vus_step=0", "--out", "{out}"], 1,
                 id="eval-zero-vus-step"),
    # A step that gives more than VUS_MAX_WIDTHS buffer widths is refused
    # before any width is built.
    pytest.param(["eval", "--scores", "{scores}", "--set", "vus_step=1e-300", "--out", "{out}"],
                 1, id="eval-tiny-vus-step"),
    # l sets the default range_w and vus_wmax, and must be >= 1 as in training.
    pytest.param(["eval", "--scores", "{scores}", "--set", "l=0", "--out", "{out}"], 1,
                 id="eval-zero-l"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "l=-1", "--out", "{out}"], 1,
                 id="eval-negative-l"),
] + [
    pytest.param(["synth", "--config", "{cfg}", "--out-dir", "{out}", *extra], 1,
                 id=f"synth-{name}")
    for name, extra in [
        ("negative-noise-sigma", ["--set", "noise_sigma=-1"]),
        ("negative-n-components", ["--set", "n_components=-1"]),
        ("period-min-above-max", ["--set", "period_min=200"]),
        ("no-anomaly-types", ["--set", "anomaly_types="]),
        ("zero-periods", ["--set", "period_min=0", "--set", "period_max=0"]),
        ("negative-seed", ["--seed", "-1"])]
] + [
    # eta_seed, separate_towers, k_refs and normalize_embeddings are keys of
    # deleted fields: unknown keys.
    pytest.param(["train", "--train", "{train}", "--config", "{cfg}", "--out", "{out}",
                  "--set", setting], 1, id=f"train-{setting.replace('_', '-')}")
    for setting in ("seed=-1", "eta_seed=-1", "separate_towers=yes", "k_refs=2",
                    "normalize_embeddings=yes")
] + [
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "seed=-1", "--out", "{out}"], 1, id="score-negative-seed"),
    # The order score's floor is the constant scoring.SCORE_EPS: score_eps is
    # no key, whatever its value.
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "score_eps=0", "--out", "{out}"], 1, id="score-eps-zero"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "score_eps=1e-6", "--out", "{out}"], 1, id="score-eps-unknown"),
    # References come from the test windows only: ref_source is no key.
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "ref_source=train", "--out", "{out}"], 1,
                 id="score-train-references-without-train"),
] + [
    # The checkpoint holds the model's settings; score reads only its own keys
    # from --set (a shared --config file may hold any key).
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", setting, "--out", "{out}"], 1,
                 id=f"score-unread-{setting.split('=')[0].replace('_', '-')}")
    for setting in ("d_model=64", "epochs=9", "n_train=10", "L=12", "r=3", "point_adjust=off",
                    "k_refs=2")
] + [
    # Sub-sequences at a stride r above their length l leave gaps in a window,
    # and windows at a stride R_test above their length L (12 here) leave gaps
    # between them: both are refused before any model trains or scores.
    pytest.param(["train", "--train", "{train}", "--config", "{cfg}", "--set", "r=5",
                  "--out", "{out}"], 1, id="train-r-above-l"),
    pytest.param(sweep("--param", "l", "--values", "5,2", "--set", "r=3"), 1,
                 id="sweep-r-above-l"),
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--set", "R_test=13", "--out", "{out}"], 1, id="score-R-test-above-L"),
    pytest.param(sweep("--param", "beta", "--values", "1", "--set", "R_test=13"), 1,
                 id="sweep-R-test-above-L"),
] + [
    # Scoring draws no random numbers: score has no --seed.
    pytest.param(["score", "--model", "{ckpt}", "--test", "{test}", "--config", "{cfg}",
                  "--seed", "3", "--out", "{out}"], 1, id="score-seed-flag"),
] + [
    # Every other command also rejects a --set key it does not read.
    pytest.param(["synth", "--config", "{cfg}", "--out-dir", "{out}", "--set", "d_model=9"], 1,
                 id="synth-unread-d-model"),
    pytest.param(["train", "--train", "{train}", "--config", "{cfg}", "--out", "{out}",
                  "--set", "beta=3"], 1, id="train-unread-beta"),
    pytest.param(["eval", "--scores", "{scores}", "--set", "seed=4", "--out", "{out}"], 1,
                 id="eval-unread-seed"),
    pytest.param(sweep("--param", "beta", "--values", "1", "--set", "n_train=5"), 1,
                 id="sweep-unread-n-train"),
] + [
    # A config file that is not UTF-8 text.
    pytest.param(["train", "--train", "{train}", "--config", "{latin1_cfg}", "--out", "{out}"], 1,
                 id="train-config-not-utf8"),
]


class TestBadSettings:
    @pytest.mark.parametrize("argv,code", BAD_SETTING_CASES)
    def test_exit_code_and_no_output(self, trained, tmp_path, capsys, argv, code):
        files = dict(trained, out=tmp_path / "out")
        assert run([str(a).format(**files) for a in argv]) == code
        assert capsys.readouterr().err.startswith("sten: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("l", ["0", "-1"])
    def test_eval_names_a_bad_l(self, trained, capsys, l):
        """The error names l, not the buffer width l sets by default."""
        assert run(["eval", "--scores", trained["scores"], "--set", f"l={l}"]) == 1
        assert f"l must be >= 1, got {l}" in capsys.readouterr().err


SCORES_HEADER = "timestamp,score,score_otn,score_dsn,label\n"

# (command, contents of the bad file, what the error names): one row per
# failure mode of seqdata.load_csv (a --labels-from file) and of
# scoring.read_scores_csv (a --scores file).
CSV_CASES = [
    pytest.param("labels", "", "empty file", id="csv-empty"),
    pytest.param("labels", "a,label\n", "no data rows", id="csv-header-only"),
    pytest.param("labels", "a,label\n1.0,0\n2.0\n", "line 3: expected 2 columns",
                 id="csv-ragged-row"),
    pytest.param("labels", "a,label\n1.0,0\nabc,1\n", "line 3: cannot parse value 'abc'",
                 id="csv-unparsable-value"),
    pytest.param("labels", "a,label\ninf,0\n", "line 2: value must be finite, got 'inf'",
                 id="csv-non-finite-value"),
    pytest.param("labels", "a,label\n\n1.0,0\n\nabc,1\n", "line 5: cannot parse value 'abc'",
                 id="csv-blank-lines-keep-line-numbers"),
    pytest.param("labels", "a,label\n1.0,7\n", "line 2: label must be 0 or 1, got '7'",
                 id="csv-bad-label"),
    pytest.param("labels", "label\n0\n1\n", "no value columns",
                 id="csv-no-value-column"),
    pytest.param("labels", "a,label,label\n1.0,0,1\n", "header names column 'label' twice",
                 id="csv-duplicate-column"),
    pytest.param("scores", SCORES_HEADER, "no data rows after header", id="scores-header-only"),
    pytest.param("scores", "timestamp,score,score_otn,score_dsn,score,label\n1,0.5,0.5,0,0.9,0\n",
                 "header names column 'score' twice", id="scores-duplicate-column"),
    pytest.param("scores", "timestamp,score,score_otn\n1,0.5,0.5\n", "missing column 'score_dsn'",
                 id="scores-missing-column"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\n2,0.5,0.5,0\n",
                 "line 3: expected 5 columns", id="scores-ragged-row"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\n2,abc,0.1,0,1\n",
                 "line 3: cannot parse score 'abc'", id="scores-unparsable-score"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\n2,nan,0.1,0,1\n",
                 "line 3: score must be finite, got 'nan'", id="scores-nan-score"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,inf,0,0\n2,0.5,0.1,0,1\n",
                 "line 2: score_otn must be finite, got 'inf'", id="scores-inf-component"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,7\n2,0.5,0.1,0,1\n",
                 "line 2: label must be 0 or 1, got '7'", id="scores-bad-label"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\nx,0.5,0.1,0,1\n",
                 "line 3: cannot parse timestamp 'x'", id="scores-unparsable-timestamp"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\n\n2,abc,0.1,0,1\n",
                 "line 4: cannot parse score 'abc'", id="scores-blank-lines-keep-line-numbers"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,01\n",
                 "line 2: label must be 0 or 1, got '01'", id="scores-label-not-0-or-1"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\n\n3,0.1,0.1,0,1\n2,0.9,0.9,0,0\n",
                 "data row 2 has timestamp 3; timestamps must be 1, 2, ..., n in file order",
                 id="scores-timestamp-out-of-order"),
    pytest.param("labels", b"a,label\n1.0,0\ncaf\xe9,1\n", "not UTF-8 text", id="csv-not-utf8"),
    pytest.param("scores", SCORES_HEADER.encode() + b"1,0.5,0.5,0,\xff\n", "not UTF-8 text",
                 id="scores-not-utf8"),
    pytest.param("scores", SCORES_HEADER + "1,0.5,0.5,0,0\n2," + "0" * 131_072 + "5,0.1,0,1\n",
                 "line 3: field larger than field limit", id="scores-cell-over-field-limit"),
    pytest.param("scores", SCORES_HEADER + "9223372036854775808,0.5,0.5,0,0\n",
                 "line 2: cannot parse timestamp '9223372036854775808'",
                 id="scores-timestamp-beyond-int64"),
    pytest.param("scores", SCORES_HEADER + "1.0,0.5,0.5,0,0\n2.0,0.1,0.1,0,1\n",
                 "line 2: cannot parse timestamp '1.0'", id="scores-timestamp-written-as-float"),
]


class TestCsvErrors:
    @pytest.mark.parametrize("command,contents,message", CSV_CASES)
    def test_data_error_names_file_and_line(self, tmp_path, command, contents, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
        good = tmp_path / "good.csv"
        good.write_text(SCORES_HEADER + "1,0.5,0.5,0,0\n2,0.1,0.1,0,1\n")
        argv = (["eval", "--scores", good, "--labels-from", bad] if command == "labels"
                else ["eval", "--scores", bad])
        proc = sten_process(argv, {})
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("sten: data error: ")
        assert f"{bad}: " in proc.stderr and message in proc.stderr


CHECKPOINT_BLOCKS = sorted(
    [t + n for t in ("phi.gru.", "eta.gru.") for n in GruParams.NAMES]
    + ["phi.order_head.W", "phi.order_head.b", "phi.ep_head.W", "phi.ep_head.b",
       "norm.mean", "norm.std", "trace.losses"])


# Each gate's rows of a stacked GRU block, under the per-gate block names that
# checkpoints once held: phi.gru.W_h is the h rows of phi.gru.W (z, r, h order).
GATE_PARTS = sorted(t + n + "_" + g for t in ("phi.gru.", "eta.gru.")
                    for n in GruParams.NAMES for g in "zrh")


def block_of(name):
    """The checkpoint block ``name`` is, or for a gate part the stacked block
    it is rows of."""
    return name.rsplit("_", 1)[0] if name in GATE_PARTS else name


def edit_block(name, blocks, change):
    """Replace block ``name``, or the rows of gate part ``name``, by
    ``change`` of them."""
    if name not in GATE_PARTS:
        blocks[name] = change(blocks[name])
        return
    parts = np.split(blocks[block_of(name)], 3)
    gate = "zrh".index(name[-1])
    parts[gate] = change(parts[gate])
    blocks[block_of(name)] = np.concatenate(parts)


def widened(arr):
    """The block with one more entry along its last axis."""
    return np.zeros(arr.shape[:-1] + (arr.shape[-1] + 1,), dtype=np.float32)


def drop_d_in(cfg, blocks):
    del cfg["d_in"]


def break_layout(cfg, blocks):
    """An L off the layout; checkpoints hold no L, which l, m and r give."""
    cfg["L"] = cfg["l"] + (cfg["m"] - 1) * cfg["r"] + 1


def no_separate_towers(cfg, blocks):
    """The separate_towers key every checkpoint held before its field was deleted."""
    cfg["separate_towers"] = False


def no_ep_head(cfg, blocks):
    cfg["mode"] = "dsn_only"


def wrong_type(key, value):
    """A config value no field accepts: of another type than the declared
    one, a non-finite float, or the value of a key no field has."""
    def edit(cfg, blocks):
        cfg[key] = value
    return pytest.param(edit, id=f"{key}={json.dumps(value)}")


class TestCheckpointContents:
    """A checkpoint with a valid checksum but wrong contents is a data error."""

    def score_with(self, trained, tmp_path, capsys, edit):
        cfg, blocks = read_checkpoint(trained["ckpt"])
        edit(cfg, blocks)
        # Written by hand: write_checkpoint refuses a non-finite block.
        body = checkpoint_body(json.dumps(cfg, sort_keys=True).encode("utf-8"),
                               [(k, v.shape, v) for k, v in sorted(blocks.items())])
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(body + hashlib.sha256(body).digest())
        code = run(["score", "--model", bad, "--test", trained["test"],
                    "--config", trained["cfg"], "--out", tmp_path / "s.csv"])
        return code, capsys.readouterr().err

    def test_table_lists_every_block(self, trained):
        assert sorted(read_checkpoint(trained["ckpt"])[1]) == CHECKPOINT_BLOCKS

    @pytest.mark.parametrize("name", CHECKPOINT_BLOCKS + GATE_PARTS)
    def test_missing_block(self, trained, tmp_path, capsys, name):
        """A block that is not there, or a stacked block without one gate's
        rows."""
        def edit(cfg, blocks):
            if name in GATE_PARTS:
                edit_block(name, blocks, lambda rows: rows[:0])
            else:
                del blocks[name]

        code, err = self.score_with(trained, tmp_path, capsys, edit)
        assert code == 2
        assert (f"block {block_of(name)} has shape" if name in GATE_PARTS else name) in err

    @pytest.mark.parametrize("name", CHECKPOINT_BLOCKS + GATE_PARTS)
    def test_misshapen_block(self, trained, tmp_path, capsys, name):
        """A gate part is misshapen by one row too many, as its rows cannot
        be widened alone."""
        change = (lambda rows: np.concatenate([rows, rows[:1]])) if name in GATE_PARTS \
            else widened
        code, err = self.score_with(trained, tmp_path, capsys,
                                    lambda cfg, blocks: edit_block(name, blocks, change))
        assert code == 2
        assert f"block {block_of(name)} has shape" in err

    @pytest.mark.parametrize("name", CHECKPOINT_BLOCKS + GATE_PARTS)
    def test_non_finite_block(self, trained, tmp_path, capsys, name):
        def last_nan(arr):
            arr = arr.copy()
            arr.flat[-1] = np.nan
            return arr

        code, err = self.score_with(trained, tmp_path, capsys,
                                    lambda cfg, blocks: edit_block(name, blocks, last_nan))
        assert code == 2
        assert f"block {block_of(name)} has a non-finite value" in err
        assert not (tmp_path / "s.csv").exists()

    def test_per_gate_gru_blocks(self, trained, tmp_path, capsys):
        """Checkpoints once held each GRU as nine per-gate blocks (W_z, W_r,
        W_h, U_z, ..., b_h) where they now hold the stacked W, U and b."""
        def edit(cfg, blocks):
            for tower in ("phi.gru.", "eta.gru."):
                for n in GruParams.NAMES:
                    stacked = blocks.pop(tower + n)
                    for gate, part in zip("zrh", np.split(stacked, 3)):
                        blocks[f"{tower}{n}_{gate}"] = part

        code, err = self.score_with(trained, tmp_path, capsys, edit)
        assert code == 2
        missing, unexpected = err.split("unexpected")
        assert "'phi.gru.W'" in missing and "'phi.gru.W_z'" in unexpected
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("name", ["norm.mean", "norm.std"])
    def test_non_finite_norm_of_dsn_only_model(self, trained, tmp_path, capsys, name):
        """A dsn_only model once scored a NaN normalisation into a NaN scores file."""
        def edit(cfg, blocks):
            no_ep_head(cfg, blocks)
            del blocks["phi.ep_head.W"], blocks["phi.ep_head.b"]
            blocks[name][0] = np.inf

        code, err = self.score_with(trained, tmp_path, capsys, edit)
        assert code == 2
        assert name in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("edit", [
        drop_d_in, break_layout, no_separate_towers, no_ep_head,
        wrong_type("normalize_embeddings", "no"), wrong_type("separate_towers", 1),
        wrong_type("d_model", 4.0), wrong_type("epochs", True), wrong_type("d_in", True),
        wrong_type("alpha", "1"), wrong_type("lr", None), wrong_type("eta_seed", 1.5),
        wrong_type("mode", ["full"]), wrong_type("alpha", float("nan")),
        wrong_type("alpha", float("inf")), wrong_type("lr", float("nan"))])
    def test_config_disagrees(self, trained, tmp_path, capsys, edit):
        code, err = self.score_with(trained, tmp_path, capsys, edit)
        assert code == 2
        assert "checkpoint" in err
        assert not (tmp_path / "s.csv").exists()

    def test_trace_has_one_row_per_epoch(self, trained, tmp_path, capsys):
        def edit(cfg, blocks):
            assert cfg["epochs"] == 2
            blocks["trace.losses"] = blocks["trace.losses"][:1]

        code, err = self.score_with(trained, tmp_path, capsys, edit)
        assert code == 2
        assert "trace.losses has shape (1, 3), expected (2, 3)" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("key", [f.name for f in fields(TrainConfig)])
    def test_missing_config_key(self, trained, tmp_path, capsys, key):
        # No TrainConfig default stands in for a key the checkpoint lacks.
        code, err = self.score_with(trained, tmp_path, capsys,
                                    lambda cfg, blocks: cfg.pop(key))
        assert code == 2
        assert f"missing config keys in checkpoint: [{key!r}]" in err

    @pytest.mark.parametrize("key,value", [("L", 12), ("eta_seed", None),
                                           ("separate_towers", False), ("k_refs", 1),
                                           ("normalize_embeddings", False)])
    def test_deleted_config_key(self, trained, tmp_path, capsys, key, value):
        """Checkpoints written before these fields were deleted hold them; a
        key no field reads is rejected, not dropped."""
        code, err = self.score_with(trained, tmp_path, capsys,
                                    lambda cfg, blocks: cfg.update({key: value}))
        assert code == 2
        assert f"unknown config keys in checkpoint: [{key!r}]" in err
        assert not (tmp_path / "s.csv").exists()
