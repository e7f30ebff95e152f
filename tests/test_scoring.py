import threading
import tracemalloc

import numpy as np
import pytest

from sten import ConfigError, DataError, ndkernel, networks, scoring, seqdata, training
from sten.evalmetrics import threshold_percentile
from sten.ndkernel import init_gru
from sten.networks import init_phi
from sten.scoring import (ScoreConfig, aggregate_timestamps, distance_scores,
                          read_scores_csv, score_series, write_scores_csv)
from sten.seqdata import MultivariateSeries, NormStats, batch_ranges, window_starts
from sten.training import (TrainConfig, TrainedModel, load_checkpoint,
                           save_checkpoint, seed_streams)

import oracles

# distance_scores against the exact all-references score of
# oracles.distance_scores_gram: the largest difference over the largest score.
# Measured at most 3.3e-15 on 30 random shapes (n 2-29, d 1-11), with eta's
# embeddings independent of phi's or phi's plus 1e-4 or 1e-7 noise; the
# expansion into E E^T - F F^T lost 1.3e-9 on the 1e-7 cases.
DSN_EXACT_RTOL = 1e-13

# Float32 compute against float64: the largest difference in a score column
# over the column's largest value.  Measured at most 4.5e-7 on
# TestFloat32Scores's cases (score_dsn; score_otn 3.8e-8).
F32_SCORE_RTOL = 5e-6


def tiny_model(seed=0, mode="full", d=2, d_model=6, m=4, l=3, r=3, alpha=1.0):
    cfg = TrainConfig(R_train=r, l=l, r=r, m=m, d_model=d_model, mode=mode, seed=seed,
                      alpha=alpha)
    cfg.validate()
    streams = seed_streams(cfg.seed)
    phi = init_phi(d, d_model, m, streams["phi_init"], with_ep_head=(mode == "dsn_plus_ep"))
    eta = init_gru(d, d_model, streams["eta_init"])
    stats = NormStats(mean=np.zeros(d, np.float32), std=np.ones(d, np.float32))
    return TrainedModel(phi={k: v.astype(np.float32) for k, v in phi.items()},
                        eta=eta.astype(np.float32),
                        config=cfg, stats=stats, loss_trace=[(0.0, 0.0, 0.0)] * cfg.epochs,
                        d_in=d)


def series_fixture(n=120, d=2, seed=3):
    return MultivariateSeries(values=np.random.default_rng(seed).normal(size=(n, d)),
                              labels=np.zeros(n, dtype=np.int64))


def per_slot_order_forward(phi, values, starts, l, r, want_cache=False):
    """order_forward as the per-slot oracle computes it."""
    L = l + (len(phi["order_head.b"]) - 1) * r
    batch = np.asarray(values)[np.asarray(starts)[:, None] + np.arange(L)]
    P, Y, H = oracles.order_forward_per_slot(phi, batch, l, r)
    return P, Y, H, None, None


class TestDistinctSubsequences:
    """Scoring encodes each distinct sub-sequence of a chunk once; every
    column equals the one the per-slot form gives, bit for bit."""

    @pytest.mark.parametrize("n,R_test", [
        pytest.param(120, 3, id="stride-r"),
        pytest.param(120, 5, id="stride-not-multiple-of-r-and-cover-tail"),
        pytest.param(3 * scoring.CHUNK + 100, 3, id="more-than-chunk-windows"),
    ])
    @pytest.mark.parametrize("mode", ["full", "otn_only"])
    @pytest.mark.usefixtures("float64_compute")
    def test_columns_match_per_slot_oracle(self, monkeypatch, n, R_test, mode):
        model = tiny_model(seed=4, mode=mode, d_model=4)     # l=r=3, m=4, L=12
        series = series_fixture(n=n)
        cfg = ScoreConfig(R_test=R_test)
        starts = window_starts(n, model.config.L, R_test, cover_tail=True)
        if n > 1000:
            assert len(starts) > scoring.CHUNK
        if R_test == 5:
            assert starts[-1] % R_test != 0
        got = score_series(model, series, cfg)
        monkeypatch.setattr(networks, "order_forward", per_slot_order_forward)
        want = score_series(model, series, cfg)
        for col in ("scores", "score_otn", "score_dsn", "coverage"):
            np.testing.assert_array_equal(getattr(got, col), getattr(want, col), err_msg=col)


class TestScoreOtn:
    """The order column of score_series."""

    def test_perfect_predictions_zero(self):
        # m=1 forces a perfect one-class order prediction.
        out = score_series(tiny_model(m=1, l=5, r=1), series_fixture(), ScoreConfig(R_test=5))
        np.testing.assert_array_equal(out.score_otn, np.zeros(120))

    @pytest.mark.usefixtures("float64_compute")
    def test_two_subseq_example_against_oracle(self):
        model = tiny_model(m=2, l=4, r=4, seed=13)
        series = series_fixture(n=40)
        cfg = ScoreConfig(R_test=3)
        _, otn, _ = oracles.score_series_dense(model, series, cfg)
        np.testing.assert_allclose(score_series(model, series, cfg).score_otn, otn,
                                   rtol=1e-12, atol=1e-9)

    def test_uniform_predictions_equal_scores(self):
        model = tiny_model()
        model.phi["order_head.W"] = np.zeros_like(model.phi["order_head.W"])
        model.phi["order_head.b"] = np.zeros_like(model.phi["order_head.b"])
        s = score_series(model, series_fixture(), ScoreConfig(R_test=4)).score_otn
        np.testing.assert_allclose(s, s[0])


class TestScoreDsn:
    """The distance column of score_series."""

    def test_zero_when_phi_equals_eta(self):
        model = tiny_model(seed=1)
        model.phi.update(model.eta.as_dict("gru."))  # identical towers -> identical distances
        out = score_series(model, series_fixture(), ScoreConfig(R_test=4))
        np.testing.assert_array_equal(out.score_dsn, 0.0)

    @pytest.mark.usefixtures("float64_compute")
    def test_matches_loop_oracle(self):
        model = tiny_model(seed=3, mode="dsn_only")
        series = series_fixture(n=60, seed=4)
        cfg = ScoreConfig(R_test=4)
        _, _, dsn = oracles.score_series_dense(model, series, cfg)
        np.testing.assert_allclose(score_series(model, series, cfg).score_dsn, dsn, atol=1e-9)

    def test_empty_refs_rejected(self):
        # A series of exactly one window leaves no reference window.
        model = tiny_model()
        with pytest.raises(DataError, match="distance score"):
            score_series(model, series_fixture(n=model.config.L), ScoreConfig())

    @pytest.mark.parametrize("noise", [None, 1e-4, 1e-7],
                             ids=["independent", "phi-near-eta-1e-4", "phi-near-eta-1e-7"])
    @pytest.mark.parametrize("n,d", [(2, 3), (7, 1), (23, 6)])
    def test_closed_form_matches_exact_gram_oracle(self, n, d, noise):
        rng = np.random.default_rng(n * 100 + d)
        E = np.tanh(rng.normal(size=(n, d)))
        F = np.tanh(rng.normal(size=(n, d))) if noise is None else E + noise * rng.normal(
            size=(n, d))
        want = oracles.distance_scores_gram(E, F)
        assert want.max() > 0
        np.testing.assert_allclose(distance_scores(E, F), want, rtol=0,
                                   atol=DSN_EXACT_RTOL * want.max())

    def test_two_windows_score_their_pair(self):
        rng = np.random.default_rng(9)
        E, F = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        resid = E[0] @ E[1] - F[0] @ F[1]
        np.testing.assert_allclose(distance_scores(E, F), [resid ** 2] * 2,
                                   rtol=DSN_EXACT_RTOL)

    def test_draws_no_random_numbers(self, monkeypatch):
        model, series = tiny_model(), series_fixture()
        want = score_series(model, series, ScoreConfig(R_test=4))

        def refuse(*args, **kwargs):
            raise AssertionError("scoring drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        got = score_series(model, series, ScoreConfig(R_test=4))
        assert got.score_dsn.max() > 0
        np.testing.assert_array_equal(got.scores, want.scores)


class TestCombine:
    """scores = score_otn + beta * score_dsn."""

    def test_beta_zero(self):
        out = score_series(tiny_model(), series_fixture(), ScoreConfig(beta=0.0, R_test=4))
        assert out.score_dsn.max() > 0
        np.testing.assert_array_equal(out.scores, out.score_otn)

    def test_constant_offset(self):
        out = score_series(tiny_model(), series_fixture(), ScoreConfig(beta=0.5, R_test=4))
        assert out.score_dsn.max() > 0
        np.testing.assert_array_equal(out.scores, out.score_otn + 0.5 * out.score_dsn)

    def test_beta_doubling_doubles_gap(self):
        model, series = tiny_model(), series_fixture()
        one = score_series(model, series, ScoreConfig(beta=1.0, R_test=4))
        two = score_series(model, series, ScoreConfig(beta=2.0, R_test=4))
        np.testing.assert_array_equal(two.score_otn, one.score_otn)
        np.testing.assert_allclose(two.scores - two.score_otn,
                                   2 * (one.scores - one.score_otn), rtol=1e-12)


ORACLE_CASES = [
    dict(mode="full"),
    dict(mode="otn_only"),
    dict(mode="dsn_only"),
    dict(mode="dsn_plus_ep"),
]


class TestScoreSeriesOracle:
    @pytest.mark.parametrize("case", ORACLE_CASES,
                             ids=["-".join(f"{k}={v}" for k, v in c.items()) for c in ORACLE_CASES])
    @pytest.mark.usefixtures("float64_compute")
    def test_columns_match_dense_oracle(self, case, monkeypatch):
        # CHUNK below the floor: two chunks of MIN_ROWS windows.
        monkeypatch.setattr(scoring, "CHUNK", 5)
        model = tiny_model(seed=21, **case)
        series = series_fixture(n=12 + 4 * (2 * scoring.MIN_ROWS - 1), seed=22)
        cfg = ScoreConfig(beta=0.7, R_test=4)
        out = score_series(model, series, cfg)
        for got, want in zip((out.scores, out.score_otn, out.score_dsn),
                             oracles.score_series_dense(model, series, cfg)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestFloat32Scores:
    """Scoring with the GRU in float32 gives every score column within
    F32_SCORE_RTOL of the same model scored in float64."""

    @pytest.mark.parametrize("mode", ["full", "otn_only", "dsn_only", "dsn_plus_ep"])
    def test_columns_within_named_tolerance(self, monkeypatch, mode):
        model = tiny_model(mode=mode, d_model=16, seed=5)
        series = series_fixture(n=200, seed=6)
        cfg = ScoreConfig(R_test=3)
        out = {}
        for dt in (np.float32, np.float64):
            monkeypatch.setattr(training, "COMPUTE_DTYPE", dt)
            out[np.dtype(dt).name] = score_series(model, series, cfg)
        for col in ("scores", "score_otn", "score_dsn"):
            got, want = getattr(out["float32"], col), getattr(out["float64"], col)
            assert got.dtype == np.float64
            assert np.abs(got - want).max() <= F32_SCORE_RTOL * np.abs(want).max(), col
        np.testing.assert_array_equal(out["float32"].coverage, out["float64"].coverage)


class TestAggregate:
    def test_non_overlapping_inherits_score(self):
        scores, cov = aggregate_timestamps([0, 3], [5.0, 7.0], 3, 6)
        np.testing.assert_array_equal(scores, [5, 5, 5, 7, 7, 7])
        np.testing.assert_array_equal(cov, [1] * 6)

    def test_overlap_means(self):
        scores, cov = aggregate_timestamps([0, 0], [2.0, 4.0], 4, 4)
        np.testing.assert_array_equal(scores, [3.0] * 4)
        np.testing.assert_array_equal(cov, [2] * 4)

    def test_random_layout_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            length = int(rng.integers(1, n + 1))
            # A tiling of the timeline guarantees full coverage.
            starts = list(range(0, n - length + 1, length)) + [n - length]
            starts += rng.integers(0, n - length + 1, size=int(rng.integers(1, 15))).tolist()
            starts = rng.permutation(starts)
            # Two columns over the same slots, as score_series aggregates them.
            columns = rng.normal(size=(2, len(starts)))
            scores, cov = aggregate_timestamps(starts, columns, length, n)
            assert scores.shape == (2, n)
            for got, values in zip(scores, columns):
                oscores, ocov = oracles.aggregate_dense(
                    [(s, length, v) for s, v in zip(starts, values)], n)
                # Same additions in the same order: equal to the last bit.
                np.testing.assert_array_equal(got, oscores)
                np.testing.assert_array_equal(cov, ocov)

    def test_mass_preservation(self):
        rng = np.random.default_rng(6)
        n = 40
        starts = np.concatenate([np.arange(0, n, 10), rng.integers(0, 31, size=12)])
        values = rng.normal(size=len(starts))
        scores, cov = aggregate_timestamps(starts, values, 10, n)
        lhs = float((scores * cov).sum())
        rhs = 10 * float(values.sum())
        assert abs(lhs - rhs) < 1e-9

    def test_uncovered_timestamp_rejected(self):
        with pytest.raises(DataError, match="not covered"):
            aggregate_timestamps([0], [1.0], 3, 5)

    def test_slot_outside_timeline_rejected(self):
        with pytest.raises(DataError, match="outside timeline"):
            aggregate_timestamps([0, 3], [1.0, 1.0], 3, 5)


class TestThreshold:
    def test_all_equal_flags_nothing(self):
        assert threshold_percentile(np.full(50, 2.5), 0.6).sum() == 0

    def test_delta_fifty(self):
        preds = threshold_percentile(np.arange(1.0, 101.0), 50.0)
        assert preds.sum() == 50

    def test_delta_small_exact_count(self):
        rng = np.random.default_rng(7)
        scores = rng.permutation(1000).astype(np.float64)
        preds = threshold_percentile(scores, 0.6)
        assert preds.sum() == 6
        top = np.argsort(scores)[-6:]
        assert set(np.flatnonzero(preds)) == set(top)


class TestScoreSeries:
    def test_full_coverage_and_shapes(self):
        model = tiny_model()
        series = series_fixture(n=100)
        out = score_series(model, series, ScoreConfig(R_test=5))
        assert out.n == 100
        assert np.all(out.coverage >= 1)
        assert np.all(np.isfinite(out.scores))

    def test_beta_zero_equals_otn_column(self):
        model = tiny_model()
        series = series_fixture()
        out = score_series(model, series, ScoreConfig(beta=0.0, R_test=4))
        np.testing.assert_array_equal(out.scores, out.score_otn)

    def test_monotone_in_beta(self):
        model = tiny_model()
        series = series_fixture()
        lo = score_series(model, series, ScoreConfig(beta=0.5, R_test=4))
        hi = score_series(model, series, ScoreConfig(beta=2.0, R_test=4))
        assert np.all(hi.scores >= lo.scores - 1e-15)

    def test_deterministic_and_partition_invariant(self, monkeypatch):
        model = tiny_model()
        series = series_fixture(n=600)     # 148 windows: two chunks at CHUNK 7
        cfg = ScoreConfig(R_test=4)
        a = score_series(model, series, cfg)
        b = score_series(model, series, cfg)
        monkeypatch.setattr(scoring, "CHUNK", 7)
        c = score_series(model, series, cfg)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.scores, c.scores)

    # A chunk holds at least MIN_ROWS windows, and from that many rows on a
    # window's GRU passes get the bits they get in any taller chunk
    # (test_ndkernel's TestRowCountInvariance).  The error-prediction head
    # maps each step's states by one GEMM against its W^T padded to 8
    # columns, which gives a row the same bits over any row count from 2 on
    # (test_networks).  So CHUNK moves no column of any mode.
    COLUMNS = ("scores", "score_otn", "score_dsn", "coverage")

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, 100])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["full", "otn_only", "dsn_only", "dsn_plus_ep"])
    def test_rechunking_is_bit_identical(self, monkeypatch, mode, dtype, chunk):
        """Scores at the default CHUNK, one chunk of 366 windows here, and at
        ``chunk``, which splits them into at least three chunks."""
        monkeypatch.setattr(training, "COMPUTE_DTYPE", dtype)
        model = tiny_model(mode=mode, d=5, d_model=32, m=10, l=4, r=4, seed=7)
        series = series_fixture(n=40 + 4 * 365, d=5, seed=8)
        cfg = ScoreConfig(R_test=4)
        a = score_series(model, series, cfg)
        monkeypatch.setattr(scoring, "CHUNK", chunk)
        assert len(batch_ranges(366, max(chunk, scoring.MIN_ROWS), scoring.MIN_ROWS)) >= 3
        c = score_series(model, series, cfg)
        for col in self.COLUMNS:
            np.testing.assert_array_equal(getattr(c, col), getattr(a, col), err_msg=col)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_rechunking_keeps_error_prediction_bits_at_three_dims(self, monkeypatch, dtype):
        """On a 3-dimension series, where an unpadded head GEMM over a chunk's
        rows moves them, dsn_plus_ep's columns are the same at CHUNK 64,
        100, 101 and 1,024 (366 windows: five, four, three and one chunks).
        Chunks of 101 rows, not a multiple of 4, catch what the others miss:
        there an unpadded GEMM rounds the last rows of a block of 4 apart."""
        monkeypatch.setattr(training, "COMPUTE_DTYPE", dtype)
        model = tiny_model(mode="dsn_plus_ep", d=3, d_model=32, m=10, l=4, r=4, seed=9)
        series = series_fixture(n=40 + 4 * 365, d=3, seed=10)
        cfg = ScoreConfig(R_test=4)
        runs = []
        for chunk in (64, 100, 101, 1024):
            monkeypatch.setattr(scoring, "CHUNK", chunk)
            runs.append(score_series(model, series, cfg))
        for c in runs[1:]:
            for col in self.COLUMNS:
                np.testing.assert_array_equal(getattr(c, col), getattr(runs[0], col), err_msg=col)

    # With m <= 4 the order logits H @ W_o.T of a chunk have so few elements
    # that OpenBLAS's path, and so their bits, depend on the row count:
    # another CHUNK moves score_otn and scores of the order modes by at most
    # this, relative.  Measured at most 4.5e-16 at m 3 and 4, d_model 32 and
    # 256, float32 and float64 compute.
    NARROW_ORDER_RECHUNK_RTOL = 1e-15

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["full", "otn_only", "dsn_only", "dsn_plus_ep"])
    def test_rechunking_with_four_order_slots(self, monkeypatch, mode, dtype):
        """m 4, l = r = R_test = 5: 197 windows in one chunk, or in chunks of
        64, 64 and 69.  Only the order score may move, within the bound."""
        monkeypatch.setattr(training, "COMPUTE_DTYPE", dtype)
        model = tiny_model(mode=mode, d=5, d_model=32, m=4, l=5, r=5, seed=7)
        series = series_fixture(n=1000, d=5, seed=8)
        cfg = ScoreConfig(R_test=5)
        a = score_series(model, series, cfg)
        monkeypatch.setattr(scoring, "CHUNK", 64)
        assert len(batch_ranges(197, 64, scoring.MIN_ROWS)) == 3
        c = score_series(model, series, cfg)
        may_move = ("scores", "score_otn") if mode in ("full", "otn_only") else ()
        for col in self.COLUMNS:
            if col in may_move:
                np.testing.assert_allclose(getattr(c, col), getattr(a, col), atol=0,
                                           rtol=self.NARROW_ORDER_RECHUNK_RTOL, err_msg=col)
            else:
                np.testing.assert_array_equal(getattr(c, col), getattr(a, col), err_msg=col)

    def test_ep_peak_memory_does_not_grow_with_chunks(self, monkeypatch):
        """dsn_plus_ep scoring holds one chunk's arrays at a time: four chunks
        of windows peak within a fraction of one float64 hidden trajectory of
        what one chunk peaks at."""
        model = tiny_model(mode="dsn_plus_ep", d_model=32, m=10, l=10, r=10, seed=3)
        chunk = 64
        monkeypatch.setattr(scoring, "CHUNK", chunk)
        trajectory = model.config.L * chunk * 32 * 8     # float64 bytes of one chunk's
        peaks = []
        for n_chunks in (1, 4):
            # Windows at stride 10 with no tail window: n_chunks * chunk of them.
            series = series_fixture(n=100 + (n_chunks * chunk - 1) * 10, seed=4)
            tracemalloc.start()
            try:
                score_series(model, series, ScoreConfig(R_test=10))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Measured: 0.22 trajectories more, for the per-window arrays that grow
        # with the series.
        assert peaks[1] - peaks[0] < 0.75 * trajectory, (peaks, trajectory)

    def test_ep_chunk_peak_is_below_one_float32_trajectory(self, monkeypatch):
        """A dsn_plus_ep chunk keeps no hidden trajectory: the head reads each
        step's states as the GRU makes them, so the chunk peaks below the
        bytes of its states in the compute dtype (float32)."""
        model = tiny_model(mode="dsn_plus_ep", d_model=32, m=10, l=10, r=10, seed=3)
        chunk = 64
        monkeypatch.setattr(scoring, "CHUNK", chunk)
        trajectory = model.config.L * chunk * 32 * 4     # float32 bytes of one chunk's
        series = series_fixture(n=100 + (chunk - 1) * 10, seed=4)   # one chunk
        tracemalloc.start()
        try:
            score_series(model, series, ScoreConfig(R_test=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: 0.50 of a float32 trajectory, and 1.36 for a chunk that keeps one.
        assert peak < trajectory, (peak, trajectory)

    def test_loaded_model_scores_identical(self, tmp_path):
        model = tiny_model()
        series = series_fixture()
        cfg = ScoreConfig(R_test=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        a = score_series(model, series, cfg)
        b = score_series(loaded, series, cfg)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_perfect_order_model_gives_zero_otn_scores(self):
        # m=1 forces a perfect one-class order prediction.
        model = tiny_model(m=1, l=5, r=1)
        series = series_fixture()
        out = score_series(model, series, ScoreConfig(beta=0.0, R_test=5))
        np.testing.assert_allclose(out.scores, 0.0, atol=1e-12)

    def test_dimension_mismatch_reports_both(self):
        model = tiny_model(d=2)
        series = MultivariateSeries(values=np.zeros((50, 3)))
        with pytest.raises(DataError, match="3.*2|2.*3"):
            score_series(model, series, ScoreConfig())

    def test_mode_columns(self):
        series = series_fixture()
        out_otn = score_series(tiny_model(mode="otn_only"), series,
                               ScoreConfig(R_test=4))
        np.testing.assert_array_equal(out_otn.score_dsn, 0.0)
        out_dsn = score_series(tiny_model(mode="dsn_only"), series,
                               ScoreConfig(R_test=4))
        np.testing.assert_array_equal(out_dsn.score_otn, 0.0)
        assert out_dsn.score_dsn.max() > 0

    def test_full_alpha_zero_has_no_distance_score(self):
        # Training with alpha = 0 never touches the distance branch, so its
        # untrained residual must not reach the scores.
        series = series_fixture()
        out = score_series(tiny_model(alpha=0.0), series, ScoreConfig(R_test=4))
        np.testing.assert_array_equal(out.score_dsn, 0.0)
        np.testing.assert_array_equal(out.scores, out.score_otn)
        trained = score_series(tiny_model(alpha=1.0), series, ScoreConfig(R_test=4))
        np.testing.assert_array_equal(out.score_otn, trained.score_otn)

    def test_bad_score_config_is_a_usage_error(self):
        nan, inf = float("nan"), float("inf")
        for bad in (dict(beta=-1.0), dict(beta=nan), dict(beta=inf), dict(beta=-inf),
                    dict(R_test=0)):
            with pytest.raises(ConfigError):
                ScoreConfig(**bad).validate()

    def test_stride_above_window_length_rejected_before_forward(self, monkeypatch):
        """Windows at a stride R_test > L leave timestamps between them: a
        usage error, raised before any forward pass."""
        model = tiny_model()
        series = series_fixture()
        L = model.config.L
        assert score_series(model, series, ScoreConfig(R_test=L)).n == series.n

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(scoring, "forward", no_forward)
        with pytest.raises(ConfigError, match=f"R_test {L + 1} exceeds"):
            score_series(model, series, ScoreConfig(R_test=L + 1))

    def test_ep_mode_scores_finite(self):
        series = series_fixture()
        out = score_series(tiny_model(mode="dsn_plus_ep"), series,
                           ScoreConfig(R_test=4))
        assert np.all(np.isfinite(out.scores))
        assert out.score_otn.max() > 0  # EP errors are positive


class TestWindowGathers:
    """Scoring gathers each chunk's windows once: ``networks.forward`` gathers
    them for phi and for eta."""

    @pytest.mark.parametrize("mode,gathers", [
        ("full", True), ("otn_only", False), ("dsn_only", True), ("dsn_plus_ep", True)],
        ids=["full", "otn_only", "dsn_only", "dsn_plus_ep"])
    def test_one_window_gather_per_chunk(self, monkeypatch, mode, gathers):
        model = tiny_model(mode=mode)
        series = series_fixture(n=600)     # 148 windows: chunks of 64 and 84
        cfg = ScoreConfig(R_test=4)
        monkeypatch.setattr(scoring, "CHUNK", 64)
        want = score_series(model, series, cfg)
        real, seen = seqdata.stack_slices, []

        def counting(values, starts, length):
            if length == model.config.L:
                seen.append(len(starts))
            return real(values, starts, length)

        for module in (networks, scoring, seqdata, training):
            if getattr(module, "stack_slices", None) is real:
                monkeypatch.setattr(module, "stack_slices", counting)
        got = score_series(model, series, cfg)
        assert seen == ([64, 84] if gathers else [])
        np.testing.assert_array_equal(got.scores, want.scores)


def least_rows_beside(d_model: int) -> int:
    """The fewest rows of a narrow pass of width d_model that runs beside the
    caller's work."""
    return next(B for B in range(1, 2 ** 14) if ndkernel._runs_beside(B, d_model))


class TestBesideScoring:
    """A chunk whose passes do not split their rows and have enough work per
    step runs eta's pass on a helper thread beside phi's forward
    (``ndkernel._runs_beside``): every score column keeps the bits it has
    with every pass on the calling thread."""

    COLUMNS = ("scores", "score_otn", "score_dsn", "coverage")

    @staticmethod
    def _case(mode, d_model, n_windows):
        """A model and a series of ``n_windows`` windows at stride R_test = 3
        with no tail window: one chunk."""
        model = tiny_model(mode=mode, d=3, d_model=d_model, m=3, l=3, r=3, seed=11)
        return model, series_fixture(n=model.config.L + (n_windows - 1) * 3, d=3, seed=12)

    # Narrow models, with one chunk below the rule's threshold, one whose work
    # per step is exactly ``BESIDE_WORK`` (it runs serially), and one above.
    NARROW = [(d, n) for d in (8, 32, 64)
              for n in range(least_rows_beside(d) - 2, least_rows_beside(d) + 1)]

    @pytest.mark.parametrize("d_model,n_windows", [
        (128, 2), (128, 63), (128, 64), (128, 127),
        (256, 2), (256, 63), (256, 64), (256, 127)] + NARROW)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("mode", ["full", "otn_only", "dsn_only", "dsn_plus_ep"])
    def test_every_column_keeps_its_bits(self, monkeypatch, mode, dtype, d_model, n_windows):
        monkeypatch.setattr(training, "COMPUTE_DTYPE", dtype)
        monkeypatch.setattr(scoring, "CHUNK", max(scoring.CHUNK, n_windows))
        model, series = self._case(mode, d_model, n_windows)
        cfg = ScoreConfig(R_test=3)
        asked, runs_beside = [], ndkernel._runs_beside

        def recording(B, d):
            asked.append(B)
            return runs_beside(B, d)

        monkeypatch.setattr(ndkernel, "_runs_beside", recording)
        got = score_series(model, series, cfg)
        assert asked == ([] if mode == "otn_only" else [n_windows])
        monkeypatch.setattr(ndkernel, "_runs_beside", lambda B, d: False)
        monkeypatch.setattr(ndkernel, "_uses_worker", lambda B, d: False)
        want = score_series(model, series, cfg)
        for col in self.COLUMNS:
            np.testing.assert_array_equal(getattr(got, col), getattr(want, col), err_msg=col)

    @pytest.mark.parametrize("d_model,n_windows", [
        (128, 127), (256, 40), (128, 128), (256, 300), (64, 40), (64, 300), (128, 2)]
        + NARROW[3:])
    def test_eta_runs_beside_exactly_when_the_rule_says(self, monkeypatch, d_model, n_windows):
        """dsn_only runs phi's pass and eta's per chunk.  A chunk that runs
        beside hands all of eta's rows to a helper; a chunk that splits hands
        over the second half of each pass's rows, as it did before eta ran
        beside, and any other chunk hands over nothing."""
        model, series = self._case("dsn_only", d_model, n_windows)
        handed = []
        helper_thread = ndkernel._helper_thread

        def recording(fn, *args):
            handed.append((fn, args[6]))     # _gru_rows(X, W, U, b, H, cache, rows, ...)
            return helper_thread(fn, *args)

        monkeypatch.setattr(ndkernel, "_helper_thread", recording)
        score_series(model, series, ScoreConfig(R_test=3))
        n, d = n_windows, d_model
        want = ([slice(0, n)] if ndkernel._runs_beside(n, d) else
                [slice(n // 2, n)] * 2 if ndkernel._uses_worker(n, d) else [])
        assert handed == [(ndkernel._gru_rows, rows) for rows in want]

    @pytest.mark.parametrize("where,d_model,n_windows", [
        pytest.param("phi", 128, 60, id="phi"), pytest.param("eta", 128, 60, id="eta"),
        pytest.param("phi", 32, 1024, id="phi-narrow"),
        pytest.param("eta", 32, 1024, id="eta-narrow")])
    def test_an_error_in_either_pass_reaches_the_caller(self, monkeypatch, where, d_model,
                                                        n_windows):
        """An error in phi's block on the calling thread, or in eta's pass on
        the helper, reaches the caller; no thread is left, and the next call
        gives the same bits."""
        model, series = self._case("full", d_model, n_windows)
        assert ndkernel._runs_beside(n_windows, d_model)
        cfg = ScoreConfig(R_test=3)
        want = score_series(model, series, cfg)
        assert [t.name for t in threading.enumerate()] == ["MainThread"]

        def failing(*args, **kwargs):
            raise KeyError(f"{where} failed")

        monkeypatch.setattr(*((networks, "order_forward") if where == "phi" else
                              (ndkernel, "_gru_rows")), failing)
        with pytest.raises(KeyError, match=f"{where} failed"):
            score_series(model, series, cfg)
        monkeypatch.undo()
        assert [t.name for t in threading.enumerate()] == ["MainThread"]
        np.testing.assert_array_equal(score_series(model, series, cfg).scores, want.scores)


class TestScoresCsv:
    def test_roundtrip(self, tmp_path):
        model = tiny_model()
        series = series_fixture()
        out = score_series(model, series, ScoreConfig(R_test=4))
        path = tmp_path / "scores.csv"
        write_scores_csv(path, out, labels=series.labels)
        cols = read_scores_csv(path)
        np.testing.assert_array_equal(cols["score"], out.scores)
        np.testing.assert_array_equal(cols["score_otn"], out.score_otn)
        np.testing.assert_array_equal(cols["score_dsn"], out.score_dsn)
        np.testing.assert_array_equal(cols["label"], series.labels)
        np.testing.assert_array_equal(cols["timestamp"], np.arange(1, out.n + 1))
