import threading
import warnings

import numpy as np
import pytest

import sten.training as training
from sten import ConfigError, DataError, NumericError, ndkernel, networks, scoring
from sten.ndkernel import gru_forward, init_gru
from sten.networks import forward, gru_checksum, init_phi, order_forward
from sten.objectives import js_rows, js_rows_grad_p
from sten.scoring import ScoreConfig, distance_scores, score_series
from sten.seqdata import (MultivariateSeries, SynthConfig, batch_ranges, synth_generate,
                          window_starts)
from sten.training import (TrainConfig, build_sten_tape, load_checkpoint, save_checkpoint,
                           seed_streams, train)

import oracles
from oracles import (build_sten_tape_closures, dsn_plus_ep_tape_two_pass, finite_diff_grad,
                     order_dH_add_at, order_loss_presented)
from windowed import batch_tape


def gradcheck(cfg, seed, h=1e-4, tol=1e-4, with_ep=False):
    rng = np.random.default_rng(seed)
    phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=with_ep)
    eta = init_gru(2, cfg.d_model, rng)
    batch = rng.normal(size=(3, cfg.L, 2))
    _, grads = batch_tape(phi, eta, batch, cfg)

    def loss_fn(pd):
        return batch_tape(pd, eta, batch, cfg)[0][2]

    fd = finite_diff_grad(loss_fn, phi, h=h)
    worst = {}
    for k in grads:
        rel = np.abs(grads[k] - fd[k]) / np.maximum(1e-8, np.abs(fd[k]))
        worst[k] = float(rel.max())
    return grads, fd, worst


def record_master_weights(monkeypatch):
    """Wrap ``training.adam_update``: the returned list gets the float64
    master weights each call returns.  A checkpoint holds them cast to
    float32, which hides a change in their last bits."""
    returned = []
    real = training.adam_update

    def update(*args, **kwargs):
        phi, state = real(*args, **kwargs)
        returned.append(phi)
        return phi, state

    monkeypatch.setattr(training, "adam_update", update)
    return returned


def assert_same_blocks(got, want):
    assert set(got) == set(want)
    for k in want:
        assert got[k].dtype == np.float64 and np.array_equal(got[k], want[k]), k


# The distance loss sums a batch's pairs with GEMMs; the oracles loop over
# them one at a time (``oracles.dsn_all_pairs_loop``), and in dsn_plus_ep
# also run two BPTTs over the shared pass where training sums both branches
# into one.  The same sums are rounded in another order.  The largest error
# measured, relative to each block's largest |value|, with raw and normalised
# embeddings, in the float32 / float64 compute dtype: gradients 4.1e-7 /
# 2.3e-15 (d_model 8, 32 and 256); float64 master weights after two epochs
# 8.6e-8 / 1.4e-15 (d_model 8 and 32).  The loss is float64 in either dtype:
# 3.1e-15, and 1.6e-14 against the mean of ``scoring.distance_scores``.
ALL_PAIRS_RTOL = {np.float32: 5e-7, np.float64: 5e-14}
LOSS_RTOL = ALL_PAIRS_RTOL[np.float64]


def assert_blocks_close(got, want):
    """Every block within ALL_PAIRS_RTOL of the compute dtype, relative to
    the block's largest |value|."""
    rtol = ALL_PAIRS_RTOL[training.COMPUTE_DTYPE]
    assert set(got) == set(want)
    for k in want:
        err = float(np.abs(got[k] - want[k]).max())
        assert got[k].dtype == np.float64 and err <= rtol * np.abs(want[k]).max(), (k, err)


def has_distance(cfg):
    """Whether the distance branch trains: its pairs are summed in another
    order than the oracles sum them."""
    return training.branches(cfg.mode, cfg.alpha)[2]


def assert_blocks_match(got, want, cfg):
    """Bit for bit, except within ALL_PAIRS_RTOL where ``has_distance``."""
    (assert_blocks_close if has_distance(cfg) else assert_same_blocks)(got, want)


def assert_losses_match(got, want, cfg):
    """Two steps' loss parts (otn, dsn, total): the temporal part bit for
    bit, the distance part and the total within LOSS_RTOL where
    ``has_distance``."""
    (otn, dsn, total), (w_otn, w_dsn, w_total) = got, want
    assert otn == w_otn
    assert abs(dsn - w_dsn) <= LOSS_RTOL * abs(w_dsn)
    assert abs(total - w_total) <= LOSS_RTOL * abs(w_total)
    if not has_distance(cfg):
        assert (dsn, total) == (w_dsn, w_total)


def count_gru_backward(monkeypatch) -> list:
    """Wrap ``gru_backward`` where the package and the oracles call it: the
    returned list gets one entry per call."""
    calls = []
    real = ndkernel.gru_backward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (ndkernel, oracles):
        monkeypatch.setattr(module, "gru_backward", counting)
    return calls


class TestGradients:
    def test_full_loss_matches_finite_differences(self):
        cfg = TrainConfig(R_train=2, l=2, r=2, m=4, d_model=4,
                          alpha=1.0, mode="full")
        _, _, worst = gradcheck(cfg, seed=0)
        assert max(worst.values()) <= 1e-4, worst

    def test_error_prediction_mode_gradients(self):
        cfg = TrainConfig(R_train=2, l=2, r=2, m=3, d_model=4,
                          alpha=1.0, mode="dsn_plus_ep")
        _, _, worst = gradcheck(cfg, seed=3, with_ep=True)
        assert max(worst.values()) <= 1e-4, worst

    def test_untouched_parameters_get_zero_gradient(self):
        # otn_only never touches an error-prediction head.
        cfg = TrainConfig(R_train=2, l=2, r=2, m=3, d_model=4, mode="otn_only")
        rng = np.random.default_rng(4)
        phi = init_phi(2, 4, 3, rng, with_ep_head=True)
        batch = rng.normal(size=(2, 6, 2))
        _, grads = batch_tape(phi, None, batch, cfg)
        for k, g in grads.items():
            if k.startswith("ep_head."):
                np.testing.assert_array_equal(g, 0.0)
            elif k.startswith("order_head."):
                assert np.abs(g).max() > 0

    def test_eta_receives_no_gradient(self):
        # The gradients are keyed by phi's blocks only; eta never appears.
        cfg = TrainConfig(R_train=2, l=2, r=2, m=3, d_model=4, mode="full")
        rng = np.random.default_rng(5)
        phi = init_phi(2, 4, 3, rng)
        eta = init_gru(2, 4, rng)
        batch = rng.normal(size=(2, 6, 2))
        _, grads = batch_tape(phi, eta, batch, cfg)
        assert set(grads) == set(phi)


class TestPresentedOrder:
    """The order head encodes each sub-sequence on its own, so presenting a
    window's sub-sequences shuffled only reorders the rows of P and Y: the
    loss and its gradients are those of the true order, up to sum order."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_and_gradients_match_shuffled_presentation(self, seed):
        cfg = TrainConfig(R_train=3, l=3, r=3, m=4, d_model=6, mode="otn_only")
        rng = np.random.default_rng(seed)
        phi = init_phi(2, 6, 4, rng)
        batch = rng.normal(size=(8, 12, 2))
        (otn, _, _), grads = batch_tape(phi, None, batch, cfg)
        perms = rng.permuted(np.tile(np.arange(4), (8, 1)), axis=1)
        loss, ref = order_loss_presented(phi, batch, perms, 3, 3)
        # Reordering rows changes only the summation order: about 1.7e-15
        # relative was measured, so these tolerances leave a wide margin.
        np.testing.assert_allclose(otn, loss, rtol=1e-14, atol=0)
        assert set(grads) == set(ref)
        for k in grads:
            np.testing.assert_allclose(grads[k], ref[k], rtol=1e-12, atol=0, err_msg=k)


class TestDistinctSubsequenceGradients:
    """Training encodes each distinct sub-sequence of a batch once and adds
    the gradients of the slots it fills; the loss is that of encoding every
    slot, and the gradients differ only in summation order."""

    @pytest.mark.parametrize("stride", [3, 5, 12], ids=["stride-r", "stride-5", "stride-L"])
    def test_order_loss_and_gradients_match_per_slot_oracle(self, stride):
        cfg = TrainConfig(R_train=stride, l=3, r=3, m=4, d_model=6, mode="otn_only")
        rng = np.random.default_rng(stride)
        phi = init_phi(2, 6, 4, rng)
        values = rng.normal(size=(90, 2))
        starts = window_starts(90, cfg.L, stride)
        (otn, _, _), grads = build_sten_tape(phi, None, values, starts, cfg)
        batch = values[starts[:, None] + np.arange(cfg.L)]
        identity = np.tile(np.arange(4), (len(starts), 1))
        loss, ref = order_loss_presented(phi, batch, identity, 3, 3)
        assert otn == loss
        assert set(grads) == set(ref)
        # The scatter-add sums each distinct row's slot gradients in another
        # order than BPTT over every slot; 1.7e-15 relative was measured at
        # paper size, so rtol 1e-12 leaves a wide margin.
        for k in grads:
            np.testing.assert_allclose(grads[k], ref[k], rtol=1e-12, atol=0, err_msg=k)


class TestOrderScatter:
    """The order branch sums each distinct sub-sequence's slot gradients with
    the bits of ``np.add.at`` over the slots (``oracles.order_dH_add_at``),
    on full batches and on a short last one."""

    # (B, m, r, R_train), with l = r.
    SHAPES = [(256, 10, 10, 10), (64, 10, 10, 10), (50, 4, 5, 3), (40, 10, 3, 7)]

    @pytest.mark.parametrize("B,m,r,R", SHAPES, ids=["-".join(map(str, s)) for s in SHAPES])
    def test_dH_equals_add_at(self, monkeypatch, B, m, r, R):
        cfg = TrainConfig(R_train=R, l=r, r=r, m=m, d_model=8, mode="otn_only")
        rng = np.random.default_rng(B + m)
        phi = init_phi(2, cfg.d_model, m, rng)
        values = rng.normal(size=((B - 1) * R + cfg.L, 2)).astype(training.COMPUTE_DTYPE)
        starts = window_starts(len(values), cfg.L, R)
        assert len(starts) == B
        got = []
        real_backward = training.backward

        def backward(p, grads, prefix, passes):
            got.append(passes[0][1].copy())
            return real_backward(p, grads, prefix, passes)

        monkeypatch.setattr(training, "backward", backward)
        for batch in (starts, starts[-3:]):
            build_sten_tape(phi, None, values, batch, cfg)
            P, Y, _, inv, cache = order_forward(phi, values, batch, cfg.l, cfg.r, want_cache=True)
            dP = js_rows_grad_p(P, Y) * (1.0 / P.shape[0])
            dlogits = P * (dP - (dP * P).sum(axis=1, keepdims=True))
            want = order_dH_add_at(dlogits @ phi["order_head.W"], inv, cache.X.shape[0])
            dH = got.pop()
            assert dH.dtype == want.dtype and np.array_equal(dH, want)


class TestEtaEmbeddedOnce:
    """The frozen projector's embeddings of the training windows are made once
    per train call and reused by every epoch."""

    def test_each_window_embedded_once_over_all_epochs(self, monkeypatch):
        series = small_series()
        cfg = small_cfg(epochs=3)
        embedded, tapes = [], []
        real_embed, real_tape = networks.embed_windows, training.build_sten_tape

        def embed(gru, data, beside):
            embedded.append((gru, len(data)))
            return real_embed(gru, data, beside)

        def tape(phi, F, values, starts, cfg, outputs):
            tapes.append((F, values, starts))
            return real_tape(phi, F, values, starts, cfg, outputs)

        monkeypatch.setattr(networks, "embed_windows", embed)
        monkeypatch.setattr(training, "build_sten_tape", tape)
        model = train(series, cfg)
        n_batches = len(tapes) // cfg.epochs
        assert n_batches >= 2 and len(tapes) == n_batches * cfg.epochs
        # Training embeds windows only with eta; phi's tower runs in networks.forward.
        assert all(gru is model.eta for gru, _ in embedded)
        assert len(embedded) == n_batches
        assert sum(n for _, n in embedded) == len(window_starts(series.n, cfg.L, cfg.R_train))
        for F, values, starts in tapes:
            batch = values[starts[:, None] + np.arange(cfg.L)]
            np.testing.assert_array_equal(F, gru_forward(batch, model.eta))


class TestEtaBesidePhi:
    """A batch's first step runs eta's pass beside phi's forward where
    ``ndkernel._runs_beside`` allows: here two batches of 64 windows at
    d_model 128 do, and the short last batch of 22 does not.  Either way
    every bit is kept, an error reaches the caller once both threads have
    stopped, and no thread outlives ``train``."""

    @staticmethod
    def cfg(**kw):
        return small_cfg(**{"R_train": 5, "l": 5, "r": 5, "d_model": 128, "epochs": 2, **kw})

    @staticmethod
    def series():
        return small_series(n=765)            # 150 windows of length 20

    @staticmethod
    def count_helpers(monkeypatch) -> list:
        started = []
        real = ndkernel._helper_thread

        def counting(fn, *args):
            started.append(fn)
            return real(fn, *args)

        monkeypatch.setattr(ndkernel, "_helper_thread", counting)
        return started

    @pytest.mark.parametrize("mode", ["full", "dsn_plus_ep"])
    def test_bits_equal_eta_before_phi(self, monkeypatch, tmp_path, mode):
        series, cfg = self.series(), self.cfg(mode=mode)
        assert [e - s for s, e in batch_ranges(150, 64, 2)] == [64, 64, 22]
        assert ndkernel._runs_beside(64, 128) and not ndkernel._runs_beside(22, 128)
        started = self.count_helpers(monkeypatch)
        weights = record_master_weights(monkeypatch)
        beside = train(series, cfg)
        # Two helpers, in epoch 1: later epochs reuse the embeddings.
        assert started == [ndkernel._gru_rows] * 2
        save_checkpoint(beside, tmp_path / "beside.ckpt")
        monkeypatch.setattr(ndkernel, "_runs_beside", lambda B, d: False)
        serial = train(series, cfg)
        assert len(started) == 2
        save_checkpoint(serial, tmp_path / "serial.ckpt")
        assert beside.loss_trace == serial.loss_trace
        n = len(weights) // 2
        assert n == 6
        for got, want in zip(weights[:n], weights[n:]):
            assert_same_blocks(got, want)
        assert (tmp_path / "beside.ckpt").read_bytes() == (tmp_path / "serial.ckpt").read_bytes()

    @pytest.mark.parametrize("error", [DataError, NumericError])
    def test_an_error_in_phis_forward_reaches_the_caller_once_eta_stops(self, monkeypatch,
                                                                        error):
        finished = []
        real_rows = ndkernel._gru_rows

        def rows(*args):
            real_rows(*args)
            finished.append(threading.current_thread())

        def failing(*args, **kwargs):
            raise error("phi's forward failed")

        monkeypatch.setattr(ndkernel, "_gru_rows", rows)
        monkeypatch.setattr(networks, "order_forward", failing)
        before = threading.active_count()
        with pytest.raises(error, match="phi's forward failed"):
            train(self.series(), self.cfg())
        assert threading.active_count() == before
        # eta's pass ran to its end, on the helper thread.
        assert len(finished) == 1 and finished[0] is not threading.current_thread()

    def test_overflowing_alpha_is_a_numeric_error_without_a_warning(self, monkeypatch):
        started = self.count_helpers(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                train(self.series(), self.cfg(alpha=1e200))
        assert started


class TestSharedTowerPass:
    """dsn_plus_ep runs phi's GRU once over a batch's windows,
    and BPTT once over that pass: the distance branch reads the
    error-prediction pass.  The loss, gradients and trained master weights
    are within ALL_PAIRS_RTOL of running the tower twice."""

    def test_loss_and_gradients_equal_two_passes(self, monkeypatch):
        cfg = small_cfg(mode="dsn_plus_ep", alpha=0.7)
        rng = np.random.default_rng(8)
        phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=True)
        eta = init_gru(2, cfg.d_model, rng)
        values = rng.normal(size=(150, 2))
        starts = window_starts(150, cfg.L, cfg.R_train)
        F = gru_forward(values[starts[:, None] + np.arange(cfg.L)], eta)
        calls = count_gru_backward(monkeypatch)
        got, g = build_sten_tape(phi, F, values, starts, cfg)
        n_got = len(calls)
        want, w = dsn_plus_ep_tape_two_pass(phi, F, values, starts, cfg)
        assert_losses_match(got, want, cfg)
        assert (n_got, len(calls) - n_got) == (1, 2)
        assert set(g) == set(phi)
        assert_blocks_close(g, w)

    @staticmethod
    def _master_weights_close(monkeypatch):
        """Compares the float64 master weights, not the checkpoint bytes: a
        float32 checkpoint may round the two sum orders to different bits."""
        series = small_series()
        cfg = small_cfg(mode="dsn_plus_ep", epochs=2)
        weights = record_master_weights(monkeypatch)
        train(series, cfg)
        one = weights[-1]
        monkeypatch.setattr(training, "build_sten_tape", dsn_plus_ep_tape_two_pass)
        train(series, cfg)
        assert_blocks_close(one, weights[-1])

    def test_checkpoint_bytes_equal_two_passes(self, monkeypatch):
        """In float32, the compute dtype training runs in."""
        self._master_weights_close(monkeypatch)

    @pytest.mark.usefixtures("float64_compute")
    def test_checkpoint_bytes_equal_two_passes_in_float64(self, monkeypatch):
        self._master_weights_close(monkeypatch)


class TestTapeIsData:
    """build_sten_tape forms the heads' gradients and each GRU pass's upstream
    gradient in the forward, then runs BPTT over the passes.  Loss parts
    equal those of the form that ran one backward per branch and summed the
    distance loss one pair at a time, and gradients and trained checkpoints
    do bit for bit, except where the distance branch trains
    (``assert_losses_match``, ``assert_blocks_match``)."""

    CASES = [dict(mode="full"), dict(mode="otn_only"), dict(mode="dsn_only"),
             dict(mode="dsn_plus_ep"), dict(mode="full", alpha=0.0)]
    IDS = ["full", "otn_only", "dsn_only", "dsn_plus_ep", "full-alpha-0"]

    @staticmethod
    def _tapes_equal(case):
        cfg = small_cfg(**{"alpha": 0.7, **case})
        rng = np.random.default_rng(9)
        _, use_ep, use_dsn = training.branches(cfg.mode, cfg.alpha)
        phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=use_ep)
        values = rng.normal(size=(150, 2)).astype(training.COMPUTE_DTYPE)
        starts = window_starts(150, cfg.L, cfg.R_train)
        F = None
        if use_dsn:
            eta = init_gru(2, cfg.d_model, rng)
            F = gru_forward(values[starts[:, None] + np.arange(cfg.L)], eta)
        got, g = build_sten_tape(phi, F, values, starts, cfg)
        want, w = build_sten_tape_closures(phi, F, values, starts, cfg)
        assert_losses_match(got, want, cfg)
        assert set(g) == set(phi)
        # A second step on the same inputs gets the same bits.
        assert_same_blocks(build_sten_tape(phi, F, values, starts, cfg)[1], g)
        assert_blocks_match(g, w, cfg)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_loss_and_gradients_equal_closures(self, case):
        """In float32, the compute dtype training runs in."""
        self._tapes_equal(case)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    @pytest.mark.usefixtures("float64_compute")
    def test_loss_and_gradients_equal_closures_in_float64(self, case):
        self._tapes_equal(case)

    @staticmethod
    def _checkpoints_equal(monkeypatch, tmp_path, case):
        series = small_series()
        cfg = small_cfg(epochs=2, **{"alpha": 0.7, **case})
        weights = record_master_weights(monkeypatch)
        save_checkpoint(train(series, cfg), tmp_path / "data.ckpt")
        data = weights[-1]
        monkeypatch.setattr(training, "build_sten_tape", build_sten_tape_closures)
        save_checkpoint(train(series, cfg), tmp_path / "closures.ckpt")
        assert_blocks_match(data, weights[-1], cfg)
        if not has_distance(cfg):
            assert ((tmp_path / "data.ckpt").read_bytes()
                    == (tmp_path / "closures.ckpt").read_bytes())

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_checkpoint_bytes_equal_closures(self, monkeypatch, tmp_path, case):
        self._checkpoints_equal(monkeypatch, tmp_path, case)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    @pytest.mark.usefixtures("float64_compute")
    def test_checkpoint_bytes_equal_closures_in_float64(self, monkeypatch, tmp_path, case):
        self._checkpoints_equal(monkeypatch, tmp_path, case)


class TestAllPairsDistance:
    """The distance loss of a batch compares every window with every other:
    it is the mean of the distance scores scoring gives the same windows, and
    training draws no pairs."""

    @pytest.mark.parametrize("mode", ["full", "dsn_plus_ep"])
    def test_loss_is_the_mean_distance_score(self, mode):
        cfg = small_cfg(mode=mode)
        rng = np.random.default_rng(12)
        phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=mode == "dsn_plus_ep")
        values = rng.normal(size=(150, 2)).astype(training.COMPUTE_DTYPE)
        starts = window_starts(150, cfg.L, cfg.R_train)
        X = values[starts[:, None] + np.arange(cfg.L)]
        F = gru_forward(X, init_gru(2, cfg.d_model, rng))
        E = forward(phi, values, starts, cfg)[2][0].astype(np.float64)
        want = float(distance_scores(E, F).mean())
        got = build_sten_tape(phi, F, values, starts, cfg)[0][1]
        assert want > 0 and abs(got - want) <= LOSS_RTOL * want

    @pytest.mark.parametrize("mode", training.MODES)
    def test_draws_no_pairs(self, monkeypatch, tmp_path, mode):
        series = small_series()
        cfg = small_cfg(mode=mode, epochs=2)
        save_checkpoint(train(series, cfg), tmp_path / "a.ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("training sampled pairs")

        # Wherever it is bound: a module that imported it by name holds its own.
        for module in (networks, training):
            monkeypatch.setattr(module, "sample_pairs", refuse, raising=False)
        save_checkpoint(train(series, cfg), tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("master", [0, 11, 2**40])
    def test_streams_keep_their_seed_sequence_children(self, master):
        """phi and eta draw from the first two children of the master seed's
        SeedSequence, however many children were once spawned."""
        streams = seed_streams(master)
        assert list(streams) == ["phi_init", "eta_init"]
        for rng, child in zip(streams.values(), np.random.SeedSequence(master).spawn(4)):
            np.testing.assert_array_equal(rng.random(8), np.random.default_rng(child).random(8))


class TestWindowPasses:
    """How often a GRU runs over whole windows (length L) in training and
    scoring, which both run ``networks.forward``: per batch per epoch in
    training, per chunk in scoring.  phi's tower runs once per branch that
    reads it, except that the error-prediction and distance branches share
    one pass; eta runs once per batch per train call, and once per chunk in
    scoring."""

    # mode: phi's passes per forward.
    CASES = [("full", 1), ("otn_only", 0), ("dsn_only", 1), ("dsn_plus_ep", 1)]

    @pytest.mark.parametrize("mode,passes_per_forward", CASES, ids=[m for m, _ in CASES])
    def test_passes_over_windows(self, monkeypatch, mode, passes_per_forward):
        series = small_series()
        cfg = small_cfg(mode=mode, epochs=2)
        passes = []
        real = networks.gru_forward

        def counting(X, p, **kwargs):
            if np.shape(X)[1] == cfg.L:
                passes.append(p)
            return real(X, p, **kwargs)

        # eta's pass runs in networks.embed_windows, in training and scoring.
        monkeypatch.setattr(networks, "gru_forward", counting)
        model = train(series, cfg)
        use_dsn = mode != "otn_only"
        n_batches = len(batch_ranges(len(window_starts(series.n, cfg.L, cfg.R_train)),
                                     cfg.batch_size, min_last=2 if use_dsn else 1))
        assert n_batches >= 2
        eta = [p for p in passes if p is model.eta]
        assert len(eta) == (n_batches if use_dsn else 0)
        assert len(passes) - len(eta) == passes_per_forward * n_batches * cfg.epochs

        passes.clear()
        # CHUNK below the floor: chunks of MIN_ROWS windows, three of them.
        monkeypatch.setattr(scoring, "CHUNK", 40)
        test = small_series(n=600, seed=1)
        n_w = len(window_starts(test.n, cfg.L, cfg.r, cover_tail=True))
        n_chunks = len(batch_ranges(n_w, scoring.MIN_ROWS, min_last=scoring.MIN_ROWS))
        assert n_chunks == 3
        score_series(model, test, ScoreConfig(R_test=cfg.r))
        eta = [p for p in passes if p is model.eta]
        assert len(eta) == (n_chunks if use_dsn else 0)
        assert len(passes) - len(eta) == passes_per_forward * n_chunks


class TestOrderPositiveControl:
    """On a sawtooth of period L the order task is learnable only where the
    window grid pins the phase: windows at stride L see each phase at one
    position, while at stride r each sub-sequence occurs at every position."""

    UNIFORM = float(js_rows(np.full((1, 4), 0.25), np.eye(4)[:1])[0])

    @staticmethod
    def final_otn(R_train):
        t = np.arange(1000)
        series = MultivariateSeries(values=((t % 20) / 20.0)[:, None])
        cfg = TrainConfig(R_train=R_train, l=5, r=5, m=4, d_model=8, lr=1e-2,
                          epochs=30, batch_size=32, mode="otn_only")
        return train(series, cfg).loss_trace[-1][0]

    def test_learns_position_when_grid_pins_phase(self):
        assert self.final_otn(R_train=20) < 0.5 * self.UNIFORM

    def test_stays_uniform_when_every_position_is_seen(self):
        assert abs(self.final_otn(R_train=5) - self.UNIFORM) < 1e-3


class TestErrorPredictionPositiveControl:
    """On a sinusoid of period 20 the next value is a function of the last
    few: the error-prediction head, trained alone (alpha 0), must beat the
    persistence predictor x_{t+1} = x_t, and its untrained control must not."""

    SERIES = MultivariateSeries(values=np.sin(2 * np.pi * np.arange(1000) / 20)[:, None])

    @classmethod
    def final_ep(cls, lr):
        cfg = TrainConfig(R_train=5, l=5, r=5, m=4, d_model=8, alpha=0.0, lr=lr,
                          epochs=10, batch_size=32, mode="dsn_plus_ep")
        return train(cls.SERIES, cfg).loss_trace[-1][0]

    def test_beats_persistence(self):
        x = self.SERIES.values[:, 0]
        z = (x - x.mean()) / x.std()
        persistence = float(np.mean(np.diff(z) ** 2))
        assert self.final_ep(lr=1e-2) < 0.5 * persistence

    def test_untrained_control_does_not(self):
        assert self.final_ep(lr=0.0) > 1.0


class TestDistancePositiveControl:
    """On the same sinusoid, phi trained alone on the distance task must copy
    the frozen eta's inner products far better than its untrained control,
    whose loss stays where it starts."""

    @staticmethod
    def dsn_trace(lr):
        cfg = TrainConfig(R_train=5, l=5, r=5, m=4, d_model=8, lr=lr, epochs=10,
                          batch_size=32, mode="dsn_only")
        return [row[1] for row in train(TestErrorPredictionPositiveControl.SERIES,
                                        cfg).loss_trace]

    def test_trained_loss_ends_far_below_the_untrained_one(self):
        assert self.dsn_trace(lr=1e-2)[-1] < self.dsn_trace(lr=0.0)[-1] / 100

    def test_untrained_control_is_flat(self):
        trace = self.dsn_trace(lr=0.0)
        assert trace[0] > 0 and all(loss == trace[0] for loss in trace)


def small_series(n=600, d=2, seed=0):
    cfg = SynthConfig(n_train=n, n_test=50, dims=d, anomaly_rate=0.0, seed=seed)
    tr, _ = synth_generate(cfg)
    return tr


def small_cfg(**kw):
    base = dict(R_train=3, l=3, r=3, m=4, d_model=8, alpha=1.0,
                lr=1e-3, epochs=3, batch_size=64, seed=11)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_otn_only_dsn_trace_zero_and_alpha_irrelevant(self):
        series = small_series()
        m1 = train(series, small_cfg(mode="otn_only", alpha=1.0))
        m2 = train(series, small_cfg(mode="otn_only", alpha=5.0))
        assert all(row[1] == 0.0 for row in m1.loss_trace)
        for k, v in m1.phi.items():
            np.testing.assert_array_equal(v, m2.phi[k])

    def test_lr_zero_keeps_params_and_constant_trace(self):
        series = small_series()
        cfg = small_cfg(lr=0.0, epochs=3)
        model = train(series, cfg)
        streams = seed_streams(cfg.seed)
        phi0 = init_phi(series.d, cfg.d_model, cfg.m, streams["phi_init"])
        for k, v in model.phi.items():
            np.testing.assert_array_equal(v, phi0[k].astype(np.float32))
        # Same parameters and the same batches each epoch: the same loss.
        assert len(model.loss_trace) == cfg.epochs
        assert np.all(np.isfinite(model.loss_trace))
        assert all(row == model.loss_trace[0] for row in model.loss_trace)

    def test_loss_descends_on_synthetic(self):
        series = small_series(n=1500)
        model = train(series, small_cfg(epochs=5, lr=1e-3))
        assert model.loss_trace[-1][2] < model.loss_trace[0][2]
        assert len(model.loss_trace) == 5

    def test_deterministic_given_seed(self):
        series = small_series()
        a = train(series, small_cfg())
        b = train(series, small_cfg())
        for k, v in a.phi.items():
            np.testing.assert_array_equal(v, b.phi[k])
        assert a.loss_trace == b.loss_trace

    def test_eta_frozen_and_reproducible(self):
        series = small_series()
        cfg = small_cfg()
        model = train(series, cfg)
        expected = init_gru(series.d, cfg.d_model,
                            seed_streams(cfg.seed)["eta_init"]).astype(np.float32)
        assert gru_checksum(model.eta) == gru_checksum(expected)

    def test_alpha_zero_full_equals_otn_only_bitwise(self):
        series = small_series()
        a = train(series, small_cfg(mode="full", alpha=0.0))
        b = train(series, small_cfg(mode="otn_only", alpha=1.0))
        for k, v in a.phi.items():
            np.testing.assert_array_equal(v, b.phi[k])
        assert gru_checksum(a.eta) == gru_checksum(b.eta)

    def test_nonfinite_loss_aborts(self, monkeypatch):
        """eta's embeddings with a NaN row give a NaN distance loss: the
        first batch's step stops before any BPTT."""
        real_embed = networks.embed_windows

        def poisoned(gru, data, beside):
            F = real_embed(gru, data, beside)
            F[0] = np.nan
            return F

        monkeypatch.setattr(networks, "embed_windows", poisoned)
        calls = count_gru_backward(monkeypatch)
        with pytest.raises(NumericError, match=r"epoch 1, batch 1: .*otn=.*, dsn=nan"):
            train(small_series(n=200), small_cfg())
        assert calls == []

    def test_too_few_windows_for_dsn(self):
        series = small_series(n=12)  # exactly one window
        with pytest.raises(DataError, match="windows"):
            train(series, small_cfg(mode="full"))
        train(series, small_cfg(mode="otn_only"))  # fine without the distance branch

    def test_batch_size_one_with_dsn_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            train(small_series(n=100), small_cfg(batch_size=1))
        # A config with a distance branch is refused by itself, before any data.
        for mode in ("full", "dsn_only", "dsn_plus_ep"):
            with pytest.raises(ConfigError, match="batch_size"):
                small_cfg(mode=mode, batch_size=1).validate()
        small_cfg(mode="otn_only", batch_size=1).validate()
        small_cfg(mode="full", alpha=0.0, batch_size=1).validate()

    def test_config_arithmetic_validation(self):
        # The window length follows the layout, and is no field to set.
        assert TrainConfig(l=3, r=2, m=3).L == 7
        with pytest.raises(TypeError, match="'L'"):
            TrainConfig(L=10, l=3, r=2, m=3)
        with pytest.raises(ConfigError, match="mode"):
            TrainConfig(mode="bogus").validate()

    def test_stride_above_sub_sequence_length_rejected(self):
        """Sub-sequences at a stride r > l leave gaps that scoring could not
        cover: such a model is refused before it trains."""
        TrainConfig(l=5, r=5, m=3).validate()
        with pytest.raises(ConfigError, match="r must be <= l"):
            TrainConfig(l=5, r=10, m=3).validate()

    def test_error_prediction_needs_windows_of_length_two(self):
        """The head predicts step t + 1 from step t: at l = m = 1 it has no pair."""
        TrainConfig(l=1, r=1, m=1, mode="dsn_only").validate()
        TrainConfig(l=2, r=1, m=1, mode="dsn_plus_ep").validate()
        with pytest.raises(ConfigError, match="length >= 2, got L=1"):
            TrainConfig(l=1, r=1, m=1, mode="dsn_plus_ep").validate()

    @pytest.mark.parametrize("bad", [dict(seed=-1)], ids=["seed"])
    def test_negative_seed_rejected(self, bad):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(**bad).validate()


class TestBatchRanges:
    def test_merges_short_tail_for_pairs(self):
        assert batch_ranges(5, 2, min_last=2) == [(0, 2), (2, 5)]

    def test_keeps_short_tail_otherwise(self):
        assert batch_ranges(5, 2, min_last=1) == [(0, 2), (2, 4), (4, 5)]

    def test_single_batch(self):
        assert batch_ranges(3, 10, min_last=2) == [(0, 3)]


class TestCheckpoints:
    def trained(self, tmp_path):
        series = small_series()
        model = train(series, small_cfg(epochs=2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        return model, path

    def test_save_load_save_identical_bytes(self, tmp_path):
        _, p1 = self.trained(tmp_path)
        model2 = load_checkpoint(p1)
        p2 = tmp_path / "again.ckpt"
        save_checkpoint(model2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_parameters_and_stats(self, tmp_path):
        model, path = self.trained(tmp_path)
        loaded = load_checkpoint(path)
        for k, v in model.phi.items():
            np.testing.assert_array_equal(v, loaded.phi[k])
        assert gru_checksum(loaded.eta) == gru_checksum(model.eta)
        np.testing.assert_array_equal(loaded.stats.mean, model.stats.mean)
        np.testing.assert_array_equal(loaded.stats.std, model.stats.std)
        assert loaded.config == model.config
        assert loaded.d_in == model.d_in
        assert len(loaded.loss_trace) == len(model.loss_trace)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        _, path = self.trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DataError, match="checksum|truncated"):
            load_checkpoint(path)
