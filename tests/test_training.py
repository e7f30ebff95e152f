import numpy as np
import pytest

import sten.training as training
from sten import ConfigError, DataError, NumericError, networks, scoring
from sten.ndkernel import backward, init_gru
from sten.networks import embed_windows, forward, gru_checksum, init_phi
from sten.objectives import js_rows
from sten.scoring import ScoreConfig, distance_scores, score_series
from sten.seqdata import (MultivariateSeries, SynthConfig, batch_ranges, synth_generate,
                          window_starts)
from sten.training import (TrainConfig, build_sten_tape, load_checkpoint, save_checkpoint,
                           seed_streams, train)

from oracles import (build_sten_tape_closures, closure_backward, dsn_plus_ep_tape_two_pass,
                     finite_diff_grad, order_loss_presented)
from windowed import batch_tape


def gradcheck(cfg, seed, h=1e-4, tol=1e-4, with_ep=False):
    rng = np.random.default_rng(seed)
    phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=with_ep)
    eta = init_gru(2, cfg.d_model, rng)
    batch = rng.normal(size=(3, cfg.L, 2))
    tape = batch_tape(phi, eta, batch, cfg)
    grads = backward(tape)

    def loss_fn(pd):
        return batch_tape(pd, eta, batch, cfg).value

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
    """The parts of two tapes: the temporal part bit for bit, the distance
    part within LOSS_RTOL where ``has_distance``."""
    assert got.otn == want.otn
    assert abs(got.dsn - want.dsn) <= LOSS_RTOL * abs(want.dsn)
    assert abs(got.value - want.value) <= LOSS_RTOL * abs(want.value)
    if not has_distance(cfg):
        assert (got.dsn, got.value) == (want.dsn, want.value)


class TestGradients:
    def test_full_loss_matches_finite_differences(self):
        cfg = TrainConfig(R_train=2, l=2, r=2, m=4, d_model=4,
                          alpha=1.0, mode="full")
        _, _, worst = gradcheck(cfg, seed=0)
        assert max(worst.values()) <= 1e-4, worst

    def test_normalized_embeddings_gradients(self):
        cfg = TrainConfig(R_train=2, l=2, r=2, m=3, d_model=4,
                          alpha=0.7, mode="full", normalize_embeddings=True)
        _, _, worst = gradcheck(cfg, seed=1)
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
        tape = batch_tape(phi, None, batch, cfg)
        grads = backward(tape)
        for k, g in grads.items():
            if k.startswith("ep_head."):
                np.testing.assert_array_equal(g, 0.0)
            elif k.startswith("order_head."):
                assert np.abs(g).max() > 0

    def test_eta_receives_no_gradient(self):
        # The tape's parameter template is phi only; eta never appears.
        cfg = TrainConfig(R_train=2, l=2, r=2, m=3, d_model=4, mode="full")
        rng = np.random.default_rng(5)
        phi = init_phi(2, 4, 3, rng)
        eta = init_gru(2, 4, rng)
        batch = rng.normal(size=(2, 6, 2))
        tape = batch_tape(phi, eta, batch, cfg)
        grads = backward(tape)
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
        tape = batch_tape(phi, None, batch, cfg)
        grads = backward(tape)
        perms = rng.permuted(np.tile(np.arange(4), (8, 1)), axis=1)
        loss, ref = order_loss_presented(phi, batch, perms, 3, 3)
        # Reordering rows changes only the summation order: about 1.7e-15
        # relative was measured, so these tolerances leave a wide margin.
        np.testing.assert_allclose(tape.otn, loss, rtol=1e-14, atol=0)
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
        tape = build_sten_tape(phi, None, values, starts, cfg)
        grads = backward(tape)
        batch = values[starts[:, None] + np.arange(cfg.L)]
        identity = np.tile(np.arange(4), (len(starts), 1))
        loss, ref = order_loss_presented(phi, batch, identity, 3, 3)
        assert tape.otn == loss
        assert set(grads) == set(ref)
        # The scatter-add sums each distinct row's slot gradients in another
        # order than BPTT over every slot; 1.7e-15 relative was measured at
        # paper size, so rtol 1e-12 leaves a wide margin.
        for k in grads:
            np.testing.assert_allclose(grads[k], ref[k], rtol=1e-12, atol=0, err_msg=k)


class TestEtaEmbeddedOnce:
    """The frozen projector's embeddings of the training windows are made once
    per train call and reused by every epoch."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_each_window_embedded_once_over_all_epochs(self, monkeypatch, normalize):
        series = small_series()
        cfg = small_cfg(epochs=3, normalize_embeddings=normalize)
        embedded, tapes = [], []
        real_embed, real_tape = training.embed_windows, training.build_sten_tape

        def embed(gru, data, normalize=False):
            embedded.append((gru, len(data)))
            return real_embed(gru, data, normalize)

        def tape(phi, F, values, starts, cfg):
            tapes.append((F, values, starts))
            return real_tape(phi, F, values, starts, cfg)

        monkeypatch.setattr(training, "embed_windows", embed)
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
            np.testing.assert_array_equal(F, embed_windows(model.eta, batch, normalize))


class TestSharedTowerPass:
    """dsn_plus_ep runs phi's GRU once over a batch's windows,
    and BPTT once over that pass: the distance branch reads the
    error-prediction pass.  The loss, gradients and trained master weights
    are within ALL_PAIRS_RTOL of running the tower twice."""

    CASES = [dict(), dict(normalize_embeddings=True)]
    IDS = ["plain", "normalised"]

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_loss_and_gradients_equal_two_passes(self, case):
        cfg = small_cfg(mode="dsn_plus_ep", alpha=0.7, **case)
        rng = np.random.default_rng(8)
        phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=True)
        eta = init_gru(2, cfg.d_model, rng)
        values = rng.normal(size=(150, 2))
        starts = window_starts(150, cfg.L, cfg.R_train)
        F = embed_windows(eta, values[starts[:, None] + np.arange(cfg.L)],
                          cfg.normalize_embeddings)
        got = build_sten_tape(phi, F, values, starts, cfg)
        want = dsn_plus_ep_tape_two_pass(phi, F, values, starts, cfg)
        assert_losses_match(got, want, cfg)
        assert (len(got.passes), len(want.passes)) == (1, 2)
        g, w = backward(got), backward(want)
        assert set(g) == set(phi)
        assert_blocks_close(g, w)

    @staticmethod
    def _master_weights_close(monkeypatch, case):
        """Compares the float64 master weights, not the checkpoint bytes: a
        float32 checkpoint may round the two sum orders to different bits."""
        series = small_series()
        cfg = small_cfg(mode="dsn_plus_ep", epochs=2, **case)
        weights = record_master_weights(monkeypatch)
        train(series, cfg)
        one = weights[-1]
        monkeypatch.setattr(training, "build_sten_tape", dsn_plus_ep_tape_two_pass)
        train(series, cfg)
        assert_blocks_close(one, weights[-1])

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_checkpoint_bytes_equal_two_passes(self, monkeypatch, case):
        """In float32, the compute dtype training runs in."""
        self._master_weights_close(monkeypatch, case)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    @pytest.mark.usefixtures("float64_compute")
    def test_checkpoint_bytes_equal_two_passes_in_float64(self, monkeypatch, case):
        self._master_weights_close(monkeypatch, case)


class TestTapeIsData:
    """build_sten_tape forms the heads' gradients and each GRU pass's upstream
    gradient in the forward, and backward only runs BPTT over the passes.
    Loss parts equal those of the form that recorded one backward closure per
    branch and summed the distance loss one pair at a time, and gradients and
    trained checkpoints do bit for bit, except where the distance branch
    trains (``assert_losses_match``, ``assert_blocks_match``)."""

    CASES = [dict(mode="full"), dict(mode="otn_only"), dict(mode="dsn_only"),
             dict(mode="dsn_plus_ep"), dict(mode="full", normalize_embeddings=True),
             dict(mode="dsn_plus_ep", normalize_embeddings=True), dict(mode="full", alpha=0.0)]
    IDS = ["full", "otn_only", "dsn_only", "dsn_plus_ep", "full-normalised",
           "dsn_plus_ep-normalised", "full-alpha-0"]

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
            F = embed_windows(eta, values[starts[:, None] + np.arange(cfg.L)],
                              cfg.normalize_embeddings)
        got = build_sten_tape(phi, F, values, starts, cfg)
        want = build_sten_tape_closures(phi, F, values, starts, cfg)
        assert_losses_match(got, want, cfg)
        g, w = backward(got), closure_backward(want)
        assert set(g) == set(phi)
        assert_same_blocks(backward(got), g)
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
        monkeypatch.setattr(training, "backward", closure_backward)
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

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalised"])
    @pytest.mark.parametrize("mode", ["full", "dsn_plus_ep"])
    def test_loss_is_the_mean_distance_score(self, mode, normalize):
        cfg = small_cfg(mode=mode, normalize_embeddings=normalize)
        rng = np.random.default_rng(12)
        phi = init_phi(2, cfg.d_model, cfg.m, rng, with_ep_head=mode == "dsn_plus_ep")
        values = rng.normal(size=(150, 2)).astype(training.COMPUTE_DTYPE)
        starts = window_starts(150, cfg.L, cfg.R_train)
        X = values[starts[:, None] + np.arange(cfg.L)]
        F = embed_windows(init_gru(2, cfg.d_model, rng), X, normalize)
        E = forward(phi, values, starts, cfg)[2][0].astype(np.float64)
        want = float(distance_scores(E, F).mean())
        got = build_sten_tape(phi, F, values, starts, cfg).dsn
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
        orig = training.build_sten_tape

        def poisoned(*args, **kwargs):
            tape = orig(*args, **kwargs)
            tape.value = float("nan")
            return tape

        monkeypatch.setattr(training, "build_sten_tape", poisoned)
        with pytest.raises(NumericError, match="epoch 1"):
            train(small_series(n=200), small_cfg())

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
