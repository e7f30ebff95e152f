import numpy as np
import pytest

from sten import DataError, ndkernel, networks
from sten.ndkernel import GruCache, GruParams, gru_forward, gru_shapes, init_gru
from sten.networks import (embed_windows, forward, gru_checksum, init_phi, order_forward,
                           phi_shapes, read_checkpoint, sample_pairs, write_checkpoint)
from sten.scoring import CHUNK
from sten.seqdata import window_starts
from sten.training import TrainConfig

import oracles
from windowed import laid_end_to_end


def make_phi(d_in=3, d_model=4, m=3, seed=0, **kw):
    return init_phi(d_in, d_model, m, np.random.default_rng(seed), **kw)


def zeroed(phi):
    return {k: np.zeros_like(v) for k, v in phi.items()}


def float32(phi):
    return {k: v.astype(np.float32) for k, v in phi.items()}


def windows_for(n_windows=2, d=3, l=4, m=3, seed=1):
    """A (B, l*m, d) batch of random windows."""
    return np.random.default_rng(seed).normal(size=(n_windows, l * m, d))


def forward_cfg(mode, L=12, **kw):
    """A config of m=3 sub-sequences at stride l over windows of length L."""
    return TrainConfig(l=L // 3, r=L // 3, m=3, mode=mode, **kw)


def order_of(phi, batch, l, r):
    """order_forward over a batch of windows laid end to end."""
    return order_forward(phi, *laid_end_to_end(batch), l, r)


class TestPhiLayout:
    """phi_shapes is phi's one layout: init_phi draws it, checkpoints are checked against it."""

    @pytest.mark.parametrize("sizes", [(5, 256, 10), (2, 4, 3)])
    @pytest.mark.parametrize("ep", [False, True], ids=["ep=False", "ep=True"])
    def test_init_phi_draws_the_table_in_order(self, sizes, ep):
        d_in, d, m = sizes
        phi = init_phi(d_in, d, m, np.random.default_rng(3), with_ep_head=ep)
        shapes = phi_shapes(d_in, d, m, ep)
        assert [(k, v.shape) for k, v in phi.items()] == list(shapes.items())
        # The draws every checkpoint so far was made with: the GRU's nine
        # per-gate blocks W_z, W_r, W_h, U_z, U_r, U_h, b_z, b_r, b_h, each
        # stacked block the concatenation of its three gates; the order head;
        # the error-prediction head.
        rng, s = np.random.default_rng(3), 1.0 / np.sqrt(d)
        gates = [rng.uniform(-s, s, size=sh)
                 for sh in [(d, d_in)] * 3 + [(d, d)] * 3 + [(d,)] * 3]
        want = [np.concatenate(gates[i:i + 3]) for i in (0, 3, 6)]
        want += [rng.uniform(-s, s, size=sh) for sh in [(m, d), (m,)]
                 + [(d_in, d), (d_in,)] * ep]
        assert len(want) == len(phi)
        for got, w in zip(phi.values(), want):
            np.testing.assert_array_equal(got, w)

    def test_init_gru_draws_gru_shapes(self):
        p = init_gru(2, 5, np.random.default_rng(4))
        assert {n: getattr(p, n).shape for n in GruParams.NAMES} == gru_shapes(2, 5)
        assert list(gru_shapes(2, 5)) == list(GruParams.NAMES)


class TestEncodeSubseq:
    """The sub-sequence embeddings H of order_forward."""

    def test_zero_params(self):
        phi = zeroed(make_phi())
        _, _, H, _, _ = order_of(phi, windows_for(), 4, 4)
        np.testing.assert_array_equal(H, np.zeros((6, 4)))

    def test_identical_inputs_identical_embeddings(self):
        phi = make_phi()
        batch = windows_for()
        batch[1] = batch[0]
        _, _, H, _, _ = order_of(phi, batch, 4, 4)
        np.testing.assert_array_equal(H[:3], H[3:])

    def test_matches_gru_encode(self):
        phi = make_phi(seed=3)
        batch = windows_for(seed=4)
        _, _, H, _, _ = order_of(phi, batch, 4, 4)
        for row, sub in zip(H, oracles.gather_subsequences(batch, 3, 4, 4)):
            np.testing.assert_allclose(row, oracles.gru_encode_unrolled(sub, GruParams.from_dict(phi, "gru.")),
                                       atol=1e-10)


class TestOrderProbs:
    """The position distributions P and truth Y of order_forward."""

    def test_zero_params_uniform(self):
        phi = zeroed(make_phi())
        P, _, _, _, _ = order_of(phi, windows_for(), 4, 4)
        np.testing.assert_allclose(P, np.full((6, 3), 1 / 3))

    def test_single_subsequence(self):
        phi = make_phi(m=1)
        P, Y, _, _, _ = order_of(phi, windows_for(l=4, m=1), 4, 4)
        np.testing.assert_allclose(P, [[1.0], [1.0]])
        np.testing.assert_array_equal(Y, [[1.0], [1.0]])

    def test_rows_are_distributions_for_any_params(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            phi = make_phi(seed=100 + trial)
            phi["order_head.W"] = phi["order_head.W"] * rng.uniform(1, 50)
            P, _, _, _, _ = order_of(phi, windows_for(seed=200 + trial), 4, 4)
            assert np.all(P >= 0)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-6)


class TestDistinctSubsequences:
    """order_forward encodes each distinct sub-sequence once, computes its
    position distribution once and gathers that back; P, Y and the slots'
    rows of H are those of encoding every slot, bit for bit unless there are
    only a few distinct rows."""

    @pytest.mark.parametrize("n,stride,cover_tail", [
        pytest.param(60, 4, False, id="stride-r"),
        pytest.param(60, 7, False, id="stride-not-multiple-of-r"),
        pytest.param(61, 4, True, id="cover-tail-window"),
        pytest.param(60, 12, False, id="stride-L"),
        pytest.param(4 * CHUNK + 300, 4, False, id="more-than-chunk-windows"),
    ])
    def test_matches_per_slot_oracle(self, n, stride, cover_tail):
        phi = make_phi(seed=20)                       # m=3; with l=r=4, L=12
        values = np.random.default_rng(21).normal(size=(n, 3))
        starts = window_starts(n, 12, stride, cover_tail)
        batch = values[starts[:, None] + np.arange(12)]
        P, Y, H, inv, cache = order_forward(phi, values, starts, 4, 4, want_cache=True)
        P_o, Y_o, H_o = oracles.order_forward_per_slot(phi, batch, 4, 4)
        np.testing.assert_array_equal(P, P_o)
        np.testing.assert_array_equal(Y, Y_o)
        np.testing.assert_array_equal(H[inv], H_o)
        np.testing.assert_array_equal(cache.X[inv], oracles.gather_subsequences(batch, 3, 4, 4))
        assert cache.X.shape[0] == len(np.unique(starts[:, None] + np.arange(3) * 4))

    def test_paper_layout_matches_per_slot_oracle(self):
        # At d_model 256, an unpadded logits GEMM over the 25 distinct rows
        # alone rounds differently from one over the 160 slots (seen with
        # OpenBLAS), so this case tells the padded head GEMM from the unpadded.
        phi = float32(init_phi(3, 256, 10, np.random.default_rng(23)))
        values = np.random.default_rng(24).normal(size=(250, 3))
        starts = window_starts(250, 100, 10)
        P, Y, H, inv, _ = order_forward(phi, values, starts, 10, 10)
        P_o, Y_o, H_o = oracles.order_forward_per_slot(
            phi, values[starts[:, None] + np.arange(100)], 10, 10)
        np.testing.assert_array_equal(P, P_o)
        np.testing.assert_array_equal(Y, Y_o)
        np.testing.assert_array_equal(H[inv], H_o)

    @pytest.mark.parametrize("n_windows", [1, 4, 16])
    def test_few_rows_match_per_slot_oracle_within_rounding(self, n_windows):
        # A GEMM over a few rows may round each row differently from the same
        # rows inside a taller GEMM (seen with OpenBLAS: up to 33 rows at
        # d_model 32, 4 at 256, and a single row at any width), so encoding
        # the few distinct rows is exact only up to rounding: measured 4e-16
        # relative on P and 1.1e-16 absolute on H.
        phi = float32(init_phi(3, 32, 10, np.random.default_rng(25)))
        n = 100 + 10 * (n_windows - 1)
        values = np.random.default_rng(26).normal(size=(n, 3))
        starts = window_starts(n, 100, 10)
        P, Y, H, inv, _ = order_forward(phi, values, starts, 10, 10)
        P_o, Y_o, H_o = oracles.order_forward_per_slot(
            phi, values[starts[:, None] + np.arange(100)], 10, 10)
        np.testing.assert_allclose(P, P_o, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(Y, Y_o)
        np.testing.assert_allclose(H[inv], H_o, rtol=0, atol=1e-15)

    def test_windows_at_stride_r_share_all_but_one(self):
        values = np.random.default_rng(22).normal(size=(60, 3))
        starts = window_starts(60, 12, 4)
        *_, cache = order_forward(make_phi(), values, starts, 4, 4, want_cache=True)
        assert cache.X.shape[0] == len(starts) + 3 - 1

    def test_subsequence_outside_series_rejected(self):
        values = np.zeros((20, 3))
        with pytest.raises(DataError, match="outside"):
            order_forward(make_phi(), values, np.array([0, 9]), 4, 4)
        with pytest.raises(DataError, match="outside"):
            order_forward(make_phi(), values, np.array([-1]), 4, 4)


class TestEmbedSequence:
    """Window embeddings of the distance branch."""

    def test_zero_params(self):
        gru = GruParams.from_dict(zeroed(make_phi()), "gru.")
        blocks = []
        np.testing.assert_array_equal(embed_windows(gru, windows_for(), lambda: blocks.append(1)),
                                      np.zeros((2, 4)))
        assert blocks == [1]

    def test_eta_frozen_identical_across_calls(self):
        eta = init_gru(3, 4, np.random.default_rng(8))
        batch = windows_for(seed=9)
        before = gru_checksum(eta)
        a = embed_windows(eta, batch, lambda: None)
        b = embed_windows(eta, batch, lambda: None)
        np.testing.assert_array_equal(a, b)
        assert gru_checksum(eta) == before

    def test_matches_unrolled_oracle(self):
        gru = GruParams.from_dict(make_phi(seed=10), "gru.")
        data = np.random.default_rng(11).normal(size=(4, 3))
        np.testing.assert_allclose(embed_windows(gru, data[None], lambda: None)[0],
                                   oracles.gru_encode_unrolled(data, gru),
                                   atol=1e-10)


class TestForward:
    """networks.forward runs the branches a mode selects and decides where the
    distance embeddings come from."""

    @pytest.mark.parametrize("mode,ran", [("full", (True, False, True)),
                                          ("otn_only", (True, False, False)),
                                          ("dsn_only", (False, False, True)),
                                          ("dsn_plus_ep", (False, True, True))])
    def test_runs_the_selected_branches(self, mode, ran):
        phi = make_phi(seed=30, with_ep_head=True)
        out = forward(phi, *laid_end_to_end(windows_for(seed=31)), forward_cfg(mode))
        assert tuple(o is not None for o in out[:3]) == ran

    def test_one_tower_reads_the_error_prediction_pass(self):
        phi = make_phi(seed=32, with_ep_head=True)
        windows = windows_for(seed=33)
        _, ep, dsn = forward(phi, *laid_end_to_end(windows), forward_cfg("dsn_plus_ep"),
                             want_cache=True)
        assert dsn[1] is ep[1]
        np.testing.assert_array_equal(dsn[0],
                                      gru_forward(windows, GruParams.from_dict(phi, "gru.")))
        # The head's residuals, read from each state as its step made it,
        # are those of the states the cache keeps, by one padded GEMM a step.
        X = ep[1].X
        np.testing.assert_array_equal(ep[0], oracles.ep_residuals(ep[1], phi, X)[1])

    # The error-prediction readout's tolerance against one vector-matrix
    # product per row, the readout before one padded GEMM per step: a
    # residual may move by this times the sum of its terms' magnitudes,
    # |h| @ |W_e|^T + |b| + |x_{t+1}|.  Measured at most 4.4e-16 of it, at
    # D 1 to 17 and d_model 8 to 256.
    EP_READOUT_RTOL = 1e-15

    @pytest.mark.parametrize("D,d_model", [(1, 8), (3, 32), (5, 32), (9, 8), (3, 256)])
    def test_readout_within_named_tolerance_of_one_row_products(self, D, d_model):
        phi = make_phi(d_in=D, d_model=d_model, seed=38, with_ep_head=True)
        windows = windows_for(n_windows=70, d=D, seed=39)
        _, ep, _ = forward(phi, *laid_end_to_end(windows), forward_cfg("dsn_plus_ep"),
                           want_cache=True)
        H = ep[1].H_prev[1:].astype(np.float64)
        W_e, b = phi["ep_head.W"], phi["ep_head.b"]
        x_next = np.transpose(windows[:, 1:], (1, 0, 2))
        per_row = oracles.ep_predictions_per_row(H, W_e) + b - x_next
        scale = np.abs(H) @ np.abs(W_e).T + np.abs(b) + np.abs(x_next)
        assert np.all(np.abs(ep[0] - per_row) <= self.EP_READOUT_RTOL * scale)

    @pytest.mark.parametrize("D", [3, 5])
    @pytest.mark.parametrize("d_model", [8, 32, 256])
    def test_a_rows_residuals_do_not_depend_on_the_row_count(self, monkeypatch, D, d_model):
        """The head's residuals of a pass over the first n of 1,100 windows,
        for every n from 2 on, are those the rows' states get in a padded
        GEMM over all 1,100 rows.  The GRU is a stand-in that hands the
        readout fixed states, so that only the readout's row count changes."""
        rng = np.random.default_rng(D + d_model)
        L, n_all = 3, 1100
        states = rng.uniform(-1, 1, size=(L, n_all, d_model)).astype(np.float32)

        def fixed_states(X, gru, on_step):
            rows = slice(0, len(X))
            for t in range(L):
                on_step(t, rows, states[t, rows])
            return states[-1, rows].astype(np.float64)

        monkeypatch.setattr(networks, "gru_forward", fixed_states)
        phi = make_phi(d_in=D, d_model=d_model, seed=41, with_ep_head=True)
        windows = rng.normal(size=(n_all, L, D))
        values, starts = laid_end_to_end(windows)
        x_next = np.transpose(windows[:, 1:], (1, 0, 2))
        tall = (oracles.ep_predictions(states[:-1].astype(np.float64), phi["ep_head.W"])
                + phi["ep_head.b"] - x_next)
        for n in range(2, n_all + 1):
            resid = forward(phi, values, starts[:n], forward_cfg("dsn_plus_ep", L=L))[1][0]
            assert np.array_equal(resid, tall[:, :n]), n

    @pytest.mark.parametrize("want_cache", [False, True], ids=["score", "train"])
    @pytest.mark.parametrize("mode", ["full", "dsn_only", "dsn_plus_ep"])
    @pytest.mark.parametrize("d_model,beside", [(128, True), (32, False)],
                             ids=["beside", "serial"])
    def test_eta_embeds_the_windows_with_the_bits_of_each_tower(self, d_model, beside, mode,
                                                                 want_cache):
        """Given eta, forward's distance entry carries F, the bits of
        ``gru_forward`` over the windows, and its order, ep and E entries
        have the bits of a forward without eta: at a shape whose eta pass
        runs beside phi's passes, and at one that runs them serially."""
        windows = windows_for(n_windows=64, seed=43).astype(np.float32)
        assert ndkernel._runs_beside(len(windows), d_model) is beside
        phi = make_phi(d_model=d_model, seed=42, with_ep_head=True)
        eta = init_gru(3, d_model, np.random.default_rng(44)).astype(np.float32)
        values, starts = laid_end_to_end(windows)
        cfg = forward_cfg(mode)
        got = forward(phi, values.astype(np.float32), starts, cfg, want_cache, eta=eta)
        want = forward(phi, values.astype(np.float32), starts, cfg, want_cache)
        assert want[2][2] is None
        assert np.array_equal(got[2][2], gru_forward(windows, eta))

        def same(a, b):
            if isinstance(a, GruCache):
                return np.array_equal(a.X, b.X) and np.array_equal(a.steps, b.steps)
            if isinstance(a, tuple):
                return len(a) == len(b) and all(map(same, a, b))
            return a is b is None or np.array_equal(a, b)

        assert same((*got[:2], got[2][:2]), (*want[:2], want[2][:2]))

    def test_error_prediction_input_checks(self):
        values, starts = laid_end_to_end(windows_for(seed=36))
        with pytest.raises(DataError, match="no error-prediction head"):
            forward(make_phi(seed=37), values, starts, forward_cfg("dsn_plus_ep"))


class TestSamplePairs:
    def test_two_windows_forced(self):
        assert sample_pairs(2, np.random.default_rng(0), 1).tolist() == [[0, 1], [1, 0]]

    def test_partner_never_self(self):
        rng = np.random.default_rng(18)
        for i, j in sample_pairs(7, rng, 3):
            assert i != j
            assert 0 <= j < 7

    def test_same_seed_same_pairs(self):
        np.testing.assert_array_equal(sample_pairs(5, np.random.default_rng(42), 2),
                                      sample_pairs(5, np.random.default_rng(42), 2))

    def test_single_window_rejected(self):
        with pytest.raises(DataError):
            sample_pairs(1, np.random.default_rng(0), 1)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (7, 3), (50, 1), (64, 5)])
    def test_matches_loop_form(self, n, k):
        got = sample_pairs(n, np.random.default_rng(n * 10 + k), k)
        want = oracles.sample_pairs_loop(n, np.random.default_rng(n * 10 + k), k)
        assert got.shape == (n * k, 2)
        assert got.tolist() == [list(p) for p in want]


class TestCheckpointFormat:
    def blocks(self):
        rng = np.random.default_rng(19)
        return {"a.w": rng.normal(size=(3, 2)).astype(np.float32),
                "b.v": rng.normal(size=4).astype(np.float32)}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        cfg = {"d_model": 4, "note": "x"}
        blocks = self.blocks()
        write_checkpoint(path, cfg, blocks)
        cfg2, blocks2 = read_checkpoint(path)
        assert cfg2 == cfg
        for k in blocks:
            np.testing.assert_array_equal(blocks2[k], blocks[k])

    def test_rewrite_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(p1, {"k": 1}, self.blocks())
        cfg, blocks = read_checkpoint(p1)
        write_checkpoint(p2, cfg, blocks)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_checksum_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, {}, self.blocks())
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(DataError, match="checksum|truncated"):
            read_checkpoint(path)

    def test_corrupt_byte_checksum_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, {}, self.blocks())
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="checksum"):
            read_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        import hashlib
        path = tmp_path / "m.ckpt"
        body = b"NOTSTENX" + b"\x00" * 12
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(DataError, match="magic"):
            read_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        import hashlib
        import struct
        path = tmp_path / "m.ckpt"
        body = b"STENCKPT" + struct.pack("<I", 99) + struct.pack("<I", 2) + b"{}"
        body += struct.pack("<I", 0)
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(DataError, match="version"):
            read_checkpoint(path)


class TestEtaChecksum:
    def test_checksum_tracks_content(self):
        eta = init_gru(3, 4, np.random.default_rng(20))
        c1 = gru_checksum(eta)
        assert c1 == gru_checksum(eta)
        eta2 = init_gru(3, 4, np.random.default_rng(21))
        assert gru_checksum(eta2) != c1
        eta.W = eta.W + 1e-6
        assert gru_checksum(eta) != c1
