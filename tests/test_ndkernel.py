import numpy as np
import pytest

from sten import DataError, NumericError, StenError
from sten.ndkernel import (AdamState, GruParams, adam_update, backward,
                           gru_backward, gru_forward, init_adam_state, init_gru, softmax)

import oracles
from oracles import finite_diff_grad


def zero_gru(d_in, d_model):
    z = np.zeros
    return GruParams(W_z=z((d_model, d_in)), W_r=z((d_model, d_in)), W_h=z((d_model, d_in)),
                     U_z=z((d_model, d_model)), U_r=z((d_model, d_model)),
                     U_h=z((d_model, d_model)),
                     b_z=z(d_model), b_r=z(d_model), b_h=z(d_model))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_shift_invariance_constant(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(softmax(np.full(4, c)), np.full(4, 0.25))

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([1.0, np.nan]))

    def test_valid_distribution_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(scale=5.0, size=rng.integers(2, 9))
            p = softmax(v)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-6
            np.testing.assert_allclose(softmax(v + 3.7), p, atol=1e-12)


class TestGruStep:
    """One step of gru_forward (T = 1) from the zero initial state."""

    def test_zero_everything(self):
        p = zero_gru(2, 3)
        np.testing.assert_allclose(gru_forward(np.zeros((1, 1, 2)), p), np.zeros((1, 3)))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        p = init_gru(3, 5, rng)
        x = rng.normal(size=3)
        np.testing.assert_allclose(gru_forward(x[None, None], p)[0],
                                   oracles.gru_step_scalar(x, np.zeros(5), p), atol=1e-6)

    def test_dim_mismatch(self):
        p = zero_gru(3, 4)
        with pytest.raises(DataError):
            gru_forward(np.zeros((1, 1, 2)), p)

    def test_output_bounded_by_convex_combination(self):
        # From h_0 = 0 every step is a convex combination of h_{t-1} and a
        # tanh, so the whole trajectory stays in [-1, 1].
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = init_gru(2, 6, rng)
            _, H_all = gru_forward(rng.normal(scale=3.0, size=(4, 5, 2)), p, want_all=True)
            assert np.all(np.abs(H_all) <= 1.0 + 1e-12)


class TestGruEncode:
    """gru_forward over whole sequences (T >= 2)."""

    def test_single_step_equivalence(self):
        rng = np.random.default_rng(3)
        p = init_gru(2, 4, rng)
        X = rng.normal(size=(3, 5, 2))
        _, H_all = gru_forward(X, p, want_all=True)
        np.testing.assert_allclose(gru_forward(X[:, :1], p), H_all[0], atol=1e-12)

    def test_zero_params_zero_state(self):
        p = zero_gru(2, 3)
        seq = np.random.default_rng(4).normal(size=(1, 7, 2))
        np.testing.assert_allclose(gru_forward(seq, p), np.zeros((1, 3)))

    def test_matches_unrolled_oracle(self):
        rng = np.random.default_rng(5)
        p = init_gru(3, 4, rng)
        seq = rng.normal(size=(3, 3))
        np.testing.assert_allclose(gru_forward(seq[None], p)[0],
                                   oracles.gru_encode_unrolled(seq, p), atol=1e-10)

    def test_empty_sequence_rejected(self):
        p = zero_gru(2, 3)
        with pytest.raises(DataError):
            gru_forward(np.zeros((1, 0, 2)), p)

    def test_batched_forward_matches_sequential(self):
        rng = np.random.default_rng(6)
        p = init_gru(3, 5, rng)
        X = rng.normal(size=(4, 6, 3))
        H = gru_forward(X, p)
        for b in range(4):
            np.testing.assert_allclose(H[b], gru_forward(X[b:b + 1], p)[0], atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        p = init_gru(2, 4, rng)
        X = rng.normal(size=(3, 5, 2))
        a = gru_forward(X, p)
        b = gru_forward(X, p)
        assert np.array_equal(a, b)


class TestGruBackward:
    def _fd_check(self, d_h_all_mode, seed):
        rng = np.random.default_rng(seed)
        p = init_gru(2, 4, rng)
        X = rng.normal(size=(3, 5, 2))
        w_final = rng.normal(size=(3, 4))
        w_all = rng.normal(size=(5, 3, 4))

        def loss_of(params):
            q = GruParams.from_dict(params)
            if d_h_all_mode:
                H, H_all = gru_forward(X, q, want_all=True)
                return float((w_all * H_all).sum()) + float((w_final * H).sum())
            return float((w_final * gru_forward(X, q)).sum())

        H, cache = gru_forward(X, p, want_cache=True)
        grads = {k: np.zeros_like(v) for k, v in p.as_dict().items()}
        gru_backward(cache, p, grads, "", d_h_final=w_final,
                     d_h_all=w_all if d_h_all_mode else None)
        fd = finite_diff_grad(loss_of, p.as_dict(), h=1e-6)
        for k in grads:
            np.testing.assert_allclose(grads[k], fd[k], atol=1e-7,
                                       err_msg=f"gradient mismatch for {k}")

    def test_bptt_final_state(self):
        self._fd_check(d_h_all_mode=False, seed=8)

    def test_bptt_per_step_injection(self):
        self._fd_check(d_h_all_mode=True, seed=9)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        state = init_adam_state(params)
        new, state = adam_update(params, grads, state, lr=0.01)
        np.testing.assert_allclose(new["w"] - params["w"],
                                   -0.01 * np.sign(grads["w"]), atol=1e-7)
        assert state.t == 1

    def test_zero_grad_keeps_params(self):
        params = {"w": np.array([1.5, 2.5])}
        state = init_adam_state(params)
        new, state = adam_update(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(new["w"], params["w"])
        assert state.t == 1

    def test_two_steps_match_scalar_recurrence(self):
        theta = 0.4
        g = 0.25
        params = {"w": np.array([theta])}
        state = init_adam_state(params)
        for _ in range(2):
            params, state = adam_update(params, {"w": np.array([g])}, state, lr=0.05)
        expected = oracles.adam_scalar_steps(theta, [g, g], lr=0.05)
        np.testing.assert_allclose(params["w"][0], expected, rtol=1e-12)

    def test_lr_zero_is_identity(self):
        rng = np.random.default_rng(10)
        params = {"w": rng.normal(size=(3, 2))}
        state = init_adam_state(params)
        new, _ = adam_update(params, {"w": rng.normal(size=(3, 2))}, state, lr=0.0)
        np.testing.assert_array_equal(new["w"], params["w"])

    def test_nonfinite_grads_abort(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(NumericError):
            adam_update(params, {"w": np.array([1.0, np.inf])},
                        init_adam_state(params), lr=0.1)

    def test_t_increments_by_one(self):
        params = {"w": np.zeros(1)}
        state = init_adam_state(params)
        for expect in (1, 2, 3):
            _, state = adam_update(params, {"w": np.ones(1)}, state, lr=0.1)
            assert state.t == expect


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda p: float(p["t"] ** 2), {"t": np.array(3.0)},
                                h=1e-4)
        np.testing.assert_allclose(grad["t"], 6.0, atol=1e-6)

    def test_constant_function(self):
        grad = finite_diff_grad(lambda p: 1.25, {"w": np.ones((2, 2))}, h=1e-4)
        np.testing.assert_array_equal(grad["w"], np.zeros((2, 2)))


class TestGradTape:
    def test_stale_tape_rejected(self):
        from sten.networks import init_phi
        from sten.training import TrainConfig, build_sten_tape

        rng = np.random.default_rng(11)
        phi = init_phi(2, 4, 3, rng)
        cfg = TrainConfig(L=6, R_train=1, l=2, r=2, m=3, d_model=4, mode="otn_only")
        batch = rng.normal(size=(2, 6, 2))
        perms = np.stack([rng.permutation(3) for _ in range(2)])
        tape = build_sten_tape(phi, None, batch, perms, None, cfg)
        backward(tape)  # fine while params unchanged
        phi.load_dict({k: v.copy() for k, v in phi.as_dict().items()})
        with pytest.raises(StenError):
            backward(tape)
