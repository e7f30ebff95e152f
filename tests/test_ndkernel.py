import tracemalloc

import numpy as np
import pytest

from sten import DataError, NumericError
from sten.ndkernel import (AdamState, GruCache, GruParams, adam_update, gru_backward,
                           gru_forward, init_adam_state, init_gru, sigmoid, softmax)
from sten.scoring import CHUNK, MIN_ROWS

import oracles
from oracles import finite_diff_grad

# Float32 compute against float64, on the shapes of TestFloat32Compute (up to
# d_model 64, 20 steps).  Measured: hidden states within 1e-7 absolute, and
# each weight's gradient within 4.3e-7 of that gradient's largest entry.
F32_HIDDEN_ATOL = 1e-6
F32_GRAD_RTOL = 5e-6


def zero_gru(d_in, d_model):
    z = np.zeros
    return GruParams(W=z((3 * d_model, d_in)), U=z((3 * d_model, d_model)), b=z(3 * d_model))


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
            states = []
            gru_forward(rng.normal(scale=3.0, size=(4, 5, 2)), p,
                        on_step=lambda t, H: states.append(H.copy()))
            assert np.all(np.abs(states) <= 1.0 + 1e-12)


class TestGruEncode:
    """gru_forward over whole sequences (T >= 2)."""

    def test_single_step_equivalence(self):
        rng = np.random.default_rng(3)
        p = init_gru(2, 4, rng)
        X = rng.normal(size=(3, 5, 2))
        _, cache = gru_forward(X, p, want_cache=True)
        np.testing.assert_allclose(gru_forward(X[:, :1], p), cache.H_prev[1], atol=1e-12)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_on_step_sees_each_new_state(self, dtype):
        """``on_step(t, H)`` gets step t's new states in the compute dtype:
        the cache's ``H_prev[t + 1]``, and the final states at the last step."""
        rng = np.random.default_rng(8)
        p = init_gru(3, 5, rng)
        X = rng.normal(size=(4, 6, 3)).astype(dtype)
        seen = []
        H, cache = gru_forward(X, p, want_cache=True,
                               on_step=lambda t, H_t: seen.append((t, H_t.copy())))
        assert [t for t, _ in seen] == list(range(6))
        assert all(H_t.dtype == dtype for _, H_t in seen)
        for t, H_t in seen[:-1]:
            assert np.array_equal(H_t, cache.H_prev[t + 1]), t
        assert np.array_equal(seen[-1][1].astype(np.float64), H)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        p = init_gru(2, 4, rng)
        X = rng.normal(size=(3, 5, 2))
        a = gru_forward(X, p)
        b = gru_forward(X, p)
        assert np.array_equal(a, b)


class TestRowCountInvariance:
    """From ``scoring.MIN_ROWS`` rows on, a window's final state does not
    depend on how many windows share its forward: the property that scoring's
    chunk floor rests on.  Below it, BLAS may round a row of a GEMM over a few
    rows differently from the same row in a tall one: with d_in 5, rows
    differed up to k = 37 at d_model 32, 18 at 64 and 4 at 256 (OpenBLAS)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("d_model", [32, 256])
    def test_rows_from_the_floor_on_match_a_tall_batch(self, d_model, dtype):
        p = init_gru(5, d_model, np.random.default_rng(15))
        X = np.random.default_rng(16).normal(size=(CHUNK, 10, 5)).astype(dtype)
        tall = gru_forward(X, p)
        for k in (MIN_ROWS, MIN_ROWS + 1, 100):
            assert np.array_equal(gru_forward(X[:k], p), tall[:k]), k


class TestSigmoid:
    """The branch-free sigmoid performs the masked form's float operations."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 5e-324, -5e-324,
               2.2250738585072014e-308, -2.2250738585072014e-308, 709.78, -745.2]

    def test_random_bit_patterns_match_masked_form(self):
        bits = np.random.default_rng(10).integers(0, 2**64, size=200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        assert np.array_equal(sigmoid(x), oracles.sigmoid_masked(x), equal_nan=True)

    def test_special_values_match_masked_form(self):
        x = np.array(self.SPECIAL)
        assert np.array_equal(sigmoid(x), oracles.sigmoid_masked(x), equal_nan=True)

    def test_gate_range_matches_masked_form(self):
        x = np.random.default_rng(11).normal(scale=8.0, size=(64, 48))
        got = sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got, oracles.sigmoid_masked(x))


class TestStackedForward:
    """gru_forward (stacked gate GEMMs, input projected per step) against the
    per-gate forward with whole-sequence input projections in oracles."""

    def _both(self, d_in, B=6, T=9, d=16, seed=12):
        rng = np.random.default_rng(seed)
        p = init_gru(d_in, d, rng)
        X = rng.normal(size=(B, T, d_in))
        return (gru_forward(X, p, want_cache=True),
                oracles.gru_forward_unfused(X, p, want_cache=True), p)

    @staticmethod
    def _arrays(out):
        H, cache = out
        return [H] + [getattr(cache, n) for n in GruCache.__slots__]

    @pytest.mark.parametrize("B,T,d", [(6, 9, 16), (64, 10, 32)])
    def test_bit_identical_at_small_d_in(self, B, T, d):
        got, want, _ = self._both(d_in=5, B=B, T=T, d=d)
        for a, b in zip(self._arrays(got), self._arrays(want)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d_in", [38, 64])
    def test_within_named_tolerance_at_wide_d_in(self, d_in):
        # At d_in >= 32 BLAS may pick another dgemm kernel for the per-step
        # (B, d_in) projection than for the whole-sequence one.
        got, want, _ = self._both(d_in=d_in, B=64, T=10, d=32)
        for a, b in zip(self._arrays(got), self._arrays(want)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_backward_equal_from_either_cache(self):
        got, want, p = self._both(d_in=5)
        rng = np.random.default_rng(13)
        d_final = rng.normal(size=got[0].shape)
        d_all = rng.normal(size=got[1].H_prev.shape)
        grads = []
        for _, cache in (got, want):
            g = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
            gru_backward(cache, p, g, "", d_h_final=d_final, d_h_all=d_all)
            grads.append(g)
        for k in grads[0]:
            assert np.array_equal(grads[0][k], grads[1][k]), k

    def test_cacheless_memory_does_not_grow_with_steps(self):
        B, d, d_in = 64, 32, 5
        rng = np.random.default_rng(14)
        p = init_gru(d_in, d, rng)
        peaks = []
        for T in (10, 200):
            X = rng.normal(size=(B, T, d_in))
            tracemalloc.start()
            try:
                gru_forward(X, p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]
        assert peaks[1] < 32 * B * d * 8


class TestFloat32Compute:
    """The GRU computes in float32 for float32 input, with float64 weights,
    and stays within named tolerances of the float64 path."""

    SHAPES = [(5, 7, 3, 6), (16, 12, 2, 32), (64, 20, 5, 64)]

    @staticmethod
    def _run(X, p, dtype, d_final, d_all, grads=None):
        H, cache = gru_forward(X.astype(dtype), p, want_cache=True)
        if grads is None:
            grads = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
        gru_backward(cache, p, grads, "", d_h_final=d_final, d_h_all=d_all)
        return H, cache.H_prev, cache, grads

    def _inputs(self, shape, seed):
        B, T, d_in, d = shape
        rng = np.random.default_rng(seed)
        p = init_gru(d_in, d, rng)
        return (p, rng.normal(size=(B, T, d_in)), rng.normal(size=(B, d)),
                rng.normal(size=(T, B, d)))

    def test_sigmoid_keeps_float32_and_upcasts_the_rest(self):
        x = np.linspace(-30, 30, 101)
        assert sigmoid(x.astype(np.float32)).dtype == np.float32
        assert sigmoid(x.astype(np.float16)).dtype == np.float64
        assert sigmoid(np.arange(-3, 4)).dtype == np.float64

    @pytest.mark.parametrize("shape", SHAPES)
    def test_hidden_states_within_named_tolerance(self, shape):
        p, X, d_final, d_all = self._inputs(shape, seed=15)
        H64, Hall64, _, _ = self._run(X, p, np.float64, d_final, d_all)
        H32, Hall32, cache, _ = self._run(X, p, np.float32, d_final, d_all)
        assert H32.dtype == np.float64 and Hall32.dtype == np.float32
        assert all(getattr(cache, n).dtype == np.float32 for n in GruCache.__slots__)
        np.testing.assert_allclose(H32, H64, rtol=0, atol=F32_HIDDEN_ATOL)
        np.testing.assert_allclose(Hall32, Hall64, rtol=0, atol=F32_HIDDEN_ATOL)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_per_call_gradients_within_named_tolerance(self, shape):
        p, X, d_final, d_all = self._inputs(shape, seed=16)
        g64 = self._run(X, p, np.float64, d_final, d_all)[3]
        g32 = self._run(X, p, np.float32, d_final, d_all)[3]
        for k in g64:
            assert g32[k].dtype == np.float64
            err = np.abs(g32[k] - g64[k]).max()
            assert err <= F32_GRAD_RTOL * np.abs(g64[k]).max(), k

    def test_float32_gradients_are_added_once_into_float64_grads(self):
        """Each call sums its gradients in its compute dtype, float32 or
        float64, then adds them to the grads it is given: onto nonzero grads
        it adds exactly what it gives from zero."""
        p, X, d_final, d_all = self._inputs(self.SHAPES[1], seed=17)
        for dtype in (np.float32, np.float64):
            alone = self._run(X, p, dtype, d_final, d_all)[3]
            base = {k: np.random.default_rng(18).normal(size=v.shape) for k, v in alone.items()}
            added = self._run(X, p, dtype, d_final, d_all,
                              grads={k: v.copy() for k, v in base.items()})[3]
            for k in base:
                assert np.array_equal(added[k], base[k] + alone[k]), (dtype, k)


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
                states = []
                H = gru_forward(X, q, on_step=lambda t, H_t: states.append(H_t.copy()))
                return float((w_all * np.array(states)).sum()) + float((w_final * H).sum())
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
