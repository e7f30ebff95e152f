import contextvars
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sten import DataError, NumericError, ndkernel
from sten.ndkernel import (MIN_ROWS, AdamState, GruCache, GruParams, adam_update, gru_backward,
                           gru_forward, init_adam_state, init_gru, sigmoid, softmax)
from sten.scoring import CHUNK

import oracles
from oracles import finite_diff_grad

# Float32 compute against float64, on the shapes of TestFloat32Compute (up to
# d_model 64, 20 steps).  Measured: hidden states within 1e-7 absolute, and
# each weight's gradient within 4.3e-7 of that gradient's largest entry.
F32_HIDDEN_ATOL = 1e-6
F32_GRAD_RTOL = 5e-6
# A split BPTT against the one-thread loop over the whole batch, each half
# rounding its own sum over rows.  Measured over B 128-512, T 10-100 and
# d_model 128 and 256: each weight's gradient within 9.5e-7 (float32) and
# 1.5e-15 (float64) of that gradient's largest entry.
SPLIT_F32_GRAD_RTOL = 2e-6
SPLIT_F64_GRAD_RTOL = 4e-15


@pytest.fixture
def one_thread(monkeypatch):
    """Every GRU pass on the calling thread alone."""
    monkeypatch.setattr(ndkernel, "_uses_worker", lambda B, d: False)
    monkeypatch.setattr(ndkernel, "_runs_beside", lambda B, d: False)


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
                        on_step=lambda t, rows, H: states.append(H.copy()))
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
        """``on_step(t, rows, H)`` gets step t's new states in the compute dtype:
        the cache's ``H_prev[t + 1]``, and the final states at the last step."""
        rng = np.random.default_rng(8)
        p = init_gru(3, 5, rng)
        X = rng.normal(size=(4, 6, 3)).astype(dtype)
        seen = []
        H, cache = gru_forward(X, p, want_cache=True,
                               on_step=lambda t, rows, H_t: seen.append((t, H_t.copy())))
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
    """From ``ndkernel.MIN_ROWS`` rows on, a window's final state does not
    depend on how many windows share its forward, nor on where its block
    starts: the property that scoring's chunk floor and the two-thread split
    of a pass rest on.  Below it, BLAS may round a row of a GEMM over a few
    rows differently from the same row in a tall one: with d_in 5, rows
    differed up to k = 37 at d_model 32, 18 at 64 and 4 at 256 (OpenBLAS).
    Each pass here runs on one thread."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("d_model", [32, 128, 256])
    def test_rows_from_the_floor_on_match_a_tall_batch(self, one_thread, d_model, dtype):
        p = init_gru(5, d_model, np.random.default_rng(15))
        X = np.random.default_rng(16).normal(size=(CHUNK, 10, 5)).astype(dtype)
        tall = gru_forward(X, p)
        for k in (MIN_ROWS, MIN_ROWS + 1, 100):
            assert np.array_equal(gru_forward(X[:k], p), tall[:k]), k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("d_model", [128, 256])
    @pytest.mark.parametrize("B", [129, 255])
    def test_both_halves_of_an_odd_batch_match_it(self, one_thread, B, d_model, dtype):
        """Rows [0:h] and [h:B], h = B // 2, the halves a split pass runs."""
        p = init_gru(5, d_model, np.random.default_rng(17))
        X = np.random.default_rng(18).normal(size=(B, 10, 5)).astype(dtype)
        whole, h = gru_forward(X, p), B // 2
        assert np.array_equal(gru_forward(X[:h], p), whole[:h])
        assert np.array_equal(gru_forward(X[h:], p), whole[h:])


def split_passes(monkeypatch) -> list:
    """Records the function of each task a pass hands to a helper thread."""
    tasks = []
    helper_thread = ndkernel._helper_thread

    def recording(fn, *args):
        tasks.append(fn)
        return helper_thread(fn, *args)

    monkeypatch.setattr(ndkernel, "_helper_thread", recording)
    return tasks


def handed_rows(monkeypatch) -> list:
    """Records the rows of each ``_gru_rows`` task a pass hands to a helper
    thread."""
    rows = []
    helper_thread = ndkernel._helper_thread

    def recording(fn, *args):
        if fn is ndkernel._gru_rows:
            rows.append(args[6])
        return helper_thread(fn, *args)

    monkeypatch.setattr(ndkernel, "_helper_thread", recording)
    return rows


def finishes(fn, seconds=120.0):
    """``fn()`` on a thread of its own, in a copy of the caller's context (and
    so under its ``np.errstate``); fails the test, rather than hanging it, if
    the call does not return within ``seconds``."""
    box = {}
    context = contextvars.copy_context()

    def target():
        try:
            box["value"] = context.run(fn)
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"call still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box.get("value")


class TestTwoThreadForward:
    """A pass of d_model >= 128 over >= 2 * MIN_ROWS rows runs rows [h:B] on
    a helper thread: every output has the bits of the two blocks of rows run
    as one-thread passes of their own."""

    SIZES = [(B, d) for B in (128, 129, 255, 256) for d in (128, 256)]

    @staticmethod
    def _forward(X, p, want_cache):
        steps = np.full((X.shape[1], len(X), p.d_model), np.nan, X.dtype)

        def on_step(t, rows, H):
            steps[t, rows] = H

        out = gru_forward(X, p, want_cache=want_cache, on_step=on_step)
        H, cache = out if want_cache else (out, None)
        return H, cache, steps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("B,d", SIZES)
    def test_matches_the_halves_run_alone(self, monkeypatch, B, d, dtype):
        rng = np.random.default_rng(B + d)
        p = init_gru(5, d, rng)
        X = rng.normal(size=(B, 12, 5)).astype(dtype)
        tasks = split_passes(monkeypatch)
        H, cache, steps = self._forward(X, p, want_cache=True)
        H_nc = gru_forward(X, p)
        assert len(tasks) == 2
        monkeypatch.setattr(ndkernel, "_uses_worker", lambda B, d: False)
        h = B // 2
        halves = [self._forward(X[s], p, want_cache=True) for s in (slice(0, h), slice(h, B))]
        assert np.array_equal(H, np.concatenate([half[0] for half in halves]))
        assert np.array_equal(H_nc, H)
        assert np.array_equal(steps, np.concatenate([half[2] for half in halves], axis=1))
        for k in range(4):
            want = np.concatenate([half[1].steps[:, k] for half in halves], axis=1)
            assert np.array_equal(cache.steps[:, k], want), k

    def test_narrow_or_short_passes_stay_on_one_thread(self, monkeypatch):
        """Their forward and BPTT start no helper thread, and BPTT keeps the
        bits of the one-thread loop over the whole batch."""
        tasks = split_passes(monkeypatch)
        rng = np.random.default_rng(19)
        for B, d in ((2 * MIN_ROWS - 1, 256), (512, 64)):
            p = init_gru(2, d, rng)
            X = rng.normal(size=(B, 3, 2))
            gru_forward(X, p)
            _, cache = gru_forward(X, p, want_cache=True)
            d_final = rng.normal(size=(B, d))
            got = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
            want = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
            gru_backward(cache, p, got, "", d_h_final=d_final)
            oracles.gru_backward_serial(cache, p, want, "", d_h_final=d_final)
            assert all(np.array_equal(got[k], want[k]) for k in want), (B, d)
        assert tasks == []


class TestTwoThreadBackward:
    """BPTT splits a pass's rows where the forward does: rows [h:B] run on a
    helper thread, each block the one-thread loop over its own rows.  Every
    gradient has the bits of that loop run over each block alone, the first
    block added first, and is within a named tolerance of the loop over the
    whole batch."""

    SIZES = TestTwoThreadForward.SIZES

    @staticmethod
    def _inputs(B, d, dtype, upstream):
        rng = np.random.default_rng(B * d)
        p = init_gru(5, d, rng)
        _, cache = gru_forward(rng.normal(size=(B, 12, 5)).astype(dtype), p, want_cache=True)
        kw = {"d_h_final": rng.normal(size=(B, d)) if upstream != "all" else None,
              "d_h_all": rng.normal(size=(12, B, d)) if upstream != "final" else None}
        base = {k: rng.normal(size=v.shape) for k, v in p.as_dict().items()}
        return p, cache, kw, base

    @pytest.mark.parametrize("upstream", ["final", "all", "both"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("B,d", SIZES)
    def test_matches_the_halves_run_alone(self, monkeypatch, B, d, dtype, upstream):
        p, cache, kw, base = self._inputs(B, d, dtype, upstream)
        got = {k: v.copy() for k, v in base.items()}
        want = {k: v.copy() for k, v in base.items()}
        tasks = split_passes(monkeypatch)
        gru_backward(cache, p, got, "", **kw)
        assert tasks == [ndkernel._bptt_rows]
        h = B // 2
        for rows in (slice(0, h), slice(h, B)):
            half = GruCache(cache.X[rows], cache.steps[:, :, rows])
            oracles.gru_backward_serial(
                half, p, want, "",
                d_h_final=None if kw["d_h_final"] is None else kw["d_h_final"][rows],
                d_h_all=None if kw["d_h_all"] is None else kw["d_h_all"][:, rows])
        for k in want:
            assert np.array_equal(got[k], want[k]), k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("B,d", SIZES)
    def test_within_named_tolerance_of_the_whole_batch_loop(self, B, d, dtype):
        p, cache, kw, _ = self._inputs(B, d, dtype, "both")
        got = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
        want = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
        gru_backward(cache, p, got, "", **kw)
        oracles.gru_backward_serial(cache, p, want, "", **kw)
        rtol = SPLIT_F32_GRAD_RTOL if dtype == np.float32 else SPLIT_F64_GRAD_RTOL
        for k in want:
            assert np.abs(got[k] - want[k]).max() <= rtol * np.abs(want[k]).max(), k


class TestBesidePass:
    """``gru_forward(..., beside=block)`` runs a pass that does not split its
    rows and has enough work per step on a helper thread while the caller's
    block runs, and any other pass before the block: its states have the bits
    of a pass without a block."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("B,d", [(1, 128), (2, 256), (63, 128), (64, 256), (127, 256),
                                     (128, 128), (255, 256), (100, 64), (300, 32),
                                     (128, 64), (1024, 32), (8192, 8)])
    def test_matches_gru_forward(self, monkeypatch, B, d, dtype):
        rng = np.random.default_rng(B + d + 23)
        p = init_gru(4, d, rng)
        X = rng.normal(size=(B, 9, 4)).astype(dtype)
        log, handed = [], handed_rows(monkeypatch)
        real_rows = ndkernel._gru_rows

        def rows(*args):
            real_rows(*args)
            log.append(args[6])            # _gru_rows(X, W, U, b, H, cache, rows, ...)

        monkeypatch.setattr(ndkernel, "_gru_rows", rows)
        H = gru_forward(X, p, beside=lambda: log.append("block"))
        # A pass runs all its rows beside the block, or before the block, its
        # rows split or on the calling thread.
        beside, split = ndkernel._runs_beside(B, d), ndkernel._uses_worker(B, d)
        assert handed == ([slice(0, B)] if beside else [slice(B // 2, B)] if split else [])
        assert len(log) == (3 if split else 2) and (beside or log[-1] == "block")
        monkeypatch.setattr(ndkernel, "_uses_worker", lambda B, d: False)
        monkeypatch.setattr(ndkernel, "_runs_beside", lambda B, d: False)
        assert H.dtype == np.float64
        assert np.array_equal(H, gru_forward(X, p))

    def test_a_cached_pass_beside_keeps_its_bits(self):
        """A pass beside the block writes the cache and calls ``on_step`` from
        its helper, with the bits of a pass without a block."""
        rng = np.random.default_rng(27)
        p = init_gru(4, 128, rng)
        X = rng.normal(size=(64, 9, 4)).astype(np.float32)
        assert ndkernel._runs_beside(len(X), p.d_model)
        runs = []
        for beside in (lambda: None, None):
            seen = []
            H, cache = gru_forward(X, p, want_cache=True, beside=beside,
                                   on_step=lambda t, rows, H_t: seen.append((t, rows, H_t.copy())))
            runs.append((H, cache.steps, seen))
        (H, steps, seen), (H_w, steps_w, seen_w) = runs
        assert np.array_equal(H, H_w) and np.array_equal(steps, steps_w)
        assert [(t, rows) for t, rows, _ in seen] == [(t, rows) for t, rows, _ in seen_w]
        assert all(np.array_equal(a[2], b[2]) for a, b in zip(seen, seen_w))

    # (B, d, runs beside): shapes on each side of the rule.  A pass of d_model
    # 256 runs beside from 3 rows on, one of 128 from 53 rows on, until it
    # splits at 128; narrower ones from about 8 K states (B * d) on.  A pass
    # whose work is exactly BESIDE_WORK runs serially: 2 rows at d 256, 52 at
    # 128, 128 at 64, 268 at 32, 542 at 16 and 1,087 at 8.
    RULE = [(1, 256, False), (2, 256, False), (3, 256, True), (51, 256, True),
            (127, 256, True), (128, 256, False), (51, 128, False), (52, 128, False),
            (53, 128, True), (127, 64, False), (128, 64, False), (129, 64, True),
            (267, 32, False), (268, 32, False), (269, 32, True), (943, 32, True),
            (1024, 32, True), (541, 16, False), (542, 16, False), (543, 16, True),
            (1086, 8, False), (1087, 8, False), (1088, 8, True)]

    @pytest.mark.parametrize("B,d,beside", RULE)
    def test_the_rule_on_each_side_of_its_threshold(self, B, d, beside):
        assert ndkernel._runs_beside(B, d) is beside

    def test_the_pass_runs_while_the_block_does(self, monkeypatch):
        """The block waits for the helper to start its pass: it returns only
        if the two run at once."""
        rng = np.random.default_rng(24)
        p = init_gru(4, 128, rng)
        X = rng.normal(size=(64, 9, 4))
        assert ndkernel._runs_beside(len(X), p.d_model)
        started = threading.Event()
        rows = ndkernel._gru_rows

        def signalling(*args):
            started.set()
            rows(*args)

        def block():
            assert started.wait(60), "the pass did not start while the block ran"

        monkeypatch.setattr(ndkernel, "_gru_rows", signalling)
        H = finishes(lambda: gru_forward(X, p, beside=block))
        assert np.array_equal(H, gru_forward(X, p))

    def test_beside_passes_from_more_threads_than_cores_keep_their_bits(self):
        """Three threads each run a pass beside a block that runs a split
        pass, with the interpreter switching threads every microsecond."""
        rng = np.random.default_rng(26)
        p = init_gru(4, 128, rng)
        X, X_split = rng.normal(size=(60, 9, 4)), rng.normal(size=(130, 9, 4))
        want = [gru_forward(X, p), gru_forward(X_split, p)]
        results = []

        def both():
            split = []
            H = gru_forward(X, p, beside=lambda: split.append(gru_forward(X_split, p)))
            return [H, split[0]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.extend(both() for _ in range(3)))
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 9
        assert all(np.array_equal(a, b) for got in results for a, b in zip(got, want))

    @pytest.mark.parametrize("where", ["block", "helper"])
    def test_an_error_in_either_thread_reaches_the_caller(self, monkeypatch, where):
        rng = np.random.default_rng(25)
        p = init_gru(4, 256, rng)
        X = rng.normal(size=(40, 9, 4))
        want, before = gru_forward(X, p), threading.active_count()

        def failing(*args):
            raise KeyError("helper failed")

        def block():
            if where == "block":
                raise KeyError("block failed")

        if where == "helper":
            monkeypatch.setattr(ndkernel, "_gru_rows", failing)
        with pytest.raises(KeyError, match=f"{where} failed"):
            finishes(lambda: gru_forward(X, p, beside=block))
        assert threading.active_count() == before
        monkeypatch.undo()
        assert np.array_equal(finishes(lambda: gru_forward(X, p, beside=lambda: None)), want)


class TestWorkerRobustness:
    """An error in either thread of a pass reaches the caller, and leaves no
    thread waiting: the next pass gives the same bits."""

    B, T, D = 2 * MIN_ROWS + 1, 8, 128

    def _inputs(self):
        rng = np.random.default_rng(20)
        p = init_gru(3, self.D, rng)
        X = rng.normal(size=(self.B, self.T, 3)).astype(np.float32)
        return p, X, rng.normal(size=(self.B, self.D))

    def _backward(self, cache, p, d_final):
        grads = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
        gru_backward(cache, p, grads, "", d_h_final=d_final)
        return grads

    @pytest.mark.parametrize("row", [0, B - 1], ids=["caller-rows", "worker-rows"])
    def test_on_step_error_reaches_the_caller(self, row):
        p, X, _ = self._inputs()
        before = gru_forward(X, p)

        def on_step(t, rows, H):
            if t == self.T // 2 and rows.start <= row < rows.stop:
                raise KeyError("on_step failed")

        with pytest.raises(KeyError, match="on_step failed"):
            finishes(lambda: gru_forward(X, p, want_cache=True, on_step=on_step))
        assert np.array_equal(finishes(lambda: gru_forward(X, p)), before)

    @pytest.mark.parametrize("row", [0, B - 1], ids=["caller-rows", "worker-rows"])
    def test_non_finite_input_error_reaches_the_caller(self, row):
        """Under the caller's ``np.errstate``, in whichever thread meets it."""
        p, X, _ = self._inputs()
        before = gru_forward(X, p)
        bad = X.copy()
        bad[row, 2, 0] = np.inf
        bad[row, 2, 1] = -np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            finishes(lambda: gru_forward(bad, p))
        assert np.array_equal(finishes(lambda: gru_forward(X, p)), before)

    @staticmethod
    def _failing_threads(monkeypatch) -> list:
        """Records the thread each ``_bptt_rows`` block that raises runs on."""
        failed = []
        bptt_rows = ndkernel._bptt_rows

        def recording(*args):
            try:
                bptt_rows(*args)
            except BaseException:
                failed.append(threading.current_thread())
                raise

        monkeypatch.setattr(ndkernel, "_bptt_rows", recording)
        return failed

    def _fails_in_one_block(self, monkeypatch, call, error, match, on_caller):
        """``call(cache, p, d_final)`` raises ``error`` in one block of BPTT,
        on the calling thread or on the helper: it reaches the caller, no
        thread is left, and the next BPTT, unpatched, keeps its bits."""
        p, X, d_final = self._inputs()
        _, cache = gru_forward(X, p, want_cache=True)
        before = self._backward(cache, p, d_final)
        threads = threading.active_count()
        failed, caller = self._failing_threads(monkeypatch), []

        def run():
            caller.append(threading.current_thread())
            call(cache, p, d_final)

        with pytest.raises(error, match=match):
            finishes(run)
        assert len(failed) == 1 and (failed[0] is caller[0]) == on_caller
        assert threading.active_count() == threads
        monkeypatch.undo()
        after = finishes(lambda: self._backward(cache, p, d_final))
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_recurrence_error_releases_the_worker(self, monkeypatch):
        """A non-finite upstream gradient in row 0 fails the dh recurrence of
        the calling thread's block, under the caller's ``np.errstate``."""

        def call(cache, p, d_final):
            bad = d_final.copy()
            bad[0, 0] = np.inf
            with np.errstate(invalid="raise"):
                self._backward(cache, p, bad)

        self._fails_in_one_block(monkeypatch, call, FloatingPointError, None, on_caller=True)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        """The gradient adder of the helper's block fails half-way."""
        make_adder = ndkernel._grad_adder

        def failing_adder(g, cache):
            add, maker = make_adder(g, cache), threading.current_thread()

            def failing(t, da):
                if t == self.T // 2 and threading.current_thread() is not maker:
                    raise KeyError("add failed")
                add(t, da)

            return failing

        def call(cache, p, d_final):
            monkeypatch.setattr(ndkernel, "_grad_adder", failing_adder)
            self._backward(cache, p, d_final)

        self._fails_in_one_block(monkeypatch, call, KeyError, "add failed", on_caller=False)

    def test_passes_from_more_threads_than_cores_keep_their_bits(self):
        """Three threads each run forwards and BPTTs that start helper threads
        of their own, with the interpreter switching threads every
        microsecond: every result keeps its bits."""
        p, X, d_final = self._inputs()

        def both():
            _, cache = gru_forward(X, p, want_cache=True)
            return self._backward(cache, p, d_final)

        want = both()
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.extend(both() for _ in range(3)))
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 9
        assert all(np.array_equal(got[k], want[k]) for got in results for k in want)

    def test_a_pass_from_an_on_step_starts_a_helper_of_its_own(self, monkeypatch):
        """The inner pass, run on the outer pass's helper thread, splits its
        rows too, and gives the bits of a pass of its own."""
        p, X, _ = self._inputs()
        inner = {}

        def on_step(t, rows, H):
            if t == 0 and rows.start > 0:
                inner["H"] = gru_forward(X, p)

        tasks = split_passes(monkeypatch)
        finishes(lambda: gru_forward(X, p, on_step=on_step))
        assert len(tasks) == 2
        assert np.array_equal(inner["H"], gru_forward(X, p))

    def test_no_thread_outlives_a_pass(self, monkeypatch):
        p, X, d_final = self._inputs()
        before = threading.active_count()
        tasks = split_passes(monkeypatch)
        _, cache = gru_forward(X, p, want_cache=True)
        self._backward(cache, p, d_final)
        assert len(tasks) == 2
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_a_pass_runs_its_own(self):
        """A process runs a forward and BPTT that start helper threads, forks,
        and its child runs the same pass; the parent kills the child if it
        has not exited within the bound."""
        run_forked(FORKED_PASS)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_beside_scoring_scores_its_own(self):
        """A process scores a chunk whose eta pass runs beside phi's forward:
        no thread is left but the main one, and a child forked after it
        scores with the same bits."""
        run_forked(FORKED_SCORING)


def run_forked(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(ndkernel.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=4 * FORK_BOUND_S)
    assert proc.returncode == 0, proc.stderr


# Seconds a forked child has for a pass of milliseconds.
FORK_BOUND_S = 30
# The end of a script that defines ``run()``, a list of arrays, and ``want``,
# what it returned: it forks, the child runs it again and exits 0 if it got
# the same bits, and the parent kills the child if it has not exited within
# the bound.
FORK_AND_COMPARE = f"""
pid = os.fork()
if pid == 0:
    os._exit(0 if all(map(np.array_equal, run(), want)) else 3)
deadline = time.monotonic() + {FORK_BOUND_S}
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the forked child was still running after {FORK_BOUND_S} s")
"""
FORKED_PASS = """
import os, signal, sys, time
import numpy as np
from sten.ndkernel import gru_backward, gru_forward, init_gru

rng = np.random.default_rng(21)
p = init_gru(3, 128, rng)
X = rng.normal(size=(128, 8, 3))
d_final = rng.normal(size=(128, 128))


def run():
    H, cache = gru_forward(X, p, want_cache=True)
    grads = {k: np.zeros(v.shape) for k, v in p.as_dict().items()}
    gru_backward(cache, p, grads, "", d_h_final=d_final)
    return [H] + [grads[k] for k in sorted(grads)]


want = run()
""" + FORK_AND_COMPARE
# Scoring at d_model 128 with one chunk of 61 windows: eta's pass runs beside
# phi's forward.
FORKED_SCORING = """
import os, signal, sys, threading, time
import numpy as np
from sten.ndkernel import init_gru
from sten.networks import init_phi
from sten.scoring import ScoreConfig, score_series
from sten.seqdata import MultivariateSeries, NormStats
from sten.training import TrainConfig, TrainedModel

rng = np.random.default_rng(22)
tc = TrainConfig(R_train=3, l=3, r=3, m=3, d_model=128, mode="full")
model = TrainedModel(phi=init_phi(3, 128, 3, rng), eta=init_gru(3, 128, rng), config=tc,
                     stats=NormStats(mean=np.zeros(3), std=np.ones(3)), d_in=3)
series = MultivariateSeries(values=rng.normal(size=(9 + 60 * 3, 3)))


def run():
    out = score_series(model, series, ScoreConfig(R_test=3))
    return [out.scores, out.score_otn, out.score_dsn]


want = run()
if (names := [t.name for t in threading.enumerate()]) != ["MainThread"]:
    sys.exit(f"threads alive after scoring: {names}")
""" + FORK_AND_COMPARE


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

    def test_the_cache_is_one_block_the_steps_write_into(self):
        """Each step's entering state, z, r and hbar are slabs of one
        (T, 4, B, d) block; the state ``on_step`` is handed is the next
        step's entering state in that block, not a copy."""
        rng = np.random.default_rng(20)
        p = init_gru(3, 8, rng)
        handed = []
        _, cache = gru_forward(rng.normal(size=(5, 4, 3)), p, want_cache=True,
                               on_step=lambda t, rows, H: handed.append(H))
        assert cache.steps.shape == (4, 4, 5, 8)
        assert np.shares_memory(cache.H_prev, cache.steps[:, 0])
        for t, H in enumerate(handed[:-1]):
            assert np.shares_memory(H, cache.steps[t + 1, 0]), t

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
                H = gru_forward(X, q, on_step=lambda t, rows, H_t: states.append(H_t.copy()))
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
