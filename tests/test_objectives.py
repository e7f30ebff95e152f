import math

import numpy as np
import pytest

from sten import ConfigError, DataError
from sten.ndkernel import GruParams, init_gru
from sten.networks import init_phi, sample_pairs
from sten.objectives import js_rows, js_rows_grad_p
from sten.training import TrainConfig

import oracles
from oracles import finite_diff_grad
from windowed import batch_tape

JS_HALF_ONEHOT = 0.43152310867767134  # ln(4/3) + 0.5 ln(2/3) + 0.5 ln 2


def random_distribution(rng, c):
    p = rng.random(c) + 1e-3
    return p / p.sum()


def js(p, q):
    return float(js_rows(np.asarray(p, np.float64)[None], np.asarray(q, np.float64)[None])[0])


class TestJsDivergence:
    def test_identical_distributions_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js(p, p) == 0.0
        one_hot = np.array([1.0, 0.0])
        assert js(one_hot, one_hot) == 0.0

    def test_onehot_vs_uniform_value(self):
        val = js([1.0, 0.0], [0.5, 0.5])
        assert abs(val - JS_HALF_ONEHOT) < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            p = random_distribution(rng, c)
            q = random_distribution(rng, c)
            assert abs(js(p, q) - js(q, p)) < 1e-12

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = int(rng.integers(2, 10))
            p = random_distribution(rng, c)
            q = np.zeros(c)
            q[rng.integers(c)] = 1.0
            assert abs(js(p, q) - oracles.js_direct(p, q)) < 1e-12

    def test_bounded_by_two_ln_two(self):
        rng = np.random.default_rng(2)
        bound = 2 * math.log(2)
        for _ in range(10_000):
            c = int(rng.integers(2, 6))
            p = random_distribution(rng, c)
            q = random_distribution(rng, c)
            assert js(p, q) <= bound + 1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_distribution(rng, 4)
            q = random_distribution(rng, 4)
            val = js(p, q)
            if np.abs(p - q).max() > 1e-4:
                assert val > 1e-9
            np.testing.assert_array_less(-1e-15, val)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            p = random_distribution(rng, c)
            y = np.zeros(c)
            y[rng.integers(c)] = 1.0
            analytic = js_rows_grad_p(p[None], y[None])[0]
            fd = finite_diff_grad(
                lambda d: float(js_rows(d["p"][None], y[None])[0]),
                {"p": p.copy()}, h=1e-7)
            np.testing.assert_allclose(analytic, fd["p"], atol=1e-6)


def zero_gru(phi):
    for name in GruParams.NAMES:
        phi["gru." + name] = np.zeros_like(phi["gru." + name])


def sten_tape(mode="full", alpha=1.0, m=3, l=2, B=2, seed=0, phi=None, eta=None,
              batch=None, pairs=None):
    """build_sten_tape on random windows of length l*m."""
    cfg = TrainConfig(R_train=1, l=l, r=l, m=m, d_model=4, alpha=alpha, mode=mode)
    cfg.validate()
    rng = np.random.default_rng(seed)
    if phi is None:
        phi = init_phi(2, 4, m, rng, with_ep_head=(mode == "dsn_plus_ep"))
    eta = eta if eta is not None else init_gru(2, 4, rng)
    batch = batch if batch is not None else rng.normal(size=(B, l * m, 2))
    pairs = pairs if pairs is not None else sample_pairs(len(batch), rng, 1)
    return batch_tape(phi, eta, batch, pairs, cfg)


class TestOtnLoss:
    """The order-branch part of the loss (tape.otn)."""

    def test_perfect_predictions(self):
        # m = 1 forces a perfect one-class order prediction.
        assert sten_tape(mode="otn_only", m=1, l=4).otn == 0.0

    def test_uniform_two_class(self):
        phi = init_phi(2, 4, 2, np.random.default_rng(1))
        phi["order_head.W"] = np.zeros_like(phi["order_head.W"])
        phi["order_head.b"] = np.zeros_like(phi["order_head.b"])
        assert abs(sten_tape(mode="otn_only", m=2, phi=phi).otn - JS_HALF_ONEHOT) < 1e-6

    def test_upper_bound(self):
        rng = np.random.default_rng(5)
        bound = 2 * math.log(2)
        for trial in range(50):
            m = int(rng.integers(1, 6))
            phi = init_phi(2, 4, m, rng)
            phi["order_head.W"] = phi["order_head.W"] * rng.uniform(1, 50)
            assert sten_tape(mode="otn_only", m=m, seed=trial, phi=phi).otn <= bound + 1e-12


def dsn_oracle(phi, eta, batch, pairs):
    gru = GruParams.from_dict(phi, "gru.")
    e = [oracles.gru_encode_unrolled(w, gru) for w in batch]
    f = [oracles.gru_encode_unrolled(w, eta) for w in batch]
    sq = [(float(e[i] @ e[j]) - float(f[i] @ f[j])) ** 2 for i, j in pairs]
    return sum(sq) / len(sq)


class TestDsnLoss:
    """The distance-branch part of the loss (tape.dsn)."""

    def test_zero_when_equal(self):
        phi = init_phi(2, 4, 3, np.random.default_rng(2))
        eta = init_gru(2, 4, np.random.default_rng(3))
        phi.update(eta.as_dict("gru."))  # identical towers -> identical distances
        assert sten_tape(mode="dsn_only", phi=phi, eta=eta, B=4).dsn == 0.0

    def test_single_pair(self):
        rng = np.random.default_rng(4)
        phi, eta = init_phi(2, 4, 3, rng), init_gru(2, 4, rng)
        batch = rng.normal(size=(2, 6, 2))
        tape = sten_tape(mode="dsn_only", phi=phi, eta=eta, batch=batch, pairs=np.array([[0, 1]]))
        assert abs(tape.dsn - dsn_oracle(phi, eta, batch, [(0, 1)])) < 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        phi, eta = init_phi(2, 4, 3, rng), init_gru(2, 4, rng)
        batch = rng.normal(size=(6, 6, 2))
        pairs = sample_pairs(6, rng, 3)
        tape = sten_tape(mode="dsn_only", phi=phi, eta=eta, batch=batch, pairs=pairs)
        assert abs(tape.dsn - dsn_oracle(phi, eta, batch, pairs)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            sten_tape(mode="dsn_only", pairs=np.empty((0, 2), np.intp))


class TestStenLoss:
    """The combined objective tape.value = otn + alpha * dsn."""

    def test_alpha_zero(self):
        tape = sten_tape(mode="full", alpha=0.0)
        assert tape.dsn == 0.0
        assert tape.value == tape.otn

    def test_paper_default_alpha(self):
        tape = sten_tape(mode="full", alpha=1.0, seed=1)
        assert tape.otn > 0 and tape.dsn > 0
        assert abs(tape.value - (tape.otn + tape.dsn)) < 1e-12

    def test_alpha_scaling_exact(self):
        a = sten_tape(mode="full", alpha=1.0, seed=2)
        b = sten_tape(mode="full", alpha=2.0, seed=2)
        assert (b.otn, b.dsn) == (a.otn, a.dsn)
        assert b.value == a.otn + 2.0 * a.dsn

    def test_breakdown_identity(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            mode = ("full", "otn_only", "dsn_only", "dsn_plus_ep")[trial % 4]
            alpha = float(rng.random())
            tape = sten_tape(mode=mode, alpha=alpha, seed=trial)
            assert tape.value == tape.otn + alpha * tape.dsn

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(l=2, r=2, m=3, alpha=-1.0).validate()


def phi_with_ep(d_in, d_model, m, seed):
    return init_phi(d_in, d_model, m, np.random.default_rng(seed), with_ep_head=True)


def ep_loss(data, phi):
    """The error-prediction part of a dsn_plus_ep loss (its tape.otn) on one window."""
    return sten_tape(mode="dsn_plus_ep", m=len(data), l=1, phi=phi,
                     batch=np.asarray(data, np.float64)[None], pairs=np.array([[0, 0]])).otn


class TestEpLoss:
    def test_learned_constant_series(self):
        phi = phi_with_ep(2, 4, 4, 0)
        zero_gru(phi)
        phi["ep_head.W"] = np.zeros_like(phi["ep_head.W"])
        phi["ep_head.b"] = np.array([2.5, -1.0])
        assert ep_loss(np.tile([2.5, -1.0], (6, 1)), phi) == 0.0

    def test_zero_params_zero_series(self):
        phi = phi_with_ep(2, 4, 4, 1)
        zero_gru(phi)
        phi["ep_head.W"] = np.zeros_like(phi["ep_head.W"])
        phi["ep_head.b"] = np.zeros_like(phi["ep_head.b"])
        assert ep_loss(np.zeros((5, 2)), phi) == 0.0

    def test_matches_unrolled_oracle(self):
        rng = np.random.default_rng(2)
        phi = phi_with_ep(2, 4, 3, 3)
        data = rng.normal(size=(3, 2))
        h = np.zeros(4)
        total = 0.0
        count = 0
        for t in range(2):
            h = oracles.gru_step_scalar(data[t], h, GruParams.from_dict(phi, "gru."))
            pred = phi["ep_head.W"] @ h + phi["ep_head.b"]
            total += float(((pred - data[t + 1]) ** 2).sum())
            count += pred.size
        assert abs(ep_loss(data, phi) - total / count) < 1e-10

    def test_short_window_rejected(self):
        phi = phi_with_ep(2, 4, 4, 4)
        with pytest.raises(DataError):
            ep_loss(np.zeros((1, 2)), phi)
