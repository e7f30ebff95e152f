"""Dense numerical kernel: GRU cell with exact reverse-mode gradients, softmax,
Adam, and the gradient tape that drives the backward pass.

Parameters are plain numpy arrays grouped in dicts keyed by dotted names
(e.g. ``"gru.W"``).  Adam maps such a dict to a new one.  A ``GradTape``
is the data one forward pass leaves for its backward: the gradients the
forward formed itself, and each GRU pass with the parameters it ran with and
its upstream hidden-state gradients; ``backward`` only runs BPTT over those
passes, one BPTT per GRU pass: the upstream gradients of every branch that
reads a pass are summed before its BPTT.  Weights are stored as float32 at
rest (checkpoints) and as float64 master weights while training.

``sigmoid``, ``gru_forward`` and ``gru_backward`` compute in the dtype of
their input: float32 stays float32, anything else is float64.  The GRU casts
its weights to that dtype, keeps its ``GruCache`` in it, and returns final
states as float64.  A reader of every step's states (the error-prediction
head) takes each one from ``gru_forward``'s ``on_step`` hook as the step
makes it, so a forward keeps no trajectory of its own.  ``gru_backward`` sums
each call's weight gradients in the compute dtype, then adds them once into
the float64 grads, as in mixed-precision training with master weights
(Micikevicius et al. 2018).
``softmax``, the tape's gradients and Adam are float64 throughout.

A GRU is stored as the stacked blocks its forward runs, the fused-GEMM
layout of RNN kernels (Appleyard et al. 2016) and of PyTorch's ``nn.GRU``:
the input map W (3d, d_in), recurrent map U (3d, d) and bias b (3d,), each
over the gates in z, r, h order.  Each step runs one input GEMM, one
recurrent GEMM on U's z|r rows and one ``sigmoid`` call for z and r
together, then the GEMM on r*h with U's h rows.  The input is projected per
step, so a forward without cache holds O(B*d) floats, not O(B*T*d).
Each gate pre-activation is still (x W^T + b) + h U^T, added in that order.
``sigmoid`` computes the sign-split logistic without masks, with the same
float operations and so the same bits.  Whether BLAS gives the same bits
for the per-step (B, d_in) projection as for a whole-sequence one depends on
the dgemm kernel it picks: on OpenBLAS with AVX-512 they match for small
d_in, while from d_in 32 hidden states may differ by about 1e-15 (the tests
name atol 1e-12).  ``gru_backward`` runs per-gate GEMMs on views of the
stacked blocks and of their gradients: stacking its GEMMs gave the same bits
and no speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import DataError, NumericError

ParamDict = dict[str, np.ndarray]


def require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")


def _work_dtype(x: np.ndarray) -> type:
    """float32 for a float32 array, float64 for anything else."""
    return np.float32 if x.dtype == np.float32 else np.float64


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function from e = exp(-|x|), which never overflows.

    Since e <= 1, max(e, x >= 0) / (1 + e) is 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below: the float operations of splitting by sign,
    without the boolean gather and scatter, so the result has the same bits.
    """
    x = np.asarray(x)
    x = x.astype(_work_dtype(x), copy=False)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max-subtraction)."""
    v = np.asarray(v, dtype=np.float64)
    require_finite("softmax input", v)
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# GRU cell
# ---------------------------------------------------------------------------

@dataclass
class GruParams:
    """Weights of a single-layer GRU, each stacked over the gates in z, r, h
    order: input map W (3d, d_in), recurrent map U (3d, d), bias b (3d,)."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    NAMES = ("W", "U", "b")

    @property
    def d_model(self) -> int:
        return self.U.shape[1]

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    def as_dict(self, prefix: str = "") -> ParamDict:
        return {prefix + name: getattr(self, name) for name in self.NAMES}

    @classmethod
    def from_dict(cls, d: ParamDict, prefix: str = "") -> "GruParams":
        return cls(**{name: d[prefix + name] for name in cls.NAMES})

    def astype(self, dtype) -> "GruParams":
        return GruParams(**{n: getattr(self, n).astype(dtype) for n in self.NAMES})

def gru_shapes(d_in: int, d_model: int) -> dict[str, tuple[int, ...]]:
    """The shape of each GRU weight, keyed in ``GruParams.NAMES`` order."""
    return {"W": (3 * d_model, d_in), "U": (3 * d_model, d_model), "b": (3 * d_model,)}


def init_gru(d_in: int, d_model: int, rng: np.random.Generator) -> GruParams:
    """Uniform(-1/sqrt(d_model), +1/sqrt(d_model)) init for every weight and
    bias, drawn in ``gru_shapes`` order."""
    s = 1.0 / np.sqrt(d_model)
    return GruParams(**{n: rng.uniform(-s, s, size=shape)
                        for n, shape in gru_shapes(d_in, d_model).items()})


class GruCache:
    """Forward intermediates of a batched GRU pass, as needed for BPTT."""

    __slots__ = ("X", "H_prev", "Z", "R", "Hbar")

    def __init__(self, X, H_prev, Z, R, Hbar):
        self.X = X            # (B, T, d_in)
        self.H_prev = H_prev  # (T, B, d) hidden state entering each step
        self.Z = Z            # (T, B, d)
        self.R = R            # (T, B, d)
        self.Hbar = Hbar      # (T, B, d)


def gru_forward(X: np.ndarray, p: GruParams, want_cache: bool = False, on_step=None):
    """Batched GRU over X of shape (B, T, d_in), zero initial hidden state.

    Computes in float32 for float32 X, else in float64.  Returns the final
    hidden states (B, d_model) as float64, and with ``want_cache`` also a
    GruCache, in the compute dtype, for gru_backward.  ``on_step(t, H)`` is
    called after each step t with its new states H (B, d_model), in the
    compute dtype: the state ``H_prev[t + 1]`` of the cache, or the final one.
    """
    X = np.asarray(X)
    dt = _work_dtype(X)
    X = X.astype(dt, copy=False)
    if X.ndim != 3 or X.shape[1] < 1:
        raise DataError(f"expected (B, T, d_in) with T >= 1, got shape {X.shape}")
    if X.shape[2] != p.d_in:
        raise DataError(f"input dim {X.shape[2]} != GRU d_in {p.d_in}")
    B, T, _ = X.shape
    d = p.d_model
    W, U, b = (np.asarray(a, dt) for a in (p.W, p.U, p.b))
    U_zr, U_h = U[:2 * d], U[2 * d:]

    H = np.zeros((B, d), dt)
    if want_cache:
        # One block for the four (T, B, d) arrays: malloc keeps a block freed
        # by one pass for the next more readily than four arrays, which it may
        # return to the system and fault in again.
        cache = GruCache(X, *np.empty((4, T, B, d), dt))

    for t in range(T):
        a = X[:, t] @ W.T
        a += b
        zr = sigmoid(a[:, :2 * d] + H @ U_zr.T)
        z, r = zr[:, :d], zr[:, d:]
        hbar = np.tanh(a[:, 2 * d:] + (r * H) @ U_h.T)
        if want_cache:
            cache.H_prev[t] = H
            cache.Z[t] = z
            cache.R[t] = r
            cache.Hbar[t] = hbar
        H = (1.0 - z) * H + z * hbar
        if on_step is not None:
            on_step(t, H)

    H = H.astype(np.float64, copy=False)
    return (H, cache) if want_cache else H


def gru_backward(cache: GruCache, p: GruParams, grads: ParamDict, prefix: str,
                 d_h_final: np.ndarray | None = None,
                 d_h_all: np.ndarray | None = None) -> None:
    """Backpropagation through time over a cached batched forward pass.

    ``d_h_final`` is the loss gradient w.r.t. the final hidden state (B, d);
    ``d_h_all`` optionally injects gradients at every step (T, B, d).
    Computes in the dtype of the cache: this call's parameter gradients are
    summed in it, then added once into ``grads`` under ``prefix``.
    """
    X = cache.X
    B, T, _ = X.shape
    d = p.d_model
    dt = _work_dtype(X)
    U_z, U_r, U_h = np.asarray(p.U, dt).reshape(3, d, d)

    g = {n: np.zeros(grads[prefix + n].shape, dt) for n in GruParams.NAMES}
    # Per-gate views of this call's stacked gradients.
    gW_z, gW_r, gW_h = g["W"].reshape(3, d, -1)
    gU_z, gU_r, gU_h = g["U"].reshape(3, d, d)
    gb_z, gb_r, gb_h = g["b"].reshape(3, d)
    if d_h_all is not None:
        d_h_all = np.asarray(d_h_all, dt)
    dh = np.zeros((B, d), dt) if d_h_final is None else np.array(d_h_final, dtype=dt)
    for t in range(T - 1, -1, -1):
        if d_h_all is not None:
            dh = dh + d_h_all[t]
        h_prev, z, r, hbar = cache.H_prev[t], cache.Z[t], cache.R[t], cache.Hbar[t]
        x_t = X[:, t]

        dz = dh * (hbar - h_prev)
        dhbar = dh * z
        dh_prev = dh * (1.0 - z)

        da_h = dhbar * (1.0 - hbar * hbar)
        gW_h += da_h.T @ x_t
        gU_h += da_h.T @ (r * h_prev)
        gb_h += da_h.sum(axis=0)
        drh = da_h @ U_h
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r

        da_r = dr * r * (1.0 - r)
        gW_r += da_r.T @ x_t
        gU_r += da_r.T @ h_prev
        gb_r += da_r.sum(axis=0)
        dh_prev = dh_prev + da_r @ U_r

        da_z = dz * z * (1.0 - z)
        gW_z += da_z.T @ x_t
        gU_z += da_z.T @ h_prev
        gb_z += da_z.sum(axis=0)
        dh = dh_prev + da_z @ U_z

    for n in GruParams.NAMES:
        grads[prefix + n] += g[n]


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------

@dataclass
class GradTape:
    """One scalar-loss forward pass, kept as the data its backward needs.

    ``grads`` is keyed like the parameters: the gradients the forward formed
    itself (its heads'), zeros elsewhere.  ``passes`` lists the GRU passes in
    forward order, each once, as (cache, params, prefix, d_h_final, d_h_all):
    the arguments of its one ``gru_backward``, with the upstream gradients of
    every branch that reads the pass summed in.  ``value`` is the loss,
    ``otn`` and ``dsn`` its parts.
    """

    grads: ParamDict
    passes: list[tuple[GruCache, GruParams, str, np.ndarray | None, np.ndarray | None]] = (
        field(default_factory=list))
    value: float = 0.0
    otn: float = 0.0
    dsn: float = 0.0


def backward(tape: GradTape) -> ParamDict:
    """Gradients for every parameter: the tape's, plus BPTT over its passes,
    the last recorded first.  The tape is left unchanged."""
    grads = {k: v.copy() for k, v in tape.grads.items()}
    for cache, p, prefix, d_h_final, d_h_all in reversed(tape.passes):
        gru_backward(cache, p, grads, prefix, d_h_final=d_h_final, d_h_all=d_h_all)
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: ParamDict
    v: ParamDict
    t: int = 0


def init_adam_state(params: ParamDict) -> AdamState:
    return AdamState(
        m={k: np.zeros(v.shape) for k, v in params.items()},
        v={k: np.zeros(v.shape) for k, v in params.items()},
        t=0,
    )


def adam_update(params: ParamDict, grads: ParamDict, state: AdamState, lr: float,
                beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> tuple[ParamDict, AdamState]:
    """Bias-corrected Adam step.  Returns updated params and state."""
    if set(params) != set(grads):
        raise DataError("params and grads have different keys")
    for k, gv in grads.items():
        if gv.shape != params[k].shape:
            raise DataError(f"gradient shape mismatch for {k}")
        if not np.all(np.isfinite(gv)):
            raise NumericError(f"non-finite gradient for {k}; aborting step")
    t = state.t + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    new_params: ParamDict = {}
    new_m: ParamDict = {}
    new_v: ParamDict = {}
    for k, pv in params.items():
        gv = np.asarray(grads[k], dtype=np.float64)
        m = beta1 * state.m[k] + (1.0 - beta1) * gv
        v = beta2 * state.v[k] + (1.0 - beta2) * gv * gv
        new_m[k] = m
        new_v[k] = v
        new_params[k] = np.asarray(pv, dtype=np.float64) - lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return new_params, AdamState(m=new_m, v=new_v, t=t)
