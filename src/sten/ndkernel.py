"""Dense numerical kernel: GRU cell with exact reverse-mode gradients, softmax
and Adam.

Parameters are plain numpy arrays grouped in dicts keyed by dotted names
(e.g. ``"gru.W"``).  Adam maps such a dict to a new one.  ``backward`` runs
BPTT over one training step's passes of a GRU, one ``gru_backward`` per
pass.  Weights are stored as float32 at rest (checkpoints) and as float64
master weights while training.

``sigmoid``, ``gru_forward`` and ``gru_backward`` compute in the dtype of
their input: float32 stays float32, anything else is float64.  The GRU casts
its weights to that dtype, keeps its ``GruCache`` in it, and returns final
states as float64.  A reader of every step's states (the error-prediction
head) takes each one from ``gru_forward``'s ``on_step`` hook as the step
makes it, so a forward keeps no trajectory of its own.  ``gru_backward`` sums
each call's weight gradients in the compute dtype, then adds them once into
the float64 grads, as in mixed-precision training with master weights
(Micikevicius et al. 2018).
``softmax``, the gradient dicts and Adam are float64 throughout.

A GRU is stored as the stacked blocks its forward runs, the fused-GEMM
layout of RNN kernels (Appleyard et al. 2016) and of PyTorch's ``nn.GRU``:
the input map W (3d, d_in), recurrent map U (3d, d) and bias b (3d,), each
over the gates in z, r, h order.  Each step runs one input GEMM, one
recurrent GEMM on U's z|r rows and one logistic call for z and r together,
then the GEMM on r*h with U's h rows, each into a buffer made once per pass.
The input is projected per step, so a forward without cache holds O(B*d)
floats, not O(B*T*d).  Each gate pre-activation is still (x W^T + b) + h U^T.
``sigmoid`` computes the sign-split logistic without masks, with the same
float operations and so the same bits.  Whether BLAS gives the same bits
for the per-step (B, d_in) projection as for a whole-sequence one depends on
the dgemm kernel it picks: on OpenBLAS with AVX-512 they match for small
d_in, while from d_in 32 hidden states may differ by about 1e-15 (the tests
name atol 1e-12).  ``gru_backward`` runs per-gate GEMMs on views of the
stacked blocks and of their gradients: stacking its GEMMs gave the same bits
and no speed-up.

Two threads.  A pass of d_model >= ``WORKER_D_MODEL`` (128) over at least
2 * ``MIN_ROWS`` rows owns a helper thread: it starts one, and joins it
before it returns, so no thread outlives a pass.  Narrower passes ran slower
split over two threads than on one, and do not split.  The forward
gives the helper rows [B//2, B) and runs rows [0, B//2) itself: the rows of
a GRU are independent, and from ``MIN_ROWS`` rows on a row of a GEMM gets
the bits it gets in a taller one.  Both threads write their rows of the one
cache and call ``on_step`` with them; its array is a buffer that the next
step overwrites.  The backward runs the dh recurrence on the calling thread
and hands each step's gate gradients to the helper, which adds the weight
and bias gradients in the order one thread adds them.  Below 2 * ``MIN_ROWS``
rows that hand-over would keep the bits too, but it was no faster there.
A pass that does not split, whose caller has other work that needs nothing
of it, runs beside that work instead (``gru_forward_beside``) when each of
its steps has enough work to pay for the hand-overs between the threads
(``BESIDE_WORK``): the helper runs all its rows, and the calling thread runs
the caller's block.  Scoring runs eta's pass of a chunk that does not split
beside phi's forward this way.  So every bit is kept.  An error in either
thread reaches the caller once both have stopped.  The helper runs in a copy
of the caller's context, so ``np.errstate`` holds on both threads, and calls
no public function of this module (perfbench's tracer keeps one span stack,
on the calling thread).
BLAS should run one thread per calling thread: ``sten/__init__.py`` sets it,
before or after numpy loads.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import queue
import threading
from dataclasses import dataclass

import numpy as np

from . import DataError, NumericError

ParamDict = dict[str, np.ndarray]


def require_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}")


def _work_dtype(x: np.ndarray) -> type:
    """float32 for a float32 array, float64 for anything else."""
    return np.float32 if x.dtype == np.float32 else np.float64


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function from e = exp(-|x|), which never overflows.

    Since e <= 1, max(e, x >= 0) / (1 + e) is 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below: the float operations of splitting by sign,
    without the boolean gather and scatter, so the result has the same bits.
    The result goes to ``out`` when given, which may be ``x``.
    """
    x = np.asarray(x)
    x = x.astype(_work_dtype(x), copy=False)
    return _logistic(x, np.empty_like(x) if out is None else out,
                     np.empty_like(x), np.empty(x.shape, bool))


def _logistic(x: np.ndarray, out: np.ndarray, e: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``sigmoid`` into ``out`` (may be ``x``), with scratch ``e`` and ``mask``
    shaped like ``x``: it allocates nothing."""
    np.greater_equal(x, 0, out=mask)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, mask, out=out)
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


# The fewest rows in a block of a GRU pass.  BLAS may round a row of a GEMM
# over a few rows differently from the same row in a tall one, but from this
# many rows on a row gets the bits it gets in a taller GEMM
# (``TestRowCountInvariance``), so that a pass split into blocks of at least
# this many rows, or scoring's chunks of windows, keeps every bit.
MIN_ROWS = 64
# The narrowest GRU whose passes start a helper thread: on two cores a split
# forward at d_model 32 or 64 was slower than one thread, and from 128 on
# faster (1.14-1.66x forward, 1.19-2.4x BPTT).
WORKER_D_MODEL = 128
# The least work per step, counted as d * (8 B + d), of a pass over B rows of
# width d that runs beside the caller's work: the pass's states, B * d, weigh
# 8 to 1 against one gate's recurrent weights, d * d.  With less, the two
# threads' hand-overs of the interpreter cost more than the second core
# gives.  Fitted to a grid of one-chunk scoring runs, eta beside phi against
# serial (float32, T 100): they crossed near B * d = 8 K for d 8-64, but at
# about 40 rows for d 128 and 3 for d 256, where the weights take a larger
# share of a step.  The recurrent GEMM's B * d * d crossed anywhere from 57 K
# to 614 K, and fits no one constant.  A pass runs beside from 128 rows at
# d 64 and from 2 rows at d 256.
BESIDE_WORK = 17 * 2 ** 12


def _uses_worker(B: int, d: int) -> bool:
    """Whether a pass over B rows of width d shares its work with a helper
    thread: the forward splits its rows, BPTT is pipelined."""
    return d >= WORKER_D_MODEL and B >= 2 * MIN_ROWS


def _runs_beside(B: int, d: int) -> bool:
    """Whether ``gru_forward_beside`` runs a pass over B rows of width d on a
    helper thread beside the caller's work: a pass that does not split its
    rows and has at least ``BESIDE_WORK`` work per step."""
    return d * (8 * B + d) >= BESIDE_WORK and not _uses_worker(B, d)


@contextlib.contextmanager
def _helper_thread(fn, *args):
    """``fn(*args)`` on a thread of its own, in a copy of the caller's context
    (so numpy's error state holds there too), while the caller runs the block:
    joined when the block ends, its error raised if the block raised none."""
    failure = []

    def run():
        try:
            fn(*args)
        except BaseException as exc:
            failure.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
    thread.start()
    try:
        yield
    finally:
        thread.join()  # no row or gradient is written after the pass returns
    if failure:
        raise failure[0]


def gru_forward(X: np.ndarray, p: GruParams, want_cache: bool = False, on_step=None):
    """Batched GRU over X of shape (B, T, d_in), zero initial hidden state.

    Computes in float32 for float32 X, else in float64.  Returns the final
    hidden states (B, d_model) as float64, and with ``want_cache`` also a
    GruCache, in the compute dtype, for gru_backward.  ``on_step(t, rows, H)``
    is called after each step t with the new states H of the rows ``rows`` (a
    slice of the batch), in the compute dtype: their ``H_prev[t + 1]`` of the
    cache, or their final states.  H is a buffer the next step overwrites.
    A pass that starts a helper thread calls it from both threads, each with
    its own rows.
    """
    X, W, U, b = _pass_inputs(X, p)
    dt = X.dtype
    B, T, _ = X.shape
    d = p.d_model
    # One block for the four (T, B, d) arrays: malloc keeps a block freed by
    # one pass for the next more readily than four arrays, which it may
    # return to the system and fault in again.
    cache = GruCache(X, *np.empty((4, T, B, d), dt)) if want_cache else None
    H = np.empty((B, d), dt)
    if not _uses_worker(B, d):
        _gru_rows(X, W, U, b, H, cache, slice(0, B), on_step, sigmoid, _step_buffers(B, d, dt))
    else:
        h = B // 2
        with _helper_thread(_gru_rows, X, W, U, b, H, cache, slice(h, B), on_step,
                            *_helper_buffers(B - h, d, dt)):
            _gru_rows(X, W, U, b, H, cache, slice(0, h), on_step, sigmoid, _step_buffers(h, d, dt))
    H = H.astype(np.float64, copy=False)
    return (H, cache) if want_cache else H


def gru_forward_beside(X: np.ndarray, p: GruParams, beside) -> np.ndarray:
    """``gru_forward(X, p)``, the final states of a GRU pass over X, and a
    call of the caller's block ``beside()``, which needs nothing of the pass.

    A pass that does not split its rows and has enough work per step
    (``_runs_beside``) runs on a helper thread while the calling thread runs
    ``beside``; any other pass runs after ``beside`` returns, as
    ``gru_forward``.  The helper runs every row through every step, as one
    thread runs a pass that does not split, so each row keeps its bits.  An
    error in either thread reaches the caller once both have stopped.
    """
    X, W, U, b = _pass_inputs(X, p)
    B, d = len(X), p.d_model
    if not _runs_beside(B, d):
        beside()
        return gru_forward(X, p)
    H = np.empty((B, d), X.dtype)
    with _helper_thread(_gru_rows, X, W, U, b, H, None, slice(0, B), None,
                        *_helper_buffers(B, d, X.dtype)):
        beside()
    return H.astype(np.float64, copy=False)


def _pass_inputs(X: np.ndarray, p: GruParams) -> tuple[np.ndarray, ...]:
    """X and the GRU's W, U and b in the compute dtype, once X's shape is
    checked."""
    X = np.asarray(X)
    dt = _work_dtype(X)
    X = X.astype(dt, copy=False)
    if X.ndim != 3 or X.shape[1] < 1:
        raise DataError(f"expected (B, T, d_in) with T >= 1, got shape {X.shape}")
    if X.shape[2] != p.d_in:
        raise DataError(f"input dim {X.shape[2]} != GRU d_in {p.d_in}")
    return (X, *(np.asarray(a, dt) for a in (p.W, p.U, p.b)))


def _step_buffers(n: int, d: int, dt) -> tuple[np.ndarray, ...]:
    """The arrays a, zr, rh and hbar that each step of ``_gru_rows`` over n
    rows writes into."""
    return (np.empty((n, 3 * d), dt), np.empty((n, 2 * d), dt), np.empty((n, d), dt),
            np.empty((n, d), dt))


def _helper_buffers(n: int, d: int, dt) -> tuple:
    """The ``logistic`` and ``work`` arguments of a helper thread's
    ``_gru_rows`` over n rows: ``_logistic`` on scratch of its own, and its
    step buffers.  The calling thread makes them, since what a helper thread
    allocates comes from a malloc arena of its own, which keeps its peak."""
    work = _step_buffers(n, d, dt)
    zr = work[1]
    return functools.partial(_logistic, e=np.empty_like(zr), mask=np.empty(zr.shape, bool)), work


def _gru_rows(X, W, U, b, H, cache, rows: slice, on_step, logistic, work) -> None:
    """Rows ``rows`` of a GRU pass through all T steps: their final states
    into ``H[rows]``, and with a cache their steps into its rows.  Each step
    writes into the arrays ``work`` (``_step_buffers``).  ``logistic(x,
    out=x)`` is ``sigmoid`` on the calling thread; the helper's half is given
    ``_logistic`` on buffers of its own, and calls no function perfbench
    traces, whose span stack belongs to the calling thread."""
    d = H.shape[1]
    X, H = X[rows], H[rows]
    U_zr, U_h = U[:2 * d].T, U[2 * d:].T
    a, zr, rh, hbar = work
    H.fill(0)
    for t in range(X.shape[1]):
        np.matmul(X[:, t], W.T, out=a)
        a += b
        # Each gate pre-activation is (x W^T + b) + h U^T: a sum of two
        # terms, the same bits in either order.
        np.matmul(H, U_zr, out=zr)
        zr += a[:, :2 * d]
        logistic(zr, out=zr)
        z, r = zr[:, :d], zr[:, d:]
        np.multiply(r, H, out=rh)
        np.matmul(rh, U_h, out=hbar)
        hbar += a[:, 2 * d:]
        np.tanh(hbar, out=hbar)
        if cache is not None:
            cache.H_prev[t, rows] = H
            cache.Z[t, rows] = z
            cache.R[t, rows] = r
            cache.Hbar[t, rows] = hbar
        # H = (1 - z) * H + z * hbar
        np.subtract(1.0, z, out=rh)
        rh *= H
        hbar *= z
        np.add(rh, hbar, out=H)
        if on_step is not None:
            on_step(t, rows, H)


def gru_backward(cache: GruCache, p: GruParams, grads: ParamDict, prefix: str,
                 d_h_final: np.ndarray | None = None,
                 d_h_all: np.ndarray | None = None) -> None:
    """Backpropagation through time over a cached batched forward pass.

    ``d_h_final`` is the loss gradient w.r.t. the final hidden state (B, d);
    ``d_h_all`` optionally injects gradients at every step (T, B, d).
    Computes in the dtype of the cache: this call's parameter gradients are
    summed in it, then added once into ``grads`` under ``prefix``.

    The calling thread runs the dh recurrence.  A pass that starts a helper
    thread hands it each step's gate gradients through two reused buffers,
    and the helper adds the weight and bias gradients, step after step in the
    same order as one thread would.
    """
    X = cache.X
    B, T, _ = X.shape
    d = p.d_model
    dt = _work_dtype(X)
    U = np.asarray(p.U, dt).reshape(3, d, d)
    g = {n: np.zeros(grads[prefix + n].shape, dt) for n in GruParams.NAMES}
    add = _grad_adder(g, cache)
    if d_h_all is not None:
        d_h_all = np.asarray(d_h_all, dt)
    dh = np.zeros((B, d), dt) if d_h_final is None else np.array(d_h_final, dtype=dt)
    scratch = np.empty((4, B, d), dt)
    if not _uses_worker(B, d):
        da = np.empty((3, B, d), dt)
        for t in range(T - 1, -1, -1):
            _dh_step(cache, t, U, dh, d_h_all, da, scratch)
            add(t, da)
    else:
        free, ready = queue.SimpleQueue(), queue.SimpleQueue()
        for _ in range(2):
            free.put(np.empty((3, B, d), dt))
        with _helper_thread(_add_handed_over, ready, free, add):
            try:
                for t in range(T - 1, -1, -1):
                    da = free.get()
                    _dh_step(cache, t, U, dh, d_h_all, da, scratch)
                    ready.put((t, da))
            finally:
                ready.put(None)

    for n in GruParams.NAMES:
        grads[prefix + n] += g[n]


def _dh_step(cache: GruCache, t: int, U: np.ndarray, dh: np.ndarray,
             d_h_all: np.ndarray | None, da: np.ndarray, scratch: np.ndarray) -> None:
    """Step t of the dh recurrence, in place: takes dh, the gradient w.r.t.
    the states step t makes, to the one w.r.t. the states entering it, and
    writes the gate pre-activation gradients da_z, da_r, da_h into ``da``
    (3, B, d).  ``scratch`` is (4, B, d).  The float operations are those of
    the expressions in the comments, in their order."""
    h_prev, z, r, hbar = cache.H_prev[t], cache.Z[t], cache.R[t], cache.Hbar[t]
    U_z, U_r, U_h = U
    da_z, da_r, da_h = da
    dz, dh_prev, drh, tmp = scratch
    if d_h_all is not None:
        dh += d_h_all[t]
    np.subtract(hbar, h_prev, out=dz)
    dz *= dh                                  # dz = dh * (hbar - h_prev)
    np.subtract(1.0, z, out=dh_prev)
    dh_prev *= dh                             # dh_prev = dh * (1 - z)
    np.multiply(hbar, hbar, out=da_h)
    np.subtract(1.0, da_h, out=da_h)
    np.multiply(dh, z, out=tmp)
    da_h *= tmp                               # da_h = (dh * z) * (1 - hbar^2)
    np.matmul(da_h, U_h, out=drh)             # drh = da_h @ U_h
    np.multiply(drh, h_prev, out=tmp)         # dr = drh * h_prev
    drh *= r
    dh_prev += drh                            # dh_prev += drh * r
    np.multiply(tmp, r, out=da_r)
    np.subtract(1.0, r, out=tmp)
    da_r *= tmp                               # da_r = dr * r * (1 - r)
    np.matmul(da_r, U_r, out=drh)
    dh_prev += drh                            # dh_prev += da_r @ U_r
    np.multiply(dz, z, out=da_z)
    np.subtract(1.0, z, out=tmp)
    da_z *= tmp                               # da_z = dz * z * (1 - z)
    np.matmul(da_z, U_z, out=drh)
    np.add(dh_prev, drh, out=dh)              # dh = dh_prev + da_z @ U_z


def _grad_adder(g: ParamDict, cache: GruCache):
    """``add(t, da)``: adds step t's weight and bias gradients, from its gate
    gradients da (3, B, d), to this call's stacked gradients ``g``."""
    d = g["U"].shape[1]
    gW, gU, gb = g["W"].reshape(3, d, -1), g["U"].reshape(3, d, d), g["b"].reshape(3, d)
    rh = np.empty(cache.H_prev.shape[1:], gU.dtype)
    prod_W, prod_U = np.empty_like(gW[0]), np.empty_like(gU[0])

    def add(t: int, da: np.ndarray) -> None:
        x_t, h_prev = cache.X[:, t], cache.H_prev[t]
        np.multiply(cache.R[t], h_prev, out=rh)
        # Gate k's input to its recurrent map: h_prev for z and r, r * h_prev for h.
        for k, h_in in enumerate((h_prev, h_prev, rh)):
            gW[k] += np.matmul(da[k].T, x_t, out=prod_W)
            gU[k] += np.matmul(da[k].T, h_in, out=prod_U)
            gb[k] += da[k].sum(axis=0)

    return add


def _add_handed_over(ready: queue.SimpleQueue, free: queue.SimpleQueue, add) -> None:
    """The helper's half of a pipelined BPTT: ``add`` each (t, da) the
    recurrence hands over, and hand each buffer back, up to the None that ends
    the pass.  After a failure it only hands buffers back, so that the
    recurrence never waits for one, and raises the failure at the end."""
    failure = None
    while (item := ready.get()) is not None:
        if failure is None:
            try:
                add(*item)
            except BaseException as exc:
                failure = exc
        free.put(item[1])
    if failure is not None:
        raise failure


def backward(p: GruParams, grads: ParamDict, prefix: str, passes) -> None:
    """BPTT over one training step's passes of the GRU ``p``, the last pass
    first: one ``gru_backward`` per pass, each adding into ``grads`` under
    ``prefix`` in place.  Each pass is (cache, d_h_final, d_h_all), with the
    upstream gradients of every branch that reads it summed in."""
    for cache, d_h_final, d_h_all in reversed(passes):
        gru_backward(cache, p, grads, prefix, d_h_final=d_h_final, d_h_all=d_h_all)


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
