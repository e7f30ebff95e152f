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
over the gates in z, r, h order.  A step works gate-major, on one
contiguous (B, d) block per gate, the layout of fused RNN kernels: the input
GEMM writes a (3, B, d) block and the recurrent GEMM on U's z|r rows a
(2, B, d) one, each a stack of one GEMM per gate on a gate-major view of W
or U, then one logistic call for z and r together and the GEMM on r*h with
U's h rows.  So every elementwise call runs over whole contiguous blocks,
not over strided views of one gate.  The input is projected per step, so a
forward without cache holds O(B*d) floats, not O(B*T*d).  With a cache,
each step writes z|r, hbar and the next state straight into their slabs of
the one block ``GruCache.steps`` (T, 4, B, d), and copies nothing.  Each
gate pre-activation is still (x W^T + b) + h U^T.
``sigmoid`` computes the sign-split logistic without masks, with the same
float operations and so the same bits.  Whether BLAS gives the same bits
for the per-step (B, d_in) projection as for a whole-sequence one depends on
the dgemm kernel it picks: on OpenBLAS with AVX-512 they match for small
d_in, while from d_in 32 hidden states may differ by about 1e-15 (the tests
name atol 1e-12).  ``gru_backward`` works on z and r as the one (2, B, d)
block the cache holds them in, and adds each weight gradient as one stack of
per-gate GEMMs.

Two threads.  A pass of d_model >= ``WORKER_D_MODEL`` (128) over at least
2 * ``MIN_ROWS`` rows owns a helper thread: it starts one, and joins it
before it returns, so no thread outlives a pass.  Narrower passes ran slower
split over two threads than on one, and do not split.  The forward
gives the helper rows [B//2, B) and runs rows [0, B//2) itself: the rows of
a GRU are independent, and from ``MIN_ROWS`` rows on a row of a GEMM gets
the bits it gets in a taller one.  Both threads write their rows of the one
cache and call ``on_step`` with them; its array may be a buffer that the
next step overwrites.  The backward runs the dh recurrence on the calling
thread and hands each step's gate gradients to the helper, which adds the
weight and bias gradients in the order one thread adds them.  Below
2 * ``MIN_ROWS`` rows that hand-over would keep the bits too, but it was no
faster there.
A pass that does not split, whose caller has other work that needs nothing
of it, runs beside that work instead (``gru_forward``'s ``beside``) when each
of its steps has enough work to pay for the hand-overs between the threads
(``BESIDE_WORK``): the helper runs all its rows, and the calling thread runs
the caller's block.  ``networks.forward`` is the one caller of a pass
beside: given eta, it runs eta's pass over the windows beside phi's passes,
for training (a batch's first step) and for scoring (each chunk).  So every
bit is kept.  An error in either thread reaches the caller once both have
stopped.  The helper runs in a copy of the caller's context, so
``np.errstate`` holds on both threads, and calls no public function of this
module (perfbench's tracer keeps one span stack, on the calling thread).
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
    """Forward intermediates of a batched GRU pass, as needed for BPTT: the
    input X (B, T, d_in) and one block ``steps`` (T, 4, B, d) that holds, for
    each step t, the state entering it, z, r and hbar, in that order, each
    slab (B, d).  The forward writes each of them where it computes it."""

    __slots__ = ("X", "steps")

    def __init__(self, X, steps):
        self.X = X
        self.steps = steps

    # (T, B, d) views of the block, one per slab.
    H_prev = property(lambda self: self.steps[:, 0])
    Z = property(lambda self: self.steps[:, 1])
    R = property(lambda self: self.steps[:, 2])
    Hbar = property(lambda self: self.steps[:, 3])


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
# The work per step, counted as d * (8 B + d), above which a pass over B rows
# of width d runs beside the caller's work: the pass's states, B * d, weigh
# 8 to 1 against one gate's recurrent weights, d * d.  With less, the two
# threads' hand-overs of the interpreter cost more than the second core
# gives.  Fitted to a grid of one-chunk scoring runs, eta beside phi against
# serial (float32, T 100): they crossed near B * d = 8 K for d 8-64, but at
# about 40 rows for d 128 and 3 for d 256, where the weights take a larger
# share of a step.  The recurrent GEMM's B * d * d crossed anywhere from 57 K
# to 614 K, and fits no one constant.  A pass runs beside from 129 rows at
# d 64 and from 3 rows at d 256; 2 rows at d 256, exactly this work, ran
# slower beside than serially.
BESIDE_WORK = 17 * 2 ** 12


def _uses_worker(B: int, d: int) -> bool:
    """Whether a pass over B rows of width d shares its work with a helper
    thread: the forward splits its rows, BPTT is pipelined."""
    return d >= WORKER_D_MODEL and B >= 2 * MIN_ROWS


def _runs_beside(B: int, d: int) -> bool:
    """Whether ``gru_forward`` runs a pass over B rows of width d on a helper
    thread beside the caller's block: a pass that does not split its rows and
    has more than ``BESIDE_WORK`` work per step."""
    return d * (8 * B + d) > BESIDE_WORK and not _uses_worker(B, d)


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


def gru_forward(X: np.ndarray, p: GruParams, want_cache: bool = False, on_step=None,
                beside=None):
    """Batched GRU over X of shape (B, T, d_in), zero initial hidden state.

    Computes in float32 for float32 X, else in float64.  Returns the final
    hidden states (B, d_model) as float64, and with ``want_cache`` also a
    GruCache, in the compute dtype, for gru_backward.  ``on_step(t, rows, H)``
    is called after each step t with the new states H of the rows ``rows`` (a
    slice of the batch), in the compute dtype: their ``H_prev[t + 1]`` of the
    cache, or their final states.  H may be a buffer the next step overwrites.
    A pass that splits its rows calls it from both threads, each with its own
    rows, and a pass beside the caller's block from its helper.

    ``beside``, when given, is the caller's block, a call that needs nothing
    of the pass: a pass that does not split its rows and has enough work per
    step (``_runs_beside``) runs all its rows on a helper thread while the
    calling thread runs the block; any other pass runs first, then the block.
    Each row runs every step on one thread either way, so it keeps its bits.
    """
    X, W, U, b = _pass_inputs(X, p)
    dt = X.dtype
    B, T, _ = X.shape
    d = p.d_model
    # One block for the whole cache: malloc keeps a block freed by one pass
    # for the next more readily than several arrays, which it may return to
    # the system and fault in again.
    steps = np.empty((T, 4, B, d), dt) if want_cache else None
    H = np.empty((B, d), dt)
    on_helper = beside is not None and _runs_beside(B, d)
    if on_helper:
        with _helper_thread(_gru_rows, X, W, U, b, H, steps, slice(0, B), on_step,
                            *_helper_buffers(B, d, dt)):
            beside()
    elif not _uses_worker(B, d):
        _gru_rows(X, W, U, b, H, steps, slice(0, B), on_step, sigmoid, _step_buffers(B, d, dt))
    else:
        h = B // 2
        with _helper_thread(_gru_rows, X, W, U, b, H, steps, slice(h, B), on_step,
                            *_helper_buffers(B - h, d, dt)):
            _gru_rows(X, W, U, b, H, steps, slice(0, h), on_step, sigmoid, _step_buffers(h, d, dt))
    if beside is not None and not on_helper:
        beside()
    H = H.astype(np.float64, copy=False)
    return (H, GruCache(X, steps)) if want_cache else H


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
    """The arrays that each step of ``_gru_rows`` over n rows writes into:
    a (3, n, d), zr (2, n, d), and rh and hbar (n, d)."""
    return (np.empty((3, n, d), dt), np.empty((2, n, d), dt), np.empty((n, d), dt),
            np.empty((n, d), dt))


def _helper_buffers(n: int, d: int, dt) -> tuple:
    """The ``logistic`` and ``work`` arguments of a helper thread's
    ``_gru_rows`` over n rows: ``_logistic`` on scratch of its own, and its
    step buffers.  The calling thread makes them, since what a helper thread
    allocates comes from a malloc arena of its own, which keeps its peak."""
    work = _step_buffers(n, d, dt)
    zr = work[1]
    return functools.partial(_logistic, e=np.empty_like(zr), mask=np.empty(zr.shape, bool)), work


def _gru_rows(X, W, U, b, H, steps, rows: slice, on_step, logistic, work) -> None:
    """Rows ``rows`` of a GRU pass through all T steps: their final states
    into ``H[rows]``, and with a cache's ``steps`` block each step's entering
    state, z|r and hbar straight into their rows of its slabs.  The work of a
    step runs on gate-major blocks: the input GEMM writes a (3, n, d), the
    recurrent GEMM on U's z|r rows writes zr (2, n, d), each a stack of one
    GEMM per gate on a gate-major view of W or U, and every elementwise call
    runs over whole contiguous gate blocks.  Without a cache a step writes
    into the arrays ``work`` (``_step_buffers``).  ``logistic(x, out=x)`` is
    ``sigmoid`` on the calling thread; the helper's half is given
    ``_logistic`` on buffers of its own, and calls no function perfbench
    traces, whose span stack belongs to the calling thread."""
    d = H.shape[1]
    T = X.shape[1]
    X, H = X[rows], H[rows]
    W = W.reshape(3, d, -1).transpose(0, 2, 1)
    U_zr, U_h = U[:2 * d].reshape(2, d, d).transpose(0, 2, 1), U[2 * d:].T
    b = b.reshape(3, 1, d)
    a, zr, rh, hbar = work
    h = H if steps is None else steps[0, 0, rows]
    h.fill(0)
    for t in range(T):
        if steps is not None:
            zr, hbar = steps[t, 1:3, rows], steps[t, 3, rows]
        h_next = H if steps is None or t == T - 1 else steps[t + 1, 0, rows]
        np.matmul(X[:, t], W, out=a)
        a += b
        # Each gate pre-activation is (x W^T + b) + h U^T: a sum of two
        # terms, the same bits in either order.
        np.matmul(h, U_zr, out=zr)
        zr += a[:2]
        logistic(zr, out=zr)
        z, r = zr
        np.multiply(r, h, out=rh)
        np.matmul(rh, U_h, out=hbar)
        hbar += a[2]
        np.tanh(hbar, out=hbar)
        # h_next = (1 - z) * h + z * hbar, h_next written once h is read
        np.subtract(1.0, z, out=rh)
        rh *= h
        np.multiply(z, hbar, out=h_next)
        h_next += rh
        h = h_next
        if on_step is not None:
            on_step(t, rows, h)


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
    (3, B, d).  ``scratch`` is (4, B, d).  z and r are worked on as the one
    (2, B, d) block the cache holds them in.  The float operations are those
    of the expressions in the comments, in their order."""
    h_prev, zr, hbar = cache.steps[t, 0], cache.steps[t, 1:3], cache.steps[t, 3]
    z, r = zr
    dzr, dh_prev, tmp = scratch[:2], scratch[2], scratch[3]
    dz, dr = dzr
    if d_h_all is not None:
        dh += d_h_all[t]
    np.subtract(hbar, h_prev, out=dz)
    dz *= dh                                  # dz = dh * (hbar - h_prev)
    np.subtract(1.0, z, out=dh_prev)
    dh_prev *= dh                             # dh_prev = dh * (1 - z)
    da_h = da[2]
    np.multiply(hbar, hbar, out=da_h)
    np.subtract(1.0, da_h, out=da_h)
    np.multiply(dh, z, out=tmp)
    da_h *= tmp                               # da_h = (dh * z) * (1 - hbar^2)
    np.matmul(da_h, U[2], out=tmp)            # drh = da_h @ U_h
    np.multiply(tmp, h_prev, out=dr)          # dr = drh * h_prev
    tmp *= r
    dh_prev += tmp                            # dh_prev += drh * r
    da_zr = da[:2]
    np.multiply(dzr, zr, out=da_zr)
    np.subtract(1.0, zr, out=dzr)
    da_zr *= dzr                              # da_g = dg * g * (1 - g), g in z, r
    np.matmul(da_zr, U[:2], out=dzr)          # da_z @ U_z, da_r @ U_r
    dh_prev += dzr[1]                         # dh_prev += da_r @ U_r
    np.add(dh_prev, dzr[0], out=dh)           # dh = dh_prev + da_z @ U_z


def _grad_adder(g: ParamDict, cache: GruCache):
    """``add(t, da)``: adds step t's weight and bias gradients, from its gate
    gradients da (3, B, d), to this call's stacked gradients ``g``.  Each
    gradient block is added as one stack of per-gate products."""
    d = g["U"].shape[1]
    gW, gU, gb = g["W"].reshape(3, d, -1), g["U"].reshape(3, d, d), g["b"].reshape(3, d)
    rh = np.empty(cache.steps.shape[2:], gU.dtype)
    prod_W, prod_U = np.empty_like(gW), np.empty_like(gU)

    def add(t: int, da: np.ndarray) -> None:
        x_t, h_prev = cache.X[:, t], cache.steps[t, 0]
        np.multiply(cache.steps[t, 2], h_prev, out=rh)
        da_T = da.transpose(0, 2, 1)
        np.add(gW, np.matmul(da_T, x_t, out=prod_W), out=gW)
        # Gate k's input to its recurrent map: h_prev for z and r, r * h_prev for h.
        np.matmul(da_T[:2], h_prev, out=prod_U[:2])
        np.matmul(da_T[2], rh, out=prod_U[2])
        np.add(gU, prod_U, out=gU)
        np.add(gb, da.sum(axis=1), out=gb)

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
