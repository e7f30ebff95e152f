"""Trainable encoder, frozen random projector, the batched forward of phi's
branches (order head, error-prediction head, distance embeddings), and the
binary checkpoint format.

``forward`` is the one forward of the distance branch and of phi, run by
training (with the caches its backward needs) and by scoring (without).  Over
a batch of windows, given as a series and the windows' starts, it runs the
branches ``branches`` selects for a mode.  Every branch reads phi's one GRU
tower.  The distance embeddings are the final hidden states of the
error-prediction pass when that branch runs, and of a pass of their own
otherwise; given eta, ``forward`` embeds the windows with it too, beside
phi's passes.  Training and scoring compare the two towers' inner products
over every pair of windows (``distance_factors``).

The encoder phi is one ``ParamDict``, the form Adam, its gradients and
the checkpoint use.  ``phi_shapes`` is its one layout: the GRU's stacked
gate blocks ``gru.W`` (3 d_model, D), ``gru.U`` (3 d_model, d_model) and
``gru.b`` (3 d_model,), as ``GruParams`` holds them, ``order_head.W``
(m, d_model) and ``order_head.b`` (m,); with the error-prediction head also
``ep_head.W`` (D, d_model) and ``ep_head.b`` (D,).  The frozen projector eta
is a plain ``GruParams``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from . import DataError, atomic_write
from .ndkernel import GruParams, ParamDict, gru_forward, gru_shapes, require_finite, softmax
from .seqdata import stack_slices


def phi_shapes(d_in: int, d_model: int, m: int,
               with_ep_head: bool = False) -> dict[str, tuple[int, ...]]:
    """The key and shape of each of phi's blocks, in the order ``init_phi``
    draws them."""
    shapes = {"gru." + k: s for k, s in gru_shapes(d_in, d_model).items()}
    shapes.update({"order_head.W": (m, d_model), "order_head.b": (m,)})
    if with_ep_head:
        shapes.update({"ep_head.W": (d_in, d_model), "ep_head.b": (d_in,)})
    return shapes


def init_phi(d_in: int, d_model: int, m: int, rng: np.random.Generator,
             with_ep_head: bool = False) -> ParamDict:
    """Uniform(-1/sqrt(d_model), +1/sqrt(d_model)) draws of phi's blocks,
    one after another in ``phi_shapes`` order."""
    s = 1.0 / np.sqrt(d_model)
    return {k: rng.uniform(-s, s, size=shape)
            for k, shape in phi_shapes(d_in, d_model, m, with_ep_head).items()}


def gru_checksum(p: GruParams) -> str:
    """sha256 of a GRU's weights, to check that the frozen projector stays frozen."""
    h = hashlib.sha256()
    for name in GruParams.NAMES:
        h.update(np.ascontiguousarray(getattr(p, name)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Branch forwards, shared by training and scoring
# ---------------------------------------------------------------------------
#
# Each returns a fixed tuple whose last entries are what the branch's
# backward needs; its GruCache is None without ``want_cache``.  The GRU runs
# in the dtype of the series or windows passed in (float32 or float64, see
# ``ndkernel``); heads, softmax and distances are float64.

def order_forward(phi: ParamDict, values: np.ndarray, starts: np.ndarray, l: int, r: int,
                  want_cache: bool = False):
    """Order head over the m sub-sequences of the windows at ``starts``, in
    true order.

    ``values`` is the (N, D) series; slot i of the window at s is the
    sub-sequence at s + i*r.  Windows on a common stride share sub-sequences,
    so each distinct one is encoded once and its embedding gathered back to
    every slot that holds it.  Returns (P, Y, H, inv, cache): predicted
    position distributions P and their one-hot truth Y, both (B*m, m) with
    row b*m + i for slot i of window b, the slots' embeddings H, then the
    index ``inv`` of each slot's distinct sub-sequence and the GruCache over
    the distinct ones.
    """
    starts = np.asarray(starts)
    W_o = np.asarray(phi["order_head.W"], np.float64)
    m = W_o.shape[0]
    sub = (starts[:, None] + np.arange(m) * r).reshape(-1)
    if sub.size and (sub.min() < 0 or sub.max() + l > len(values)):
        raise DataError(f"a sub-sequence of length {l} lies outside the series "
                        f"of {len(values)} timestamps")
    uniq, inv = np.unique(sub, return_inverse=True)
    X = stack_slices(np.asarray(values), uniq, l)
    gru = GruParams.from_dict(phi, "gru.")
    H_u, cache = (gru_forward(X, gru, want_cache=True) if want_cache
                  else (gru_forward(X, gru), None))
    # Logits on the gathered rows: their GEMM then has the shape, and the
    # bits, of encoding every slot.
    H = H_u[inv]
    P = softmax(H @ W_o.T + np.asarray(phi["order_head.b"], np.float64))
    Y = np.tile(np.eye(m), (len(starts), 1))
    return P, Y, H, inv, cache


def embed_windows(gru: GruParams, data: np.ndarray, beside):
    """Batched window embedding by one GRU tower: data (B, L, D) -> (B, d_model).

    ``forward`` embeds windows with eta through it, beside phi's passes, the
    caller's block ``beside``: the pass may run on a helper thread while the
    calling thread runs the block (``ndkernel.gru_forward``'s ``beside``).
    BENCHMARK.json counts ``len(data)`` per call by this name."""
    return gru_forward(data, gru, beside=beside)


def branches(mode: str, alpha: float) -> tuple[bool, bool, bool]:
    """Which of the order, error-prediction and distance branches a model
    trains and scores with.  ``full`` with alpha == 0 has no distance branch:
    no gradient can reach it."""
    return (mode in ("full", "otn_only"), mode == "dsn_plus_ep",
            mode in ("dsn_only", "dsn_plus_ep") or (mode == "full" and alpha > 0))


def forward(phi: ParamDict, values: np.ndarray, starts: np.ndarray, cfg,
            want_cache: bool = False, eta: GruParams | None = None):
    """phi's branches, as ``branches(cfg.mode, cfg.alpha)`` selects them, over
    the length-``cfg.L`` windows of the (N, D) series ``values`` at ``starts``;
    ``cfg`` is the model's ``training.TrainConfig``.

    Returns (order, ep, dsn), None for a branch not run:

    - order: ``order_forward``'s (P, Y, H, inv, cache);
    - ep: (resid, cache) of the error-prediction head, a linear map of h_t
      that predicts x_{t+1}: the one-step-ahead residuals (L-1, B, D), as
      float64, which the head forms from each state as the GRU step makes it
      (``gru_forward``'s ``on_step``), and the GruCache of its pass, None
      without ``want_cache``;
    - dsn: (E, cache, F), the distance embeddings, phi's final hidden states
      (B, d_model), the GruCache of the pass that made them, and eta's
      embeddings of the windows (B, d_model), None without ``eta``.

    The windows are gathered once, for phi and eta.  With the error-prediction
    head, the distance embeddings are the final hidden states of its pass,
    whose cache both branches then share; otherwise phi's GRU runs one pass
    for them.  With the distance branch and the frozen projector ``eta``,
    eta's pass (``embed_windows``) runs beside phi's passes: on a helper
    thread where ``ndkernel._runs_beside`` allows, and before them otherwise.
    """
    use_otn, use_ep, use_dsn = branches(cfg.mode, cfg.alpha)
    if use_ep and "ep_head.W" not in phi:
        raise DataError("model has no error-prediction head")
    X = stack_slices(values, starts, cfg.L) if use_ep or use_dsn else None
    gru = GruParams.from_dict(phi, "gru.")
    out = []

    def phi_passes() -> None:
        order = order_forward(phi, values, starts, cfg.l, cfg.r, want_cache) if use_otn else None
        ep = dsn = None
        if use_ep:
            # Each step's states are read as the step makes them, by one
            # float64 GEMM against the head's W^T, zero-padded to a multiple
            # of 8 columns: at that width a row's product has the same bits
            # in a GEMM over any number of rows from 2 on, so a row's
            # residuals do not depend on the chunk it is scored in.
            D = phi["ep_head.W"].shape[0]
            W_e = np.zeros((gru.d_model, -(-D // 8) * 8))
            W_e[:, :D] = np.asarray(phi["ep_head.W"], np.float64).T
            resid = np.empty((X.shape[1] - 1, len(X), D))

            def readout(t, rows, H_t):
                if t < len(resid):
                    resid[t, rows] = (H_t.astype(np.float64) @ W_e)[:, :D]

            H, cache = (gru_forward(X, gru, want_cache=True, on_step=readout) if want_cache
                        else (gru_forward(X, gru, on_step=readout), None))
            resid += np.asarray(phi["ep_head.b"], np.float64)
            resid -= np.transpose(X[:, 1:], (1, 0, 2))
            ep = (resid, cache)
        if use_dsn:
            if use_ep:
                dsn = (H, ep[1])
            else:
                dsn = (gru_forward(X, gru, want_cache=True) if want_cache
                       else (gru_forward(X, gru), None))
        out.extend((order, ep, dsn))

    F = embed_windows(eta, X, phi_passes) if use_dsn and eta is not None else phi_passes()
    order, ep, dsn = out
    return order, ep, None if dsn is None else (*dsn, F)


def distance_factors(E: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U = [E | D] and V = [D | F], D = F - E, of phi's distance embeddings E
    and eta's F (n, d_model): E E^T - F F^T = -U V^T, the distance residuals
    of training's loss and scoring's score.  Every product of a row of U with
    one of V holds a factor of D, so a residual keeps its precision when phi
    is near eta."""
    D = F - E
    return np.hstack([E, D]), np.hstack([D, F])


def sample_pairs(n_windows: int, rng: np.random.Generator, k: int = 1) -> np.ndarray:
    """For each window index i, draw k partners j != i uniformly.

    Returns the (n_windows*k, 2) index pairs (i, j), grouped by i.  No code
    of the package calls it; BENCHMARK.json traces it by name.
    """
    if n_windows < 2:
        raise DataError("need at least 2 windows to sample reference pairs")
    if k < 1:
        raise DataError("k must be >= 1")
    i = np.repeat(np.arange(n_windows), k)
    j = rng.integers(0, n_windows - 1, size=n_windows * k)
    return np.stack([i, j + (j >= i)], axis=1)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Layout (all integers little-endian):
#   8s    magic "STENCKPT"
#   u32   format version (1)
#   u32   config JSON length, then the JSON bytes
#   u32   number of parameter blocks
#   per block:
#     u16  name length, name bytes (utf-8)
#     u8   ndim, then u32 per dimension
#     f32  row-major data
#   32 bytes sha256 of everything above

CHECKPOINT_MAGIC = b"STENCKPT"
CHECKPOINT_VERSION = 1


def write_checkpoint(path, config: dict, blocks: dict[str, np.ndarray]) -> None:
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    cfg = json.dumps(config, sort_keys=True).encode("utf-8")
    out += struct.pack("<I", len(cfg))
    out += cfg
    out += struct.pack("<I", len(blocks))
    for name in sorted(blocks):
        arr = np.ascontiguousarray(blocks[name], dtype="<f4")
        require_finite(name, arr)
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb))
        out += nb
        out += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += arr.tobytes()
    out += hashlib.sha256(bytes(out)).digest()
    with atomic_write(path, "wb") as fh:
        fh.write(bytes(out))


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Config and blocks of a checkpoint file.  A body that does not follow
    the layout above, even under a valid checksum, is a ``DataError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4 + 32:
        raise DataError(f"{path}: truncated checkpoint")
    # A view, so that the blocks are read without copying the body.
    body, digest = memoryview(raw)[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise DataError(f"{path}: checkpoint checksum failure (corrupt or truncated file)")
    if body[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    pos = 8

    def take(size: int) -> memoryview:
        nonlocal pos
        if pos + size > len(body):
            raise DataError(f"{path}: checkpoint body ends inside a field "
                            f"({size} bytes at offset {pos} of {len(body)})")
        pos += size
        return body[pos - size:pos]

    def unpack(fmt: str, n: int = 1) -> tuple[int, ...]:
        return struct.unpack(f"<{n}{fmt}", take(n * struct.calcsize(fmt)))

    def text(size: int, what: str) -> str:
        try:
            return str(take(size), "utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: checkpoint {what} is not UTF-8") from None

    version, = unpack("I")
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: checkpoint version {version} != {CHECKPOINT_VERSION}")
    try:
        config = json.loads(text(unpack("I")[0], "config"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: checkpoint config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DataError(f"{path}: checkpoint config is not a JSON object")
    n_blocks, = unpack("I")
    blocks: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        name = text(unpack("H")[0], "block name")
        if name in blocks:
            raise DataError(f"{path}: checkpoint block {name} appears twice")
        shape = unpack("I", unpack("B")[0])
        data = take(4 * math.prod(shape))
        try:
            blocks[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float32)
        except ValueError as exc:   # more dimensions than numpy's arrays take
            raise DataError(f"{path}: checkpoint block {name}: {exc}") from None
    if pos != len(body):
        raise DataError(f"{path}: {len(body) - pos} bytes after the last checkpoint block")
    return config, blocks
