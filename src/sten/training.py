"""Joint self-supervised training: a temporal task (order prediction, or in
``dsn_plus_ep`` one-step-ahead error prediction) plus distance distillation
over every pair of a batch's windows, with deterministic seeding,
checkpointing, and the ablation modes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import ConfigError, DataError, NumericError
# gru_forward is bound here, uncalled, because perfbench/test_perfbench.py
# looks it up on this module.
from .ndkernel import (GruParams, ParamDict, adam_update, backward, gru_forward,  # noqa: F401
                       gru_shapes, init_adam_state, init_gru)
from .networks import (branches, distance_factors, forward, gru_checksum, init_phi,
                       phi_shapes, read_checkpoint, write_checkpoint)
from .objectives import js_rows, js_rows_grad_p
from .seqdata import (MultivariateSeries, NormStats, batch_ranges, window_starts, zscore_apply,
                      zscore_fit)

MODES = ("full", "otn_only", "dsn_only", "dsn_plus_ep")

# The dtype the GRU computes in, in training and in scoring (``ndkernel``
# states the rule): the z-scored series is cast to it once.  The weights Adam
# updates, the heads, the losses and the scores are float64 either way.
COMPUTE_DTYPE = np.float32

def seed_streams(master: int) -> dict[str, np.random.Generator]:
    """Independent named random streams for the training internals."""
    children = np.random.SeedSequence(int(master)).spawn(2)
    return {n: np.random.default_rng(c) for n, c in zip(("phi_init", "eta_init"), children)}


@dataclass
class TrainConfig:
    R_train: int = 10
    l: int = 10
    r: int = 10
    m: int = 10
    d_model: int = 256
    alpha: float = 1.0
    lr: float = 1e-5
    epochs: int = 5
    batch_size: int = 256
    seed: int = 0
    mode: str = "full"

    @property
    def L(self) -> int:
        """Window length: m sub-sequences of length l at stride r span it."""
        return self.l + (self.m - 1) * self.r

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not 0 <= self.lr < np.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.alpha < np.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.batch_size < 2 and branches(self.mode, self.alpha)[2]:
            raise ConfigError("batch_size must be >= 2 for modes with the distance branch")
        if min(self.R_train, self.l, self.r, self.m, self.d_model) < 1:
            raise ConfigError("R_train, l, r, m, d_model must all be >= 1")
        if self.r > self.l:
            raise ConfigError(f"r must be <= l, got r={self.r} > l={self.l}: a window's "
                              "sub-sequences would leave gaps between them")
        if self.L < 2 and branches(self.mode, self.alpha)[1]:
            raise ConfigError(f"error prediction needs windows of length >= 2, got L={self.L}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainedModel:
    phi: ParamDict   # keyed as networks.init_phi keys it
    eta: GruParams
    config: TrainConfig
    stats: NormStats
    loss_trace: list[tuple[float, float, float]] = field(default_factory=list)
    d_in: int = 0


def build_sten_tape(phi: ParamDict, F: np.ndarray | None, values: np.ndarray,
                    starts: np.ndarray, cfg: TrainConfig, outputs: list | None = None
                    ) -> tuple[tuple[float, float, float], ParamDict]:
    """One training step's loss over a batch of windows, and its gradient.

    The batch is the length-L windows of the (N, D) series ``values`` at
    ``starts``; ``networks.forward`` runs phi's branches over it, with the
    caches of their GRU passes, unless the list ``outputs`` holds its result:
    popped, so that no other reference keeps its arrays through BPTT.  ``F``
    holds eta's embeddings of the windows (B, d_model) for the distance
    branch (None without one).  Its loss is the mean over every ordered pair
    i != j of the batch of (<e_i, e_j> - <f_i, f_j>)^2, in float64, where e_i
    is phi's embedding of window i, its final hidden state.  Over the (B, B)
    residuals R its gradient w.r.t. phi's embeddings E is 4 R E / (B (B-1)).

    Returns ((otn, dsn, total), grads): the loss parts, total = otn + alpha
    * dsn, and the gradient of total for every block of phi (eta is frozen).
    The forward forms the heads' gradients and the gradient of the loss
    w.r.t. each GRU pass's hidden states; ``backward`` then runs one BPTT per
    pass.  Where the distance branch reads the error-prediction pass
    (``dsn_plus_ep``), its gradient ``dE`` is summed into that pass's
    final-step entry ``d_h_all[-1]``, not run as a second BPTT.  A non-finite
    total is a ``NumericError`` naming both parts, raised before any BPTT.

    BENCHMARK.json traces this function by name, which it keeps until the
    benchmark's next revision renames it (ROADMAP item 1).
    """
    order, ep, dist = outputs.pop() if outputs else forward(phi, values, starts, cfg,
                                                            want_cache=True)
    grads = {k: np.zeros(v.shape) for k, v in phi.items()}
    # Each GRU pass once, in forward order, as (cache, d_h_final, d_h_all).
    # Each branch deletes the forward's arrays once it is done with them, so
    # that only the passes are alive through BPTT (the order branch's H
    # alone is B*m x d_model float64).
    passes = []
    otn = dsn = 0.0
    d_h_all = None

    if order is not None:
        P, Y, H, inv, cache = order
        otn = float(js_rows(P, Y).mean())
        dP = js_rows_grad_p(P, Y) * (1.0 / P.shape[0])
        dlogits = P * (dP - (dP * P).sum(axis=1, keepdims=True))
        grads["order_head.W"] += dlogits.T @ H
        grads["order_head.b"] += dlogits.sum(axis=0)
        # Each distinct sub-sequence sums its slots' gradients in np.add.at's
        # order: the starts are distinct and ascending, so a slot column's
        # rows are distinct, and a later window fills an earlier slot.
        G, m = dlogits @ np.asarray(phi["order_head.W"], np.float64), P.shape[1]
        dH = np.zeros((cache.X.shape[0], H.shape[1]))
        for i in reversed(range(m)):
            dH[inv[i::m]] += G[i::m]
        passes.append((cache, dH, None))
        del order, P, Y, H, inv, dP, dlogits, G

    if ep is not None:
        resid, cache = ep
        otn = float(np.mean(resid ** 2))  # temporal slot of the breakdown
        dpred = resid * (2.0 / resid.size)
        # The head read h_1 .. h_{L-1}, the states entering steps 1 .. L-1;
        # einsum casts them (compute dtype) to float64 a buffer at a time.
        grads["ep_head.W"] += np.einsum("tbo,tbh->oh", dpred, cache.H_prev[1:])
        grads["ep_head.b"] += dpred.sum(axis=(0, 1))
        # In the compute dtype, which gru_backward casts it to: one float64
        # GEMM per step, rounded as it is stored.
        W_e = np.asarray(phi["ep_head.W"], np.float64)
        d_h_all = np.zeros_like(cache.H_prev)
        for t in range(len(dpred)):
            d_h_all[t] = dpred[t] @ W_e
        passes.append((cache, None, d_h_all))
        del ep, resid, dpred

    if dist is not None:
        if F is None or len(F) < 2:
            raise DataError("the distance loss needs eta's embeddings of >= 2 windows")
        E, cache, _ = dist
        E = E.astype(np.float64)
        # R = E E^T - F F^T off the diagonal, in the difference form that
        # scoring.distance_scores shares, which keeps R precise when phi is near eta.
        U, V = distance_factors(E, F)
        R = -(U @ V.T)
        np.fill_diagonal(R, 0.0)
        scale = 1.0 / (len(R) * (len(R) - 1))
        dsn = float((R * R).sum() * scale)
        # d(total)/d(dsn) = alpha in every mode that trains the branch.
        dE = R @ E * (4.0 * cfg.alpha * scale)
        if d_h_all is not None:
            d_h_all[-1] += dE  # one BPTT over the shared pass carries both branches
        else:
            passes.append((cache, dE, None))
        del dist, E, U, V, R, dE

    total = otn + cfg.alpha * dsn
    if not np.isfinite(total):
        raise NumericError(f"non-finite training loss: otn={otn}, dsn={dsn}")
    backward(GruParams.from_dict(phi, "gru."), grads, "gru.", passes)
    return (otn, dsn, total), grads


def compute_values(series: MultivariateSeries, stats: NormStats) -> np.ndarray:
    """The series z-scored by ``stats``, in ``COMPUTE_DTYPE``: what the GRU reads.

    A finite value far from a dimension's training mean (a dimension that was
    constant in training has its std floored) can have a z-score beyond the
    compute dtype's range; that is a ``DataError``, not infinite scores.
    """
    with np.errstate(over="ignore"):
        values = zscore_apply(series, stats).values.astype(COMPUTE_DTYPE, copy=False)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        j = int(bad[0])
        name = series.dim_names[j] if series.dim_names else f"dim_{j}"
        raise DataError(f"dimension {name!r}: its z-score exceeds the "
                        f"{np.dtype(COMPUTE_DTYPE).name} range")
    return values


def train_starts(n: int, cfg: TrainConfig) -> np.ndarray:
    """The starts of the training windows over a series of n timestamps.  The
    distance loss compares a batch's windows in pairs: a mode with it needs
    at least two windows."""
    starts = window_starts(n, cfg.L, cfg.R_train)
    if branches(cfg.mode, cfg.alpha)[2] and len(starts) < 2:
        raise DataError(f"mode {cfg.mode!r} needs >= 2 windows for the distance loss, "
                        f"got {len(starts)}")
    return starts


def train(series: MultivariateSeries, cfg: TrainConfig) -> TrainedModel:
    """Fit the encoder on an unlabeled series (labels, if present, are ignored).

    Each batch's order branch encodes each of its distinct sub-sequences once.
    With the error-prediction head, phi's GRU runs once over each batch's
    windows for both the error-prediction and the distance branch, and BPTT
    runs once over that pass.  The frozen projector eta is drawn from the
    ``eta_init`` stream of ``cfg.seed``, and embeds each batch's windows once
    per call: in the batch's first step, ``networks.forward`` runs it beside
    phi's passes, and later epochs reuse its embeddings.
    """
    cfg.validate()
    stats = zscore_fit(series)
    values = compute_values(series, stats)
    starts = train_starts(series.n, cfg)
    n = len(starts)
    _, use_ep, use_dsn = branches(cfg.mode, cfg.alpha)

    streams = seed_streams(cfg.seed)
    phi = init_phi(series.d, cfg.d_model, cfg.m, streams["phi_init"], with_ep_head=use_ep)
    # Frozen projector lives in its at-rest precision from the start.
    eta = init_gru(series.d, cfg.d_model, streams["eta_init"]).astype(np.float32)
    eta_checksum = gru_checksum(eta)

    adam = init_adam_state(phi)
    ranges = batch_ranges(n, cfg.batch_size, min_last=2 if use_dsn else 1)
    # eta is frozen and the windows fixed: each batch is embedded once, in
    # its first step, and keeps the bits of its own embedding in every epoch.
    eta_emb: list[np.ndarray | None] = [None] * len(ranges)

    trace: list[tuple[float, float, float]] = []
    for epoch in range(cfg.epochs):
        sums = np.zeros(3)
        for bi, (s, e) in enumerate(ranges):
            # A step that overflows (a huge alpha, say) ends in the
            # NumericError of a non-finite loss or gradient, with no numpy
            # warning before it.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    fwd = []
                    if use_dsn and eta_emb[bi] is None:
                        fwd.append(forward(phi, values, starts[s:e], cfg, want_cache=True, eta=eta))
                        eta_emb[bi] = fwd[0][2][2]      # the distance entry's F
                    parts, grads = build_sten_tape(phi, eta_emb[bi], values, starts[s:e],
                                                   cfg, fwd)
                except NumericError as exc:
                    raise NumericError(f"epoch {epoch + 1}, batch {bi + 1}: {exc}") from None
                sums += (e - s) * np.array(parts)
                phi, adam = adam_update(phi, grads, adam, cfg.lr)
        mean = sums / n
        trace.append((float(mean[0]), float(mean[1]), float(mean[2])))

    if gru_checksum(eta) != eta_checksum:
        raise NumericError("frozen projector parameters changed during training")
    return TrainedModel(phi={k: v.astype(np.float32) for k, v in phi.items()}, eta=eta,
                        config=cfg, stats=stats, loss_trace=trace, d_in=series.d)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(model: TrainedModel, path) -> None:
    config = asdict(model.config)
    config["d_in"] = model.d_in
    blocks = {"phi." + k: v for k, v in model.phi.items()}
    blocks.update(model.eta.as_dict("eta.gru."))
    blocks["norm.mean"] = model.stats.mean
    blocks["norm.std"] = model.stats.std
    blocks["trace.losses"] = np.asarray(model.loss_trace, dtype=np.float32).reshape(-1, 3)
    write_checkpoint(path, config, blocks)


def _check_blocks(path, cfg: TrainConfig, d_in: int, blocks: dict[str, np.ndarray]) -> None:
    """The block set must be exactly the one ``cfg`` implies, each block with
    its shape and finite."""
    phi = phi_shapes(d_in, cfg.d_model, cfg.m, with_ep_head=branches(cfg.mode, cfg.alpha)[1])
    shapes = {"phi." + k: s for k, s in phi.items()}
    shapes.update({"eta.gru." + k: s for k, s in gru_shapes(d_in, cfg.d_model).items()})
    shapes.update({"norm.mean": (d_in,), "norm.std": (d_in,), "trace.losses": (cfg.epochs, 3)})
    missing, extra = sorted(set(shapes) - set(blocks)), sorted(set(blocks) - set(shapes))
    if missing or extra:
        raise DataError(f"{path}: checkpoint blocks do not match its config: "
                        f"missing {missing}, unexpected {extra}")
    for name, shape in shapes.items():
        if blocks[name].shape != shape:
            raise DataError(f"{path}: block {name} has shape {blocks[name].shape}, "
                            f"expected {shape}")
        if not np.isfinite(blocks[name]).all():
            raise DataError(f"{path}: block {name} has a non-finite value")


# Python types of the JSON values each declared TrainConfig field type accepts;
# a bool, which Python counts as an int, is none of them.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def load_checkpoint(path) -> TrainedModel:
    config, blocks = read_checkpoint(path)
    d_in = config.pop("d_in", None)
    known = {f.name for f in fields(TrainConfig)}
    unknown, missing = set(config) - known, known - set(config)
    if unknown:
        raise DataError(f"{path}: unknown config keys in checkpoint: {sorted(unknown)}")
    if missing:
        raise DataError(f"{path}: missing config keys in checkpoint: {sorted(missing)}")
    try:
        if isinstance(d_in, bool) or not isinstance(d_in, int) or d_in < 1:
            raise ConfigError(f"d_in must be a positive integer, got {d_in!r}")
        for f in fields(TrainConfig):
            v = config[f.name]
            if isinstance(v, bool) or not isinstance(v, _JSON_TYPES[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {v!r}")
        cfg = TrainConfig(**config)
        cfg.validate()
    except ConfigError as exc:
        raise DataError(f"{path}: bad checkpoint config: {exc}") from None
    _check_blocks(path, cfg, d_in, blocks)
    phi = {k[len("phi."):]: v for k, v in blocks.items() if k.startswith("phi.")}
    eta = GruParams.from_dict(blocks, "eta.gru.")
    stats = NormStats(mean=blocks["norm.mean"], std=blocks["norm.std"])
    trace = [tuple(float(x) for x in row) for row in blocks["trace.losses"]]
    return TrainedModel(phi=phi, eta=eta, config=cfg, stats=stats,
                        loss_trace=trace, d_in=d_in)
