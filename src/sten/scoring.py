"""Inference-time anomaly scoring with ``networks.forward``.

The test windows (n_windows, L, D) start at ``seqdata.window_starts``.  The
order (or error-prediction) branch scores each window's m sub-sequence slots,
(n_windows, m); the order score of a slot is its L1 prediction error over the
mean JS divergence of its window's slots plus ``SCORE_EPS``.  The distance
branch scores each window, (n_windows,), by the mean squared gap between
phi's and eta's inner products of its embedding (the final hidden state)
with every other test window's, and its slots inherit that score.
Slot i of the window at ``s`` covers timestamps [s + i*r, s + i*r + l); a
timestamp scores the mean over its covering slots, both columns aggregated in
one pass.

Scoring runs ``networks.forward``, the forward training runs, over chunks of
``CHUNK`` windows.  With the distance branch, each chunk's windows are
gathered once, for phi's forward and for eta, which embeds them beside it:
on a helper thread when the chunk's passes do not split their rows and have
enough work per step (``_forward_chunks``).  The order branch scores
sub-sequences in their true order: it encodes each distinct sub-sequence of
a chunk once, and windows at stride ``R_test`` = r share all but one of
theirs with the next.  The z-scored series is cast once to
``training.COMPUTE_DTYPE``, the dtype the GRU computes in.  Scoring draws
no random numbers: a model and a series give one set of scores.

A chunk holds at least ``ndkernel.MIN_ROWS`` windows, unless the whole
series has fewer (``seqdata.batch_ranges`` joins a short last chunk to the one
before): from that many rows on a row of a GRU pass gets the bits it gets in a
taller one.  The error-prediction head reads each step's states as the GRU
makes them, by one GEMM against its weights padded to a multiple of 8
columns (``networks.forward``), so no chunk holds a hidden trajectory, and a
row's residuals have the same bits in a chunk of any size from 2 rows on.
So another ``CHUNK`` moves no score column of any mode, with one exception:
with m <= 4 sub-sequences per window, ``score_otn`` and ``scores`` of the
order modes may move in their last bits.  OpenBLAS takes a path that depends
on the row count for the order logits ``H @ W_o.T`` while that product has
fewer than about 1,200 elements, which a chunk of B >= ``MIN_ROWS`` windows
(B * m rows of m logits) reaches only for m <= 4.

Score files are CSV tables written by ``seqdata.write_table`` and read back by
``seqdata.read_table``, the package's one table writer and reader.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ConfigError, DataError
from .ndkernel import MIN_ROWS
# gru_forward is bound here, uncalled, because perfbench/test_perfbench.py
# looks it up on this module.
from .ndkernel import gru_forward  # noqa: F401
from .networks import branches, embed_windows, forward
from .objectives import js_rows
from .seqdata import (MultivariateSeries, batch_ranges, read_table, stack_slices, window_starts,
                      write_table)
from .training import TrainConfig, TrainedModel, compute_values


# The order score of a slot divides by its window's mean JS divergence plus
# this, since that mean is 0 where every prediction is exact.
SCORE_EPS = 1e-8


@dataclass
class ScoreConfig:
    """How a test series is scored: ``beta`` weighs the distance column in
    the combined score, and the test windows start every ``R_test``
    timestamps.  The order score's floor is the constant ``SCORE_EPS``."""

    beta: float = 1.0
    R_test: int = 10

    def validate(self) -> None:
        if not 0 <= self.beta < np.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if self.R_test < 1:
            raise ConfigError(f"R_test must be >= 1, got {self.R_test}")

    def check_model(self, tc: TrainConfig) -> None:
        """Windows of the model's length ``tc.L`` at stride ``R_test`` must
        leave no timestamp between them."""
        if self.R_test > tc.L:
            raise ConfigError(f"R_test {self.R_test} exceeds the model's window length "
                              f"L {tc.L}: timestamps between windows would get no score")


@dataclass
class ScoreSeries:
    """Per-timestamp anomaly scores with their component columns and coverage."""

    scores: np.ndarray
    score_otn: np.ndarray
    score_dsn: np.ndarray
    coverage: np.ndarray

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def aggregate_timestamps(starts, values, length: int,
                         n_timestamps: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean score per timestamp over all covering slots: slot k covers
    [starts[k], starts[k] + length) with score ``values[..., k]``.

    ``values`` is one score per slot (n_slots,), or a stack of such columns
    (n_columns, n_slots) that share the slots' index and coverage.  Returns
    (scores, coverage), scores (n_timestamps,) or (n_columns, n_timestamps).
    Every timestamp must be covered by at least one slot, otherwise the
    layout is inconsistent.
    """
    starts = np.asarray(starts, dtype=np.intp)
    values = np.asarray(values, dtype=np.float64)
    outside = (starts < 0) | (starts + length > n_timestamps)
    if np.any(outside):
        start = int(starts[np.argmax(outside)])
        raise DataError(f"slot [{start}, {start + length}) outside timeline "
                        f"of {n_timestamps} timestamps")
    idx = (starts[:, None] + np.arange(length)).reshape(-1)
    count = np.bincount(idx, minlength=n_timestamps)
    if np.any(count == 0):
        missing = int(np.argmin(count))
        raise DataError(f"timestamp {missing} not covered by any sub-sequence")
    # bincount adds slot by slot, in the order a loop over the slots would.
    total = np.stack([np.bincount(idx, weights=np.repeat(column, length),
                                  minlength=n_timestamps)
                      for column in values.reshape(-1, len(starts))])
    return (total / count).reshape(values.shape[:-1] + (n_timestamps,)), count


# ---------------------------------------------------------------------------
# Full scoring pipeline
# ---------------------------------------------------------------------------

# Windows per chunk: scoring runs ``networks.forward`` and eta once per chunk,
# and a chunk holds at least ``ndkernel.MIN_ROWS`` windows.
CHUNK = 1024


def _forward_chunks(model: TrainedModel, values: np.ndarray, starts: np.ndarray):
    """``networks.forward`` over the windows at ``starts``, chunk by chunk.

    With the distance branch, each chunk's windows are gathered once, and
    ``embed_windows`` runs eta over them with phi's work on the chunk as the
    block beside it: a chunk whose passes do not split their rows and have
    enough work per step (``ndkernel._runs_beside``) runs eta's pass on a
    helper thread while the calling thread runs phi's.  Each pass runs every
    row on one thread, so the scores keep their bits either way.

    Returns the temporal scores (n_w, m) of the order or error-prediction
    branch, then phi's distance embeddings E and eta's F, both (n_w, d_model)
    and filled only with the distance branch.
    """
    tc, n_w = model.config, len(starts)
    t_scores = np.zeros((n_w, tc.m))
    E, F = np.empty((n_w, tc.d_model)), np.empty((n_w, tc.d_model))

    def phi_chunk(s: int, e: int, X: np.ndarray | None = None) -> None:
        """phi's forward over windows [s, e), whose gathered windows X are
        passed with the distance branch: their rows of t_scores and E."""
        order, ep, dsn = forward(model.phi, values, starts[s:e], tc, windows=X)
        if order is not None:
            P, Y = order[:2]
            js = js_rows(P, Y).reshape(e - s, tc.m).mean(axis=1, keepdims=True)
            t_scores[s:e] = np.abs(P - Y).sum(axis=1).reshape(e - s, tc.m) / (js + SCORE_EPS)
        if ep is not None:
            err = (ep[0] ** 2).mean(axis=2).T          # (B, L-1); err[:, t-1] ~ x_t
            for i in range(tc.m):
                lo = max(i * tc.r, 1)                  # timestamp 0 has no prediction
                hi = i * tc.r + tc.l
                if hi > lo:
                    t_scores[s:e, i] = err[:, lo - 1:hi - 1].mean(axis=1)
        if dsn is not None:
            E[s:e] = dsn[0]

    use_dsn = branches(tc.mode, tc.alpha)[2]
    for s, e in batch_ranges(n_w, max(CHUNK, MIN_ROWS), min_last=MIN_ROWS):
        if use_dsn:
            X = stack_slices(values, starts[s:e], tc.L)
            F[s:e] = embed_windows(model.eta, X, functools.partial(phi_chunk, s, e, X))
        else:
            phi_chunk(s, e)
    return t_scores, E, F


def distance_scores(E: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Mean over j != i of (<e_i, e_j> - <f_i, f_j>)^2 for each row i of phi's
    embeddings E and eta's F, (n, d) with n >= 2, with no n x n array.

    With D = F - E, U = [E | D] and V = [D | F] the residual is -u_i . v_j, so
    its squares sum to u_i^T (V^T V) u_i, less the j = i term.  Every product
    holds a factor of D, so the score keeps its precision when phi is near eta.
    """
    D = F - E
    U, V = np.hstack([E, D]), np.hstack([D, F])
    total = ((U @ (V.T @ V)) * U).sum(axis=1)
    return (total - (U * V).sum(axis=1) ** 2) / (len(E) - 1)


def score_starts(n: int, tc: TrainConfig, cfg: ScoreConfig) -> np.ndarray:
    """The starts of the test windows over a series of n timestamps: stride
    ``R_test``, with one extra tail window so that every timestamp is covered.
    The distance score compares each window with every other one: a model
    with that branch needs at least two windows."""
    starts = window_starts(n, tc.L, cfg.R_test, cover_tail=True)
    if branches(tc.mode, tc.alpha)[2] and len(starts) < 2:
        raise DataError(f"the distance score compares each test window with the others: "
                        f"needs >= 2 windows of length {tc.L}, got {len(starts)}")
    return starts


def score_series(model: TrainedModel, test: MultivariateSeries, cfg: ScoreConfig) -> ScoreSeries:
    """Score every test timestamp with the trained model.

    Windows are laid out at stride ``R_test`` with one extra tail window so
    every timestamp is covered.  Each window's distance score compares it
    with every other test window (``distance_scores``), so that branch needs
    at least two windows.
    """
    cfg.validate()
    cfg.check_model(model.config)
    if test.d != model.d_in:
        raise DataError(f"test series has {test.d} dimensions, model expects {model.d_in}")
    tc = model.config
    use_dsn = branches(tc.mode, tc.alpha)[2]
    values = compute_values(test, model.stats)
    starts = score_starts(test.n, tc, cfg)
    n_w = len(starts)
    t_scores, E, F = _forward_chunks(model, values, starts)

    # Spatial component: scalar per window.
    dsn_w = distance_scores(E, F) if use_dsn else np.zeros(n_w)

    # Aggregate both components over all (window, sub-sequence) slots, window-major.
    slot_starts = (starts[:, None] + np.arange(tc.m) * tc.r).reshape(-1)
    (otn_col, dsn_col), coverage = aggregate_timestamps(
        slot_starts, np.stack([t_scores.reshape(-1), np.repeat(dsn_w, tc.m)]), tc.l, test.n)
    scores = otn_col + cfg.beta * dsn_col
    return ScoreSeries(scores=scores, score_otn=otn_col, score_dsn=dsn_col,
                       coverage=coverage)


# ---------------------------------------------------------------------------
# Score CSV IO
# ---------------------------------------------------------------------------

def write_scores_csv(path, series: ScoreSeries, labels: np.ndarray | None = None) -> None:
    """One row per test timestamp (1-based), with component columns."""
    header = ["timestamp", "score", "score_otn", "score_dsn"]
    columns = [np.arange(1, series.n + 1), series.scores, series.score_otn, series.score_dsn]
    if labels is not None:
        header.append("label")
        columns.append(np.asarray(labels).astype(np.int64))
    write_table(path, header, columns)


def read_scores_csv(path) -> dict[str, np.ndarray]:
    """Read a scores CSV back into column arrays (labels included if present).

    Scores must be finite, labels 0 or 1 and timestamps 1, 2, ..., n in file
    order; a bad cell fails with its file line, a misplaced timestamp with its row.
    """
    def select(header):
        kinds = {"timestamp": "int", "score": "float", "score_otn": "float",
                 "score_dsn": "float"}
        for name in kinds:
            if name not in header:
                raise DataError(f"{path}: missing column {name!r}")
        if "label" in header:
            kinds["label"] = "label"
        return [(name, header.index(name), kind) for name, kind in kinds.items()]

    cols = read_table(path, select)[1]
    if (off := np.flatnonzero(cols["timestamp"] != np.arange(1, len(cols["score"]) + 1))).size:
        raise DataError(f"{path}: data row {off[0] + 1} has timestamp {cols['timestamp'][off[0]]}"
                        "; timestamps must be 1, 2, ..., n in file order")
    return cols
