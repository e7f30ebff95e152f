"""Inference-time anomaly scoring with ``networks.forward``.

The test windows (n_windows, L, D) start at ``seqdata.window_starts``.  The
order (or error-prediction) branch scores each window's m sub-sequence slots,
(n_windows, m); the order score of a slot is its L1 prediction error over the
mean JS divergence of its window's slots.  The distance branch scores each
window, (n_windows,), against reference windows drawn from the test windows
themselves, and its slots inherit that score.  Slot i of the window at ``s``
covers timestamps [s + i*r, s + i*r + l); a timestamp scores the mean over
its covering slots, both columns aggregated in one pass.

Scoring runs ``networks.forward``, the forward training runs, over chunks of
``CHUNK`` windows, and eta embeds the windows ``forward`` gathered for each
chunk.  The order branch scores sub-sequences in their true order: it
encodes each distinct sub-sequence of a chunk once, and windows at stride
``R_test`` = r share all but one of theirs with the next.  The z-scored
series is cast once to ``training.COMPUTE_DTYPE``, the dtype the GRU
computes in.  Scoring is deterministic given the seed used for
reference-pair sampling.

A chunk holds at least ``MIN_ROWS`` windows, unless the whole series has
fewer (``seqdata.batch_ranges`` joins a short last chunk to the one before).
BLAS may round a row of a GEMM over a few rows differently from the same row
in a tall one, but from ``MIN_ROWS`` rows on a row gets the bits it gets in a
taller GEMM, so another ``CHUNK`` moves no score.  The one exception is the
temporal column of ``dsn_plus_ep`` (``score_otn``, and so ``scores``): the
error-prediction head maps each step's hidden states with a float64 GEMM
whose rounding still depends on the chunk's row count.  Against ``CHUNK``
1024, ``CHUNK`` 1 to 200 moved it by up to 3.1e-16 relative, in float64 and
in float32, at d_model 32 and 256 (OpenBLAS).

Score files are CSV tables written by ``seqdata.write_table`` and read back by
``seqdata.read_table``, the package's one table writer and reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError, DataError
# gru_forward is bound here, uncalled, because perfbench/test_perfbench.py
# looks it up on this module.
from .ndkernel import gru_forward  # noqa: F401
from .networks import branches, embed_windows, forward, pair_residuals, sample_pairs
from .objectives import js_rows
from .seqdata import MultivariateSeries, batch_ranges, read_table, window_starts, write_table
from .training import TrainedModel, compute_values


@dataclass
class ScoreConfig:
    beta: float = 1.0
    R_test: int = 10
    score_eps: float = 1e-8
    k_refs: int = 1
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.beta < np.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 <= self.score_eps < np.inf:
            raise ConfigError(f"score_eps must be finite and >= 0, got {self.score_eps}")
        if self.R_test < 1 or self.k_refs < 1:
            raise ConfigError("R_test and k_refs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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

# Windows per chunk: scoring runs ``networks.forward`` and eta once per chunk.
CHUNK = 1024
# The fewest windows in a chunk, unless the whole series has fewer: a row of
# a GEMM over this many rows or more gets the bits it gets in a taller one.
MIN_ROWS = 64


def _forward_chunks(model: TrainedModel, values: np.ndarray, starts: np.ndarray,
                    cfg: ScoreConfig):
    """``networks.forward`` over the windows at ``starts``, chunk by chunk.

    Returns the temporal scores (n_w, m) of the order or error-prediction
    branch, then phi's distance embeddings E and eta's F, both (n_w, d_model)
    and filled only with the distance branch.
    """
    tc, n_w = model.config, len(starts)
    t_scores = np.zeros((n_w, tc.m))
    E, F = np.empty((n_w, tc.d_model)), np.empty((n_w, tc.d_model))
    for s, e in batch_ranges(n_w, max(CHUNK, MIN_ROWS), min_last=MIN_ROWS):
        order, ep, dsn, X = forward(model.phi, values, starts[s:e], tc)
        if order is not None:
            P, Y = order[:2]
            js = js_rows(P, Y).reshape(e - s, tc.m).mean(axis=1, keepdims=True)
            t_scores[s:e] = np.abs(P - Y).sum(axis=1).reshape(e - s, tc.m) / (js + cfg.score_eps)
        if ep is not None:
            err = (ep[0] ** 2).mean(axis=2).T          # (B, L-1); err[:, t-1] ~ x_t
            for i in range(tc.m):
                lo = max(i * tc.r, 1)                  # timestamp 0 has no prediction
                hi = i * tc.r + tc.l
                if hi > lo:
                    t_scores[s:e, i] = err[:, lo - 1:hi - 1].mean(axis=1)
        if dsn is not None:
            E[s:e] = dsn[0]
            F[s:e] = embed_windows(model.eta, X, tc.normalize_embeddings)
    return t_scores, E, F


def score_series(model: TrainedModel, test: MultivariateSeries, cfg: ScoreConfig) -> ScoreSeries:
    """Score every test timestamp with the trained model.

    Windows are laid out at stride ``R_test`` with one extra tail window so
    every timestamp is covered.  Each window's distance score compares it
    with ``k_refs`` other test windows, drawn with ``cfg.seed``.
    """
    cfg.validate()
    if test.d != model.d_in:
        raise DataError(f"test series has {test.d} dimensions, model expects {model.d_in}")
    tc = model.config
    values = compute_values(test, model.stats)
    starts = window_starts(test.n, tc.L, cfg.R_test, cover_tail=True)
    n_w = len(starts)
    t_scores, E, F = _forward_chunks(model, values, starts, cfg)

    # Spatial component: scalar per window.
    dsn_w = np.zeros(n_w)
    if branches(tc.mode, tc.alpha)[2]:
        ii, jj = sample_pairs(n_w, np.random.default_rng(cfg.seed), cfg.k_refs).T
        resid = pair_residuals(E, F, ii, jj)
        dsn_w = (resid ** 2).reshape(n_w, cfg.k_refs).mean(axis=1)

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

    Scores must be finite and labels 0 or 1; a bad cell fails with its file line.
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

    return read_table(path, select)[1]
