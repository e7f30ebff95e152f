"""Inference-time anomaly scoring with ``networks.forward``.

The test windows (n_windows, L, D) start at ``seqdata.window_starts``.  The
order (or error-prediction) branch scores each window's m sub-sequence slots,
(n_windows, m); the distance branch scores each window, (n_windows,), and its
slots inherit that score.  Slot i of the window at ``s`` covers timestamps
[s + i*r, s + i*r + l); a timestamp scores the mean over its covering slots.

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

from dataclasses import dataclass, replace

import numpy as np

from . import ConfigError, DataError
# gru_forward is bound here, uncalled, because perfbench/test_perfbench.py
# looks it up on this module.
from .ndkernel import gru_forward  # noqa: F401
from .networks import branches, embed_windows, forward, pair_residuals, sample_pairs
from .objectives import js_rows
from .seqdata import MultivariateSeries, batch_ranges, read_table, window_starts, write_table
from .training import TrainConfig, TrainedModel, compute_values


@dataclass
class ScoreConfig:
    beta: float = 1.0
    R_test: int = 10
    score_eps: float = 1e-8
    k_refs: int = 1
    seed: int = 0
    per_subseq_denominator: bool = False
    ref_source: str = "test"  # "test" or "train"

    def validate(self) -> None:
        if not 0 <= self.beta < np.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 <= self.score_eps < np.inf:
            raise ConfigError(f"score_eps must be finite and >= 0, got {self.score_eps}")
        if self.R_test < 1 or self.k_refs < 1:
            raise ConfigError("R_test and k_refs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.ref_source not in ("test", "train"):
            raise ConfigError(f"ref_source must be 'test' or 'train', got {self.ref_source!r}")


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
    [starts[k], starts[k] + length) with score ``values[k]``.

    Returns (scores, coverage).  Every timestamp must be covered by at least
    one slot, otherwise the layout is inconsistent.
    """
    starts = np.asarray(starts, dtype=np.intp)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    outside = (starts < 0) | (starts + length > n_timestamps)
    if np.any(outside):
        start = int(starts[np.argmax(outside)])
        raise DataError(f"slot [{start}, {start + length}) outside timeline "
                        f"of {n_timestamps} timestamps")
    idx = (starts[:, None] + np.arange(length)).reshape(-1)
    # bincount adds slot by slot, in the order a loop over the slots would.
    total = np.bincount(idx, weights=np.repeat(values, length), minlength=n_timestamps)
    count = np.bincount(idx, minlength=n_timestamps)
    if np.any(count == 0):
        missing = int(np.argmin(count))
        raise DataError(f"timestamp {missing} not covered by any sub-sequence")
    return total / count, count


# ---------------------------------------------------------------------------
# Full scoring pipeline
# ---------------------------------------------------------------------------

# Windows per chunk: scoring runs ``networks.forward`` and eta once per chunk.
CHUNK = 1024
# The fewest windows in a chunk, unless the whole series has fewer: a row of
# a GEMM over this many rows or more gets the bits it gets in a taller one.
MIN_ROWS = 64


def _forward_chunks(model: TrainedModel, values: np.ndarray, starts: np.ndarray,
                    tc: TrainConfig, cfg: ScoreConfig):
    """``networks.forward`` over the windows at ``starts``, chunk by chunk.

    Returns the temporal scores (n_w, m) of the order or error-prediction
    branch, then phi's distance embeddings E and eta's F, both (n_w, d_model)
    and filled only with the distance branch.
    """
    n_w = len(starts)
    t_scores = np.zeros((n_w, tc.m))
    E, F = np.empty((n_w, tc.d_model)), np.empty((n_w, tc.d_model))
    for s, e in batch_ranges(n_w, max(CHUNK, MIN_ROWS), min_last=MIN_ROWS):
        order, ep, dsn, X = forward(model.phi, values, starts[s:e], tc)
        if order is not None:
            P, Y = order[:2]
            rows = js_rows(P, Y).reshape(e - s, tc.m)
            if not cfg.per_subseq_denominator:
                rows = rows.mean(axis=1, keepdims=True)
            t_scores[s:e] = np.abs(P - Y).sum(axis=1).reshape(e - s, tc.m) / (rows + cfg.score_eps)
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


def score_series(model: TrainedModel, test: MultivariateSeries, cfg: ScoreConfig,
                 train_series: MultivariateSeries | None = None) -> ScoreSeries:
    """Score every test timestamp with the trained model.

    Windows are laid out at stride ``R_test`` with one extra tail window so
    every timestamp is covered.  Reference windows for the distance score come
    from the test pool itself (default) or from ``train_series``.
    """
    cfg.validate()
    if test.d != model.d_in:
        raise DataError(f"test series has {test.d} dimensions, model expects {model.d_in}")
    tc = model.config
    values = compute_values(test, model.stats)
    starts = window_starts(test.n, tc.L, cfg.R_test, cover_tail=True)
    n_w = len(starts)
    t_scores, E, F = _forward_chunks(model, values, starts, tc, cfg)

    # Spatial component: scalar per window.
    dsn_w = np.zeros(n_w)
    if branches(tc.mode, tc.alpha)[2]:
        rng = np.random.default_rng(cfg.seed)
        if cfg.ref_source == "train":
            if train_series is None:
                raise DataError("ref_source='train' requires the training series")
            # The reference pool needs only its distance embeddings.
            _, Ep, Fp = _forward_chunks(model, compute_values(train_series, model.stats),
                                        window_starts(train_series.n, tc.L, tc.R_train),
                                        replace(tc, mode="dsn_only"), cfg)
            jj = rng.integers(0, len(Ep), size=(n_w, cfg.k_refs)).reshape(-1)
            ii = np.repeat(np.arange(n_w), cfg.k_refs)
        else:
            ii, jj = sample_pairs(n_w, rng, cfg.k_refs).T
            Ep, Fp = E, F
        resid = pair_residuals(E, F, ii, jj, Ep, Fp)
        dsn_w = (resid ** 2).reshape(n_w, cfg.k_refs).mean(axis=1)

    # Aggregate each component over all (window, sub-sequence) slots, window-major.
    slot_starts = (starts[:, None] + np.arange(tc.m) * tc.r).reshape(-1)
    otn_col, coverage = aggregate_timestamps(slot_starts, t_scores, tc.l, test.n)
    dsn_col, _ = aggregate_timestamps(slot_starts, np.repeat(dsn_w, tc.m), tc.l, test.n)
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
