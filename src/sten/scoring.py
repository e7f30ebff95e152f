"""Inference-time anomaly scoring from the branch forwards in ``networks``.

The test windows (n_windows, L, D) start at ``seqdata.window_starts``.  The
order (or error-prediction) branch scores each window's m sub-sequence slots,
(n_windows, m); the distance branch scores each window, (n_windows,), and its
slots inherit that score.  Slot i of the window at ``s`` covers timestamps
[s + i*r, s + i*r + l); a timestamp scores the mean over its covering slots.

The order branch scores sub-sequences in their true order, through the same
``order_forward`` call as training: it encodes each distinct sub-sequence of a
chunk of windows once, and windows at stride ``R_test`` = r share all but one
of theirs with the next.  The z-scored series is cast once to
``training.COMPUTE_DTYPE``, the dtype the GRU computes in.  For a fixed
``CHUNK``, scoring is deterministic given the seed used for reference-pair
sampling.  Another ``CHUNK`` may move a temporal score in its last bits: BLAS
may round a row of a short GEMM differently from the same row in a tall one.
In float64 about 4e-16 relative was measured, in float32 up to 4.5e-10
(d_model 32, OpenBLAS).

With the error-prediction head and one shared tower (``dsn_plus_ep``
without separate towers), the GRU runs once over each chunk: the distance
branch reads the final hidden states of the error-prediction pass.  So
another ``CHUNK`` may then also move ``score_dsn``: up to 1.2e-15 relative
was measured in float64 and 2.0e-7 in float32, at d_model 32.

Score files are CSV tables written by ``seqdata.write_table`` and read back by
``seqdata.read_table`` and ``seqdata.parse_column``, the package's one table
writer and reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError, DataError
# gru_forward is bound here, uncalled, because perfbench/test_perfbench.py
# looks it up on this module.
from .ndkernel import GruParams, gru_forward  # noqa: F401
from .networks import (dsn_prefix, embed_windows, ep_forward, order_forward, pair_residuals,
                       sample_pairs, unit_rows)
from .objectives import js_rows
from .seqdata import (MultivariateSeries, parse_column, read_table, stack_slices, window_starts,
                      write_table)
from .training import TrainedModel, branches, compute_values


@dataclass
class ScoreConfig:
    beta: float = 1.0
    R_test: int = 10
    eps: float = 1e-8
    k_refs: int = 1
    seed: int = 0
    per_subseq_denominator: bool = False
    ref_source: str = "test"  # "test" or "train"

    def validate(self) -> None:
        if not 0 <= self.beta < np.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 <= self.eps < np.inf:
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")
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

# Windows per forward pass of the temporal branch.
CHUNK = 1024


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
    W = stack_slices(values, starts, tc.L)
    n_w = len(W)
    use_otn, use_ep, use_dsn = branches(tc.mode, tc.alpha)
    # With one shared tower, the error-prediction pass also embeds the
    # windows for the distance branch: its final hidden states.
    E_ep = np.empty((n_w, tc.d_model)) if use_ep and dsn_prefix(model.phi) == "gru." else None

    # Temporal component: (n_w, m) score per sub-sequence.
    t_scores = np.zeros((n_w, tc.m))
    for s in range(0, n_w, CHUNK):
        chunk = starts[s:s + CHUNK]
        B = len(chunk)
        if use_otn:
            P, Y, _, _, _ = order_forward(model.phi, values, chunk, tc.l, tc.r)
            rows = js_rows(P, Y).reshape(B, tc.m)
            if not cfg.per_subseq_denominator:
                rows = rows.mean(axis=1, keepdims=True)
            t_scores[s:s + B] = np.abs(P - Y).sum(axis=1).reshape(B, tc.m) / (rows + cfg.eps)
        elif use_ep:
            resid, H_all, _ = ep_forward(model.phi, W[s:s + CHUNK])
            if E_ep is not None:
                E_ep[s:s + B] = H_all[-1]
            del H_all                                  # one chunk's trajectory at a time
            err = (resid ** 2).mean(axis=2).T          # (B, L-1); err[:, t-1] ~ x_t
            for i in range(tc.m):
                lo = max(i * tc.r, 1)                  # timestamp 0 has no prediction
                hi = i * tc.r + tc.l
                if hi > lo:
                    t_scores[s:s + B, i] = err[:, lo - 1:hi - 1].mean(axis=1)

    # Spatial component: scalar per window.
    dsn_w = np.zeros(n_w)
    if use_dsn:
        tower = GruParams.from_dict(model.phi, dsn_prefix(model.phi))

        def embed(windows):
            return (embed_windows(tower, windows, tc.normalize_embeddings),
                    embed_windows(model.eta, windows, tc.normalize_embeddings))

        if E_ep is None:
            E, F = embed(W)
        else:
            E = unit_rows(E_ep, tc.normalize_embeddings)[0]
            F = embed_windows(model.eta, W, tc.normalize_embeddings)
        rng = np.random.default_rng(cfg.seed)
        if cfg.ref_source == "train":
            if train_series is None:
                raise DataError("ref_source='train' requires the training series")
            pool = stack_slices(compute_values(train_series, model.stats),
                                window_starts(train_series.n, tc.L, tc.R_train), tc.L)
            Ep, Fp = embed(pool)
            jj = rng.integers(0, len(pool), size=(n_w, cfg.k_refs)).reshape(-1)
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
    header, cells, lines = read_table(path)
    cols = dict(zip(header, cells))
    for name in ("timestamp", "score", "score_otn", "score_dsn"):
        if name not in cols:
            raise DataError(f"{path}: missing column {name!r}")
    out = {"timestamp": parse_column(path, "timestamp", cols["timestamp"], lines, "int")}
    for name in ("score", "score_otn", "score_dsn"):
        out[name] = parse_column(path, name, cols[name], lines)
    if "label" in cols:
        out["label"] = parse_column(path, "label", cols["label"], lines, "label")
    return out
