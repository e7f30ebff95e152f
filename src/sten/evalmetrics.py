"""Evaluation protocols for time-series anomaly detection: point-adjust,
AUC-ROC, AUC-PR, best F1, affiliation precision/recall/F1, range-AUC, and
volume-under-surface scores.

Events are lists of disjoint inclusive (start, end) integer intervals,
0-based.  Thresholded predictions everywhere use score >= threshold, except
the percentile rule of threshold_percentile which is strict.  Undefined
metrics (empty denominators) are reported as None, never as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ConfigError, DataError

EventSet = list[tuple[int, int]]


def events_from_binary(labels: np.ndarray) -> EventSet:
    """Maximal runs of 1s as inclusive (start, end) intervals."""
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 1:
        raise DataError("labels must be a 1-d binary vector")
    edges = np.diff(np.concatenate([[0], labels.astype(np.int8), [0]]))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def validate_events(events: EventSet, timeline_len: int) -> None:
    prev_end = -1
    for s, e in events:
        if not 0 <= s <= e < timeline_len:
            raise DataError(f"event ({s}, {e}) outside timeline of {timeline_len}")
        if s <= prev_end:
            raise DataError("events must be sorted and disjoint")
        prev_end = e


def point_adjust(scores: np.ndarray, truth: EventSet) -> np.ndarray:
    """Raise every score inside a truth segment to the segment maximum."""
    scores = np.asarray(scores, np.float64)
    validate_events(truth, scores.shape[0])
    out = scores.copy()
    for s, e in truth:
        out[s:e + 1] = scores[s:e + 1].max()
    return out


# ---------------------------------------------------------------------------
# Threshold-sweep metrics
# ---------------------------------------------------------------------------

def _check_lengths(scores, labels):
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError(f"scores {scores.shape} and labels {labels.shape} must be "
                        "1-d and aligned")
    return scores, labels.astype(bool)


def roc_auc(scores, labels) -> float | None:
    """Probability a random positive outscores a random negative; ties count 1/2."""
    scores, labels = _check_lengths(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    _, first, group, count = np.unique(scores[order], return_index=True,
                                       return_inverse=True, return_counts=True,
                                       equal_nan=False)
    last = first + count - 1
    ranks = np.empty(scores.size)
    ranks[order] = (0.5 * (first + last) + 1.0)[group]  # average 1-based rank
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _tie_groups(scores):
    """The descending stable order of ``scores`` and, in that order, the last
    index of each tie group; returns (order, idx, thresholds)."""
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    idx = np.concatenate([np.nonzero(np.diff(s))[0], [s.size - 1]])
    return order, idx, s[idx]


def _desc_threshold_sweep(order, idx, weights_pos, weights_neg):
    """Cumulative TP/FP at each distinct threshold, descending.

    ``order`` and ``idx`` come from ``_tie_groups``; ``weights_pos``/
    ``weights_neg`` give each point's positive and negative mass (binary
    labels become 1/0 masses; range-AUC uses continuous ones).  Returns
    (tp, fp) arrays aligned with the distinct thresholds.
    """
    return np.cumsum(weights_pos[order])[idx], np.cumsum(weights_neg[order])[idx]


def pr_auc(scores, labels) -> float | None:
    """Average precision over the descending-score threshold sweep."""
    scores, labels = _check_lengths(scores, labels)
    if not labels.any():
        return None
    order, idx, _ = _tie_groups(scores)
    tp, fp = _desc_threshold_sweep(order, idx, labels.astype(np.float64),
                                   (~labels).astype(np.float64))
    precision = tp / (tp + fp)
    recall = tp / tp[-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev) * precision).sum())


def best_f1(scores, labels) -> tuple[float, float, float, float] | None:
    """Max F1 over thresholds at distinct scores (prediction: score >= threshold).

    Returns (f1, threshold, precision, recall); ties resolved toward the
    lower threshold.
    """
    scores, labels = _check_lengths(scores, labels)
    n_pos = float(labels.sum())
    if n_pos == 0:
        return None
    order, idx, thr = _tie_groups(scores)
    tp, fp = _desc_threshold_sweep(order, idx, labels.astype(np.float64),
                                   (~labels).astype(np.float64))
    precision = tp / (tp + fp)
    recall = tp / n_pos
    denom = np.maximum(precision + recall, 1e-300)  # tp == 0 rows are discarded
    f1 = np.where(tp > 0, 2 * precision * recall / denom, 0.0)
    best = f1.size - 1 - int(np.argmax(f1[::-1]))   # the last maximum
    return float(f1[best]), float(thr[best]), float(precision[best]), float(recall[best])


# ---------------------------------------------------------------------------
# Affiliation metrics
# ---------------------------------------------------------------------------

def _event_distances(events: EventSet, n: int) -> np.ndarray:
    """dist(t, I) for every timestamp and event: (n_events, n)."""
    ts = np.arange(n)
    return np.stack([np.maximum(np.maximum(s - ts, ts - e), 0) for s, e in events])


def affiliation(pred: EventSet, truth: EventSet,
                timeline_len: int) -> tuple[float | None, float, float | None]:
    """Event-aware precision/recall/F1 in discrete time.

    Each timestamp belongs to the zone of its nearest truth event (ties to
    the earlier event).  Within a zone, a predicted timestamp's individual
    precision is the fraction of zone timestamps at least as far from the
    event as it is; a truth timestamp's individual recall is the analogous
    fraction for distances to the zone's predicted points.  Zone values are
    averaged (precision over zones with predictions; recall over all zones).
    """
    if not truth:
        raise DataError("affiliation requires a nonempty truth event set")
    validate_events(truth, timeline_len)
    validate_events(pred, timeline_len)
    D = _event_distances(truth, timeline_len)
    owner = np.argmin(D, axis=0)
    pred_mask = np.zeros(timeline_len, dtype=bool)
    for s, e in pred:
        pred_mask[s:e + 1] = True

    zone_precisions = []
    zone_recalls = []
    for j, (s, e) in enumerate(truth):
        zone = np.nonzero(owner == j)[0]
        dist_event = D[j, zone]                      # dist of zone points to I_j
        zone_pred = zone[pred_mask[zone]]
        if zone_pred.size:
            dp = D[j, zone_pred]
            p_vals = (dist_event[None, :] >= dp[:, None]).mean(axis=1)
            zone_precisions.append(float(p_vals.mean()))
            dist_pred = np.abs(zone[:, None] - zone_pred[None, :]).min(axis=1)
            in_event = (zone >= s) & (zone <= e)
            dy = dist_pred[in_event]
            q_vals = (dist_pred[None, :] >= dy[:, None]).mean(axis=1)
            zone_recalls.append(float(q_vals.mean()))
        else:
            zone_recalls.append(0.0)

    precision = float(np.mean(zone_precisions)) if zone_precisions else None
    recall = float(np.mean(zone_recalls))
    if precision is None:
        return None, recall, None
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------------------
# Range-AUC and VUS
# ---------------------------------------------------------------------------

def _event_distance(truth: EventSet, n: int) -> np.ndarray:
    """Each timestamp's distance to its nearest truth event (inf without events)."""
    validate_events(truth, n)
    if not truth:
        return np.full(n, np.inf)
    return _event_distances(truth, n).min(axis=0).astype(np.float64)


def _smoothed(dmin: np.ndarray, w: float) -> np.ndarray:
    """Buffer-smoothed labels of the nearest-event distances ``dmin``: 1 inside
    events, sqrt(1 - d/w) decay outside."""
    if w > 0:
        ell = np.sqrt(np.maximum(0.0, 1.0 - dmin / w))
    else:
        ell = np.zeros(dmin.shape[0])
    ell[dmin == 0] = 1.0
    return ell


def _range_areas(order, idx, ell) -> tuple[float | None, float | None]:
    """ROC and PR areas of the continuous labels ``ell`` over the threshold
    sweep given by ``_tie_groups``."""
    P = float(ell.sum())
    N = float((1.0 - ell).sum())
    if P <= 0.0 or N <= 0.0:
        return None, None
    tp, fp = _desc_threshold_sweep(order, idx, ell, 1.0 - ell)
    tpr = tp / P
    fpr = fp / N
    tpr0 = np.concatenate([[0.0], tpr])
    fpr0 = np.concatenate([[0.0], fpr])
    auc_roc = float(((fpr0[1:] - fpr0[:-1]) * 0.5 * (tpr0[1:] + tpr0[:-1])).sum())
    precision = tp / (tp + fp)
    prev = np.concatenate([[0.0], tpr[:-1]])
    auc_pr = float(((tpr - prev) * precision).sum())
    return auc_roc, auc_pr


def range_auc(scores, truth: EventSet, w: float) -> tuple[float | None, float | None]:
    """ROC and PR areas computed over buffer-smoothed continuous labels."""
    scores = np.asarray(scores, np.float64)
    if not 0 <= w < np.inf:
        raise DataError(f"buffer width must be finite and >= 0, got {w}")
    order, idx, _ = _tie_groups(scores)
    return _range_areas(order, idx, _smoothed(_event_distance(truth, scores.shape[0]), w))


def vus(scores, truth: EventSet, w_max: float,
        grid_step: float = 1.0) -> tuple[float | None, float | None]:
    """Mean range-AUC over buffer widths {0, step, 2*step, ..., w_max}.

    The event distances and the threshold sweep are the same for every
    width; only the smoothed labels change.
    """
    if not (0 <= w_max < np.inf and 0 < grid_step < np.inf):
        raise DataError(f"w_max must be finite and >= 0 and grid_step finite and > 0, "
                        f"got {w_max} and {grid_step}")
    widths = [0.0]
    while widths[-1] + grid_step <= w_max + 1e-12:
        widths.append(widths[-1] + grid_step)
    scores = np.asarray(scores, np.float64)
    dmin = _event_distance(truth, scores.shape[0])
    order, idx, _ = _tie_groups(scores)
    rocs, prs = [], []
    for w in widths:
        r, p = _range_areas(order, idx, _smoothed(dmin, w))
        if r is None:
            return None, None
        rocs.append(r)
        prs.append(p)
    return float(np.mean(rocs)), float(np.mean(prs))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    auc_roc: float | None = None
    auc_pr: float | None = None
    best_f1: float | None = None
    best_f1_threshold: float | None = None
    best_f1_precision: float | None = None
    best_f1_recall: float | None = None
    aff_precision: float | None = None
    aff_recall: float | None = None
    aff_f1: float | None = None
    r_auc_roc: float | None = None
    r_auc_pr: float | None = None
    vus_roc: float | None = None
    vus_pr: float | None = None

    def to_dict(self) -> dict:
        """Flat dict with undefined metrics omitted."""
        from dataclasses import asdict
        return {k: v for k, v in asdict(self).items() if v is not None}


METRIC_GROUPS = ("roc", "pr", "f1", "aff", "range", "vus")


def threshold_percentile(scores: np.ndarray, delta: float) -> np.ndarray:
    """Binary predictions: score strictly above the (100 - delta) percentile."""
    if not 0 < delta < 100:
        raise ConfigError("delta must be in (0, 100)")
    scores = np.asarray(scores, np.float64)
    thr = np.percentile(scores, 100.0 - delta)
    return (scores > thr).astype(np.int64)


def evaluate(scores, labels, *, point_adjust_on: bool = True, delta: float = 0.6,
             range_w: float = 10.0, vus_wmax: float = 10.0, vus_step: float = 1.0,
             metrics=METRIC_GROUPS) -> MetricReport:
    """Compute the requested metric groups for one score series.

    AUC-ROC/AUC-PR/best-F1 honor ``point_adjust_on``; affiliation thresholds
    the raw scores at the (100 - delta) percentile; range-AUC and VUS always
    use raw scores.
    """
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError(f"scores length {scores.shape} != labels length {labels.shape}")
    truth = events_from_binary(labels)
    report = MetricReport()
    adjusted = point_adjust(scores, truth) if point_adjust_on else scores

    if "roc" in metrics:
        report.auc_roc = roc_auc(adjusted, labels)
    if "pr" in metrics:
        report.auc_pr = pr_auc(adjusted, labels)
    if "f1" in metrics:
        res = best_f1(adjusted, labels)
        if res is not None:
            (report.best_f1, report.best_f1_threshold,
             report.best_f1_precision, report.best_f1_recall) = res
    if "aff" in metrics and truth:
        preds = threshold_percentile(scores, delta)
        p, r, f = affiliation(events_from_binary(preds), truth, scores.shape[0])
        report.aff_precision, report.aff_recall, report.aff_f1 = p, r, f
    if "range" in metrics:
        report.r_auc_roc, report.r_auc_pr = range_auc(scores, truth, range_w)
    if "vus" in metrics:
        report.vus_roc, report.vus_pr = vus(scores, truth, vus_wmax, vus_step)
    return report
