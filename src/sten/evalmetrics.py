"""Evaluation protocols for time-series anomaly detection: point-adjust,
AUC-ROC, AUC-PR, best F1, affiliation precision/recall/F1, range-AUC, and
volume-under-surface scores.

Events are lists of disjoint inclusive (start, end) integer intervals,
0-based.  Thresholded predictions everywhere use score >= threshold, except
the percentile rule of threshold_percentile which is strict.  Undefined
metrics (empty denominators) are reported as None, never as 0.

Every area (AUC-ROC, AUC-PR, range-AUC, VUS) is read from one descending
threshold sweep (``_sweep``) by one helper (``_areas``), given each point's
positive mass.  The sweep metrics take it as ``sweep`` when the caller has
it: ``evaluate`` sorts each distinct score series once for all of them.
Every event distance (affiliation zones, range-AUC and VUS labels) comes
from one nearest-event map (``_nearest_event``), which finds each
timestamp's event by a binary search over the midpoints between events.
Memory is O(n) in the timestamps, whatever the number of events.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


def _sweep(scores):
    """The descending stable order of ``scores`` and, in that order, the last
    index of each tie group; returns (order, idx, thresholds)."""
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    idx = np.flatnonzero(np.append(s[1:] != s[:-1], s.size > 0))
    return order, idx, s[idx]


def _areas(order, idx, pos) -> tuple[float | None, float | None]:
    """ROC and PR areas over the sweep ``order``/``idx`` of ``_sweep``, where
    ``pos`` is each point's positive mass (binary or smoothed labels).

    ROC is (pairs a positive wins + 1/2 ties) / (P*N), summed from the counts
    at each threshold: for binary labels every term is exact, so the result
    is rounded once.  AP sums (recall step) * precision.  ROC is None without
    positive or negative mass, AP without positive mass.
    """
    P, N = float(pos.sum()), float((1.0 - pos).sum())
    if P <= 0.0:
        return None, None
    tp = np.cumsum(pos[order])[idx]
    fp = np.cumsum((1.0 - pos)[order])[idx]
    tp_prev = np.concatenate([[0.0], tp[:-1]])
    twice_wins = float((np.diff(fp, prepend=0.0) * (tp_prev + tp)).sum())
    roc = twice_wins / (2.0 * P * N) if N > 0.0 else None
    recall = tp / P
    prev = np.concatenate([[0.0], recall[:-1]])
    return roc, float(((recall - prev) * (tp / (tp + fp))).sum())


def roc_auc(scores, labels) -> float | None:
    """Probability a random positive outscores a random negative; ties count 1/2."""
    scores, labels = _check_lengths(scores, labels)
    return _areas(*_sweep(scores)[:2], labels.astype(np.float64))[0]


def pr_auc(scores, labels) -> float | None:
    """Average precision over the descending-score threshold sweep."""
    scores, labels = _check_lengths(scores, labels)
    return _areas(*_sweep(scores)[:2], labels.astype(np.float64))[1]


def best_f1(scores, labels, *, sweep=None) -> tuple[float, float, float, float] | None:
    """Max F1 over thresholds at distinct scores (prediction: score >= threshold).

    Returns (f1, threshold, precision, recall); ties resolved toward the
    lower threshold.
    """
    scores, labels = _check_lengths(scores, labels)
    n_pos = float(labels.sum())
    if n_pos == 0:
        return None
    order, idx, thr = sweep or _sweep(scores)
    tp = np.cumsum(labels[order])[idx]
    precision = tp / (idx + 1)
    recall = tp / n_pos
    denom = np.maximum(precision + recall, 1e-300)  # tp == 0 rows are discarded
    f1 = np.where(tp > 0, 2 * precision * recall / denom, 0.0)
    best = f1.size - 1 - int(np.argmax(f1[::-1]))   # the last maximum
    return float(f1[best]), float(thr[best]), float(precision[best]), float(recall[best])


# ---------------------------------------------------------------------------
# Event distances: affiliation, range-AUC and VUS
# ---------------------------------------------------------------------------

def _nearest_event(events, ts) -> tuple[np.ndarray, np.ndarray]:
    """Each timestamp's nearest event (ties to the earlier) and its distance.

    The events are sorted and disjoint, so the midpoints between neighbours
    bound each event's zone: O(len(ts)) memory for any number of events.
    """
    s, e = np.asarray(events, np.int64).reshape(-1, 2).T
    owner = np.searchsorted((e[:-1] + s[1:]) // 2, ts)
    return owner, np.maximum(np.maximum(s[owner] - ts, ts - e[owner]), 0)


def _share_at_least(d, x):
    """For each value of ``x``, the share of ``d`` that is at least that value."""
    return (d.size - np.searchsorted(np.sort(d), x)) / d.size


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
    ts = np.arange(timeline_len)
    owner, dist = _nearest_event(truth, ts)
    edges = np.searchsorted(owner, np.arange(len(truth) + 1))  # zone j: edges[j]:edges[j+1]
    pred_mask = np.zeros(timeline_len, dtype=bool)
    for s, e in pred:
        pred_mask[s:e + 1] = True

    zone_precisions = []
    zone_recalls = []
    for (s, e), lo, hi in zip(truth, edges[:-1], edges[1:]):
        zone_dist, zone_pred = dist[lo:hi], pred_mask[lo:hi]
        if zone_pred.any():
            zone_precisions.append(float(_share_at_least(zone_dist, zone_dist[zone_pred]).mean()))
            d_pred = _nearest_event(events_from_binary(zone_pred), ts[:hi - lo])[1]
            zone_recalls.append(float(_share_at_least(d_pred, d_pred[s - lo:e - lo + 1]).mean()))
        else:
            zone_recalls.append(0.0)

    precision = float(np.mean(zone_precisions)) if zone_precisions else None
    recall = float(np.mean(zone_recalls))
    if precision is None:
        return None, recall, None
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _event_distance(truth: EventSet, n: int) -> np.ndarray:
    """Each timestamp's distance to its nearest truth event (inf without events)."""
    validate_events(truth, n)
    if not truth:
        return np.full(n, np.inf)
    return _nearest_event(truth, np.arange(n))[1].astype(np.float64)


def _smoothed(dmin: np.ndarray, w: float) -> np.ndarray:
    """Buffer-smoothed labels of the nearest-event distances ``dmin``: 1 inside
    events, sqrt(1 - d/w) decay outside."""
    if w > 0:
        ell = np.sqrt(np.maximum(0.0, 1.0 - dmin / w))
    else:
        ell = np.zeros(dmin.shape[0])
    ell[dmin == 0] = 1.0
    return ell


def range_auc(scores, truth: EventSet, w: float,
              *, sweep=None) -> tuple[float | None, float | None]:
    """ROC and PR areas computed over buffer-smoothed continuous labels."""
    scores = np.asarray(scores, np.float64)
    if not 0 <= w < np.inf:
        raise DataError(f"buffer width must be finite and >= 0, got {w}")
    order, idx, _ = sweep or _sweep(scores)
    roc, ap = _areas(order, idx, _smoothed(_event_distance(truth, scores.shape[0]), w))
    return (None, None) if roc is None else (roc, ap)


# The most buffer widths ``vus`` averages over: each costs one O(n) ``_areas``.
VUS_MAX_WIDTHS = 1000


def vus_widths(w_max: float, grid_step: float) -> list[float]:
    """The buffer widths {0, step, 2*step, ..., w_max} of ``vus``, each the
    one before plus ``grid_step``.

    Their number, about w_max / grid_step + 1, is checked before they are
    built: more than ``VUS_MAX_WIDTHS`` of them is a ``DataError``.
    """
    if not (0 <= w_max < np.inf and 0 < grid_step < np.inf):
        raise DataError(f"w_max must be finite and >= 0 and grid_step finite and > 0, "
                        f"got {w_max} and {grid_step}")
    if w_max + 1e-12 >= VUS_MAX_WIDTHS * grid_step:
        raise DataError(f"w_max {w_max} at grid_step {grid_step} gives more than "
                        f"{VUS_MAX_WIDTHS} buffer widths")
    widths = [0.0]
    while widths[-1] + grid_step <= w_max + 1e-12:
        widths.append(widths[-1] + grid_step)
    return widths


def vus(scores, truth: EventSet, w_max: float, grid_step: float = 1.0,
        *, sweep=None) -> tuple[float | None, float | None]:
    """Mean range-AUC over the buffer widths of ``vus_widths``.

    The event distances and the threshold sweep are the same for every
    width; only the smoothed labels change.
    """
    widths = vus_widths(w_max, grid_step)
    scores = np.asarray(scores, np.float64)
    dmin = _event_distance(truth, scores.shape[0])
    order, idx, _ = sweep or _sweep(scores)
    areas = [_areas(order, idx, _smoothed(dmin, w)) for w in widths]
    if any(roc is None for roc, _ in areas):
        return None, None
    rocs, prs = zip(*areas)
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
    use raw scores.  Each distinct series is sorted once, for every group
    that reads it: twice with point adjust, once without; AUC-ROC and AUC-PR
    are read from one ``_areas`` pass.
    """
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError(f"scores length {scores.shape} != labels length {labels.shape}")
    truth = events_from_binary(labels)
    report = MetricReport()
    adjusted = point_adjust(scores, truth) if point_adjust_on else scores
    swept = {}  # one threshold sweep per distinct series, for every group that reads it

    def sweep(series):
        return swept.get(id(series)) or swept.setdefault(id(series), _sweep(series))

    if "roc" in metrics or "pr" in metrics:
        # One pass of _areas gives both: roc_auc and pr_auc each keep one.
        roc, ap = _areas(*sweep(adjusted)[:2], labels.astype(bool).astype(np.float64))
        report.auc_roc = roc if "roc" in metrics else None
        report.auc_pr = ap if "pr" in metrics else None
    if "f1" in metrics:
        res = best_f1(adjusted, labels, sweep=sweep(adjusted))
        if res is not None:
            (report.best_f1, report.best_f1_threshold,
             report.best_f1_precision, report.best_f1_recall) = res
    if "aff" in metrics and truth:
        preds = threshold_percentile(scores, delta)
        p, r, f = affiliation(events_from_binary(preds), truth, scores.shape[0])
        report.aff_precision, report.aff_recall, report.aff_f1 = p, r, f
    if "range" in metrics:
        report.r_auc_roc, report.r_auc_pr = range_auc(scores, truth, range_w, sweep=sweep(scores))
    if "vus" in metrics:
        report.vus_roc, report.vus_pr = vus(scores, truth, vus_wmax, vus_step, sweep=sweep(scores))
    return report
