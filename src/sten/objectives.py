"""Training objectives: the row-wise order-prediction divergence and its
gradient.  The distance and error-prediction losses are mean squared
residuals, formed where the branches are combined in ``training``, the
distance loss's over every ordered pair of a batch's windows.

The order loss is the symmetric sum form of the Jensen-Shannon divergence
without the conventional 1/2 factor, so its value equals twice the standard
JSD and is bounded by 2*ln(2).
"""

from __future__ import annotations

import numpy as np

LOG_EPS = 1e-12


def js_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise symmetric divergence sum(P log P/M) + sum(Q log Q/M), M=(P+Q)/2.

    Natural log, 0*log(0) = 0, probabilities floored at 1e-12 inside logs.
    Inputs are (n, c) stacks of distributions.
    """
    M = 0.5 * (P + Q)
    log_m = np.log(np.maximum(M, LOG_EPS))
    term_p = P * (np.log(np.maximum(P, LOG_EPS)) - log_m)
    term_q = Q * (np.log(np.maximum(Q, LOG_EPS)) - log_m)
    return (term_p + term_q).sum(axis=-1)


def js_rows_grad_p(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Exact gradient of js_rows w.r.t. P, matching the clamped forward."""
    M = 0.5 * (P + Q)
    Pc = np.maximum(P, LOG_EPS)
    Mc = np.maximum(M, LOG_EPS)
    grad = np.log(Pc) - np.log(Mc)
    grad += np.where(P > LOG_EPS, P / Pc, 0.0)
    grad -= np.where(M > LOG_EPS, (P + Q) / (2.0 * Mc), 0.0)
    return grad
