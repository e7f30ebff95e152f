"""Brute-force reference implementations used to verify the fast paths.

Everything here is deliberately naive: scalar loops, O(n^2) pairwise
comparisons, dense enumerations.  Oracles stay independent of the package
code they check.
"""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from sten import DataError
from sten.evalmetrics import range_auc, validate_events
from sten.ndkernel import GruCache, GruParams, gru_backward, gru_forward, softmax
from sten.networks import branches, order_forward
from sten.objectives import js_rows, js_rows_grad_p
from sten.seqdata import stack_slices


# ---------------------------------------------------------------------------
# GRU / optimizer oracles
# ---------------------------------------------------------------------------

# The masked sigmoid and the per-gate GRU forward that the stacked-gate
# kernel replaced; kept as exactness references for it.

def sigmoid_masked(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid exp overflow on large |x|.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_forward_unfused(X: np.ndarray, p: GruParams, want_cache: bool = False):
    """Batched GRU over X of shape (B, T, d_in), zero initial hidden state.

    Returns the final hidden states (B, d_model), and with ``want_cache``
    also a GruCache for gru_backward.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[1] < 1:
        raise DataError(f"expected (B, T, d_in) with T >= 1, got shape {X.shape}")
    if X.shape[2] != p.d_in:
        raise DataError(f"input dim {X.shape[2]} != GRU d_in {p.d_in}")
    B, T, _ = X.shape
    d = p.d_model
    W_z, W_r, W_h = np.asarray(p.W, np.float64).reshape(3, d, p.d_in)
    U_z, U_r, U_h = np.asarray(p.U, np.float64).reshape(3, d, d)
    b_z, b_r, b_h = np.asarray(p.b, np.float64).reshape(3, d)

    # Input projections for all steps at once.
    AZx = X @ W_z.T + b_z
    ARx = X @ W_r.T + b_r
    AHx = X @ W_h.T + b_h

    H = np.zeros((B, d))
    H_prev = np.empty((T, B, d)) if want_cache else None
    Z = np.empty((T, B, d)) if want_cache else None
    Rg = np.empty((T, B, d)) if want_cache else None
    Hbar = np.empty((T, B, d)) if want_cache else None

    for t in range(T):
        z = sigmoid_masked(AZx[:, t] + H @ U_z.T)
        r = sigmoid_masked(ARx[:, t] + H @ U_r.T)
        hbar = np.tanh(AHx[:, t] + (r * H) @ U_h.T)
        if want_cache:
            H_prev[t] = H
            Z[t] = z
            Rg[t] = r
            Hbar[t] = hbar
        H = (1.0 - z) * H + z * hbar

    return (H, GruCache(X, H_prev, Z, Rg, Hbar)) if want_cache else H


def gru_backward_serial(cache: GruCache, p: GruParams, grads, prefix: str,
                        d_h_final=None, d_h_all=None) -> None:
    """BPTT on one thread, each step's dh recurrence then its weight and bias
    gradients, every product a fresh array: the loop the pipelined
    ``gru_backward`` splits over two threads, kept as its exactness reference."""
    X = cache.X
    B, T, _ = X.shape
    d = p.d_model
    dt = np.float32 if X.dtype == np.float32 else np.float64
    U_z, U_r, U_h = np.asarray(p.U, dt).reshape(3, d, d)
    g = {n: np.zeros(grads[prefix + n].shape, dt) for n in GruParams.NAMES}
    gW_z, gW_r, gW_h = g["W"].reshape(3, d, -1)
    gU_z, gU_r, gU_h = g["U"].reshape(3, d, d)
    gb_z, gb_r, gb_h = g["b"].reshape(3, d)
    if d_h_all is not None:
        d_h_all = np.asarray(d_h_all, dt)
    dh = np.zeros((B, d), dt) if d_h_final is None else np.array(d_h_final, dtype=dt)
    for t in range(T - 1, -1, -1):
        if d_h_all is not None:
            dh = dh + d_h_all[t]
        h_prev, z, r, hbar = cache.H_prev[t], cache.Z[t], cache.R[t], cache.Hbar[t]
        x_t = X[:, t]
        dz = dh * (hbar - h_prev)
        dhbar = dh * z
        dh_prev = dh * (1.0 - z)
        da_h = dhbar * (1.0 - hbar * hbar)
        gW_h += da_h.T @ x_t
        gU_h += da_h.T @ (r * h_prev)
        gb_h += da_h.sum(axis=0)
        drh = da_h @ U_h
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da_r = dr * r * (1.0 - r)
        gW_r += da_r.T @ x_t
        gU_r += da_r.T @ h_prev
        gb_r += da_r.sum(axis=0)
        dh_prev = dh_prev + da_r @ U_r
        da_z = dz * z * (1.0 - z)
        gW_z += da_z.T @ x_t
        gU_z += da_z.T @ h_prev
        gb_z += da_z.sum(axis=0)
        dh = dh_prev + da_z @ U_z
    for n in GruParams.NAMES:
        grads[prefix + n] += g[n]


def gru_step_scalar(x, h_prev, p):
    """Scalar transcription of the gate equations, one coordinate at a time."""
    d = len(h_prev)
    d_in = len(x)

    def dot_row(M, v):
        return [sum(float(M[i][j]) * float(v[j]) for j in range(len(v)))
                for i in range(M.shape[0])]

    W_z, W_r, W_h = p.W.reshape(3, d, d_in)
    U_z, U_r, U_h = p.U.reshape(3, d, d)
    b_z, b_r, b_h = p.b.reshape(3, d)
    az = dot_row(W_z, x)
    ar = dot_row(W_r, x)
    ah = dot_row(W_h, x)
    uz = dot_row(U_z, h_prev)
    ur = dot_row(U_r, h_prev)
    out = []
    z = [1.0 / (1.0 + math.exp(-(az[i] + uz[i] + float(b_z[i])))) for i in range(d)]
    r = [1.0 / (1.0 + math.exp(-(ar[i] + ur[i] + float(b_r[i])))) for i in range(d)]
    rh = [r[i] * float(h_prev[i]) for i in range(d)]
    uh = dot_row(U_h, rh)
    for i in range(d):
        hbar = math.tanh(ah[i] + uh[i] + float(b_h[i]))
        out.append((1.0 - z[i]) * float(h_prev[i]) + z[i] * hbar)
    return np.asarray(out)


def gru_encode_unrolled(seq, p):
    h = np.zeros(p.d_model)
    for t in range(seq.shape[0]):
        h = gru_step_scalar(seq[t], h, p)
    return h


def finite_diff_grad(f, params, h=1e-5):
    """Central-difference gradient estimate of a deterministic scalar function.

    Evaluates (f(p + h*e_i) - f(p - h*e_i)) / (2h) per coordinate in float64.
    """
    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    grads = {k: np.zeros(v.shape) for k, v in work.items()}
    for name, arr in work.items():
        gflat = grads[name]
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + h
            fp = float(f(work))
            arr.flat[i] = orig - h
            fm = float(f(work))
            arr.flat[i] = orig
            gflat.flat[i] = (fp - fm) / (2.0 * h)
    return grads


def adam_scalar_steps(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Hand-rolled Adam recurrence on one scalar parameter; grads is a list."""
    m = v = 0.0
    t = 0
    for g in grads:
        t += 1
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        theta = theta - lr * mhat / (math.sqrt(vhat) + eps)
    return theta


# ---------------------------------------------------------------------------
# Loss oracles
# ---------------------------------------------------------------------------

def js_direct(p, q, eps=1e-12):
    """Direct 64-bit evaluation of the symmetric divergence sum."""
    total = 0.0
    for pi, qi in zip(p, q):
        mi = 0.5 * (pi + qi)
        total += pi * (math.log(max(pi, eps)) - math.log(max(mi, eps)))
        total += qi * (math.log(max(qi, eps)) - math.log(max(mi, eps)))
    return total


# ---------------------------------------------------------------------------
# Order-branch oracles
# ---------------------------------------------------------------------------

def gather_subsequences(batch, m, l, r):
    """Sub-sequences of each window in true order: (B, L, D) -> (B*m, l, D).

    Slot s of window b holds the length-l sub-sequence at offset ``s * r``.
    """
    B, L, D = batch.shape
    if l + (m - 1) * r != L:
        raise DataError(
            f"sub-sequence layout mismatch: l + (m-1)*r = {l + (m - 1) * r} != L = {L}")
    idx = np.arange(m)[:, None] * r + np.arange(l)                   # (m, l)
    return batch[:, idx].reshape(B * m, l, D)


def order_forward_per_slot(phi, batch, l, r):
    """The order head with every slot's sub-sequence encoded on its own, the
    form the package used before it encoded each distinct sub-sequence once.

    ``batch`` is (B, L, D).  Returns (P, Y, H), rows b*m + i for slot i of
    window b.
    """
    m = len(phi["order_head.b"])
    X = gather_subsequences(np.asarray(batch, np.float64), m, l, r)
    H = gru_forward(X, GruParams.from_dict(phi, "gru."))
    P = softmax(H @ np.asarray(phi["order_head.W"], np.float64).T
                + np.asarray(phi["order_head.b"], np.float64))
    return P, np.tile(np.eye(m), (len(batch), 1)), H


def order_loss_presented(phi, batch, perms, l, r):
    """Order loss and its gradients with each window's sub-sequences presented
    shuffled: slot s of window b holds the sub-sequence at true position
    ``perms[b, s]`` and is labelled with it.

    The order branch once trained on this form.  Its head encodes each
    sub-sequence on its own, so ``perms`` only reorders the rows of the
    position distributions and labels; this is the reference that shows it.
    Returns (loss, grads), grads keyed like ``phi``.
    """
    B, _, D = batch.shape
    m = perms.shape[1]
    idx = perms[:, :, None] * r + np.arange(l)                        # (B, m, l)
    X = np.asarray(batch, np.float64)[np.arange(B)[:, None, None], idx].reshape(B * m, l, D)
    gru = GruParams.from_dict(phi, "gru.")
    H, cache = gru_forward(X, gru, want_cache=True)
    W = np.asarray(phi["order_head.W"], np.float64)
    P = softmax(H @ W.T + np.asarray(phi["order_head.b"], np.float64))
    Y = np.zeros_like(P)
    Y[np.arange(B * m), perms.reshape(-1)] = 1.0
    dP = js_rows_grad_p(P, Y) * (1.0 / (B * m))
    dlogits = P * (dP - (dP * P).sum(axis=1, keepdims=True))
    grads = {k: np.zeros(v.shape) for k, v in phi.items()}
    grads["order_head.W"] += dlogits.T @ H
    grads["order_head.b"] += dlogits.sum(axis=0)
    gru_backward(cache, gru, grads, "gru.", d_h_final=dlogits @ W)
    return float(js_rows(P, Y).mean()), grads


def dsn_all_pairs_loop(E, F):
    """The distance loss of a batch and its gradient w.r.t. E, one ordered
    pair i != j at a time in float64: the mean of r_ij^2 with
    r_ij = <e_i, e_j> - <f_i, f_j>, and each pair's 2 r_ij e_j added to row i
    and 2 r_ij e_i to row j."""
    E, F = np.asarray(E, np.float64), np.asarray(F, np.float64)
    B = len(E)
    if B < 2:
        raise DataError("the distance loss needs >= 2 windows")
    total, dE = 0.0, np.zeros_like(E)
    for i in range(B):
        for j in range(B):
            if i != j:
                r = float(E[i] @ E[j]) - float(F[i] @ F[j])
                total += r * r
                dE[i] += 2.0 * r * E[j]
                dE[j] += 2.0 * r * E[i]
    n = B * (B - 1)
    return total / n, dE / n


def dsn_oracle(phi, eta, batch):
    """The distance loss of a batch of windows, each embedded by stepping
    phi's GRU and eta one timestamp at a time."""
    gru = GruParams.from_dict(phi, "gru.")
    E = [gru_encode_unrolled(w, gru) for w in batch]
    F = [gru_encode_unrolled(w, eta) for w in batch]
    return dsn_all_pairs_loop(E, F)[0]


def ep_residuals_per_row(cache, phi, X):
    """The error-prediction head over the states h_1 .. h_{L-1} that a GRU
    pass's cache holds, one row's vector-matrix product at a time.

    Returns those states as float64 (L-1, B, d_model) and the one-step-ahead
    residuals (L-1, B, D) of the windows X.
    """
    H_in = cache.H_prev[1:].astype(np.float64)
    W_e = np.asarray(phi["ep_head.W"], np.float64)
    preds = np.array([[h @ W_e.T for h in H_t] for H_t in H_in])
    return H_in, (preds + np.asarray(phi["ep_head.b"], np.float64)
                  - np.transpose(X[:, 1:], (1, 0, 2)))


def dsn_plus_ep_tape_two_pass(phi, F, values, starts, cfg):
    """The dsn_plus_ep training step, with phi's GRU run twice over the
    windows: once for the error-prediction branch and once more for the
    distance branch, the form the package used before the distance branch
    read the error-prediction pass.

    Takes the arguments of ``training.build_sten_tape`` and returns what it
    does, ((otn, dsn, total), grads), from the same head gradients and one
    BPTT per branch where the package sums both branches' upstream gradients
    into one.  Its distance loss is ``dsn_all_pairs_loop``'s: the
    error-prediction loss agrees bit for bit, the distance loss and the
    gradients within the sum-order rounding the tests name.
    """
    # The windows keep the series' dtype: the GRU computes in it.
    X = np.asarray(values)[np.asarray(starts)[:, None] + np.arange(cfg.L)]
    gru = GruParams.from_dict(phi, "gru.")
    W_e = np.asarray(phi["ep_head.W"], np.float64)
    _, cache_ep = gru_forward(X, gru, want_cache=True)
    H_in, resid = ep_residuals_per_row(cache_ep, phi, X)
    E, cache_d = gru_forward(X, gru, want_cache=True)
    dsn, dE = dsn_all_pairs_loop(E, F)

    grads = {k: np.zeros(v.shape) for k, v in phi.items()}
    dpred = resid * (2.0 / resid.size)
    grads["ep_head.W"] += np.einsum("tbo,tbh->oh", dpred, H_in)
    grads["ep_head.b"] += dpred.sum(axis=(0, 1))
    d_h_all = np.zeros(cache_ep.H_prev.shape)
    d_h_all[:-1] = dpred @ W_e
    gru_backward(cache_d, gru, grads, "gru.", d_h_final=cfg.alpha * dE)
    gru_backward(cache_ep, gru, grads, "gru.", d_h_all=d_h_all)

    otn = float(np.mean(resid ** 2))
    return (otn, dsn, otn + cfg.alpha * dsn), grads


def build_sten_tape_closures(phi, F, values, starts, cfg):
    """``training.build_sten_tape`` in the form that formed each branch's
    head gradients and its GRU pass's upstream gradient in a backward of
    its own, run as soon as the branch's forward is done, with the distance
    loss of ``dsn_all_pairs_loop``.  The package forms all upstream
    gradients before any BPTT; without the distance branch the sums are the
    same, so loss and gradients must agree bit for bit.  With it they agree
    up to the sum order: the package sums the pairs by GEMMs and, in
    dsn_plus_ep, runs one BPTT for this form's two.  Returns
    ((otn, dsn, total), grads).
    """
    use_otn, use_ep, use_dsn = branches(cfg.mode, cfg.alpha)
    grads = {k: np.zeros(v.shape) for k, v in phi.items()}
    gru = GruParams.from_dict(phi, "gru.")
    otn_val = 0.0
    dsn_val = 0.0
    if use_ep or use_dsn:
        batch = stack_slices(values, starts, cfg.L)

    if use_otn:
        P, Y, H, inv, cache = order_forward(phi, values, starts, cfg.l, cfg.r, want_cache=True)
        otn_val = float(js_rows(P, Y).mean())
        W_o = np.asarray(phi["order_head.W"], np.float64)
        dP = js_rows_grad_p(P, Y) * (1.0 / P.shape[0])
        dlogits = P * (dP - (dP * P).sum(axis=1, keepdims=True))
        grads["order_head.W"] += dlogits.T @ H
        grads["order_head.b"] += dlogits.sum(axis=0)
        # Each distinct sub-sequence collects the gradient of every slot it fills.
        dH = np.zeros((cache.X.shape[0], H.shape[1]))
        np.add.at(dH, inv, dlogits @ W_o)
        gru_backward(cache, gru, grads, "gru.", d_h_final=dH)

    if use_ep:
        H_ep, cache_ep = gru_forward(batch, gru, want_cache=True)
        H_in, resid = ep_residuals_per_row(cache_ep, phi, batch)
        otn_val = float(np.mean(resid ** 2))  # temporal slot of the breakdown
        W_e = np.asarray(phi["ep_head.W"], np.float64)
        dpred = resid * (2.0 / resid.size)
        grads["ep_head.W"] += np.einsum("tbo,tbh->oh", dpred, H_in)
        grads["ep_head.b"] += dpred.sum(axis=(0, 1))
        d_h_all = np.zeros(cache_ep.H_prev.shape)
        d_h_all[:-1] = dpred @ W_e
        gru_backward(cache_ep, gru, grads, "gru.", d_h_all=d_h_all)

    if use_dsn:
        if F is None:
            raise DataError("distance branch requires eta's embeddings")
        E, cache_d = (H_ep, cache_ep) if use_ep else gru_forward(batch, gru, want_cache=True)
        dsn_val, dE = dsn_all_pairs_loop(E, F)
        # d(total)/d(dsn) = alpha in every mode that trains the branch.
        gru_backward(cache_d, gru, grads, "gru.", d_h_final=cfg.alpha * dE)

    return (otn_val, dsn_val, otn_val + cfg.alpha * dsn_val), grads


# ---------------------------------------------------------------------------
# Metric oracles
# ---------------------------------------------------------------------------

def roc_pairwise(scores, labels):
    """O(n^2) Mann-Whitney: P(pos > neg) with ties counted 1/2."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def _threshold_stats(scores, labels, thr):
    tp = fp = fn = 0
    for s, y in zip(scores, labels):
        pred = s >= thr
        if pred and y:
            tp += 1
        elif pred and not y:
            fp += 1
        elif not pred and y:
            fn += 1
    return tp, fp, fn


def pr_threshold_enum(scores, labels):
    """Average precision by enumerating every distinct score as a threshold."""
    n_pos = sum(1 for y in labels if y)
    if n_pos == 0:
        return None
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for thr in thresholds:
        tp, fp, _ = _threshold_stats(scores, labels, thr)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def f1_threshold_enum(scores, labels):
    """Best F1 by enumeration; ties resolved toward the lower threshold."""
    n_pos = sum(1 for y in labels if y)
    if n_pos == 0:
        return None
    best = None
    for thr in sorted(set(scores), reverse=True):
        tp, fp, fn = _threshold_stats(scores, labels, thr)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / n_pos
        f1 = (2 * precision * recall / (precision + recall)) if tp else 0.0
        if best is None or f1 >= best[0]:
            best = (f1, thr, precision, recall)
    return best


# The per-timestamp loops that evalmetrics replaced with array forms; kept as
# exactness references for them.

def events_from_binary_loop(labels):
    """Maximal runs of 1s as inclusive (start, end) intervals, one step at a time."""
    events = []
    start = None
    for t, v in enumerate(np.asarray(labels).astype(bool)):
        if v and start is None:
            start = t
        elif not v and start is not None:
            events.append((start, t - 1))
            start = None
    if start is not None:
        events.append((start, len(labels) - 1))
    return events


def roc_auc_tie_loop(scores, labels):
    """Rank-sum AUC-ROC whose tie groups are walked one group at a time."""
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    pos_rank_sum = float(ranks[labels].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def best_f1_argmax_loop(scores, labels):
    """Best F1 over the descending threshold sweep; a loop keeps the last maximum."""
    scores = np.asarray(scores, np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = float(labels.sum())
    if n_pos == 0:
        return None
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    tp = np.cumsum(labels[order].astype(np.float64))
    fp = np.cumsum((~labels[order]).astype(np.float64))
    idx = np.concatenate([np.nonzero(np.diff(s))[0], [s.size - 1]])
    tp, fp, thr = tp[idx], fp[idx], s[idx]
    precision = tp / (tp + fp)
    recall = tp / n_pos
    denom = np.maximum(precision + recall, 1e-300)
    f1 = np.where(tp > 0, 2 * precision * recall / denom, 0.0)
    best = 0
    for k in range(1, f1.size):
        if f1[k] >= f1[best]:
            best = k
    return float(f1[best]), float(thr[best]), float(precision[best]), float(recall[best])


def point_adjust_scan(scores, segments):
    """Naive per-segment max scan."""
    out = list(scores)
    for s, e in segments:
        mx = max(scores[s:e + 1])
        for t in range(s, e + 1):
            out[t] = mx
    return np.asarray(out)


def dist_to_event(t, event):
    s, e = event
    if s <= t <= e:
        return 0
    return s - t if t < s else t - e


def smooth_labels_dense(events, n, w):
    ell = np.zeros(n)
    for t in range(n):
        best = 0.0
        for ev in events:
            d = dist_to_event(t, ev)
            if d == 0:
                best = max(best, 1.0)
            elif w > 0:
                best = max(best, math.sqrt(max(0.0, 1.0 - d / w)))
        ell[t] = best
    return ell


def range_auc_dense(scores, events, w):
    """Dense threshold enumeration of the smoothed-label ROC and PR areas."""
    n = len(scores)
    ell = smooth_labels_dense(events, n, w)
    P = float(ell.sum())
    N = float((1.0 - ell).sum())
    if P <= 0 or N <= 0:
        return None, None
    points = []
    for thr in sorted(set(scores), reverse=True):
        mask = np.asarray(scores) >= thr
        tp = float(ell[mask].sum())
        fp = float((1.0 - ell[mask]).sum())
        points.append((fp / N, tp / P, tp / (tp + fp)))
    roc = 0.0
    prev_fpr, prev_tpr = 0.0, 0.0
    for fpr, tpr, _ in points:
        roc += (fpr - prev_fpr) * 0.5 * (tpr + prev_tpr)
        prev_fpr, prev_tpr = fpr, tpr
    pr = 0.0
    prev_recall = 0.0
    for _, recall, precision in points:
        pr += (recall - prev_recall) * precision
        prev_recall = recall
    return roc, pr


def width_grid(w_max, grid_step):
    """The VUS buffer widths i * grid_step, for i = 0, 1, ... while within w_max."""
    widths = []
    while len(widths) * grid_step <= w_max + 1e-12:
        widths.append(len(widths) * grid_step)
    return widths


def vus_per_width(scores, truth, w_max, grid_step=1.0):
    """VUS as one range_auc call per buffer width, each rebuilding the event
    distances and the threshold sweep."""
    widths = width_grid(w_max, grid_step)
    rocs, prs = [], []
    for w in widths:
        r, p = range_auc(scores, truth, w)
        if r is None:
            return None, None
        rocs.append(r)
        prs.append(p)
    return float(np.mean(rocs)), float(np.mean(prs))


def affiliation_enum(pred_events, truth_events, n):
    """Zone-by-zone enumeration of the discrete affiliation construction."""
    pred_pts = set()
    for s, e in pred_events:
        pred_pts.update(range(s, e + 1))

    def owner_of(t):
        best_j, best_d = 0, None
        for j, ev in enumerate(truth_events):
            d = dist_to_event(t, ev)
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        return best_j

    zones = {j: [] for j in range(len(truth_events))}
    for t in range(n):
        zones[owner_of(t)].append(t)

    zone_precisions = []
    zone_recalls = []
    for j, ev in enumerate(truth_events):
        zone = zones[j]
        zone_pred = [t for t in zone if t in pred_pts]
        if zone_pred:
            p_vals = []
            for t in zone_pred:
                dt = dist_to_event(t, ev)
                p_vals.append(sum(1 for x in zone if dist_to_event(x, ev) >= dt) / len(zone))
            zone_precisions.append(sum(p_vals) / len(p_vals))

            def dist_pred(x):
                return min(abs(x - p) for p in zone_pred)

            q_vals = []
            for y in range(ev[0], ev[1] + 1):
                dy = dist_pred(y)
                q_vals.append(sum(1 for x in zone if dist_pred(x) >= dy) / len(zone))
            zone_recalls.append(sum(q_vals) / len(q_vals))
        else:
            zone_recalls.append(0.0)

    precision = sum(zone_precisions) / len(zone_precisions) if zone_precisions else None
    recall = sum(zone_recalls) / len(zone_recalls)
    if precision is None:
        return None, recall, None
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


# The (events x timestamps) distance-matrix forms and the trapezoid ROC of
# normalised rates that evalmetrics replaced with the nearest-event map and
# the count-form ROC; kept as exactness references for them.

def event_distances_matrix(events, n):
    """dist(t, I) for every timestamp and event: (n_events, n)."""
    ts = np.arange(n)
    return np.stack([np.maximum(np.maximum(s - ts, ts - e), 0) for s, e in events])


def affiliation_matrix(pred, truth, timeline_len):
    """Affiliation with zones from the argmin of the distance matrix and
    per-zone (|zone preds| x |zone|) comparison matrices."""
    if not truth:
        raise DataError("affiliation requires a nonempty truth event set")
    validate_events(truth, timeline_len)
    validate_events(pred, timeline_len)
    D = event_distances_matrix(truth, timeline_len)
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


def range_areas_matrix(scores, truth, widths):
    """(ROC, PR) at each buffer width, from the distance matrix's minimum and
    the ROC as a trapezoid over normalised rates; (None, None) where a width
    has no positive or no negative mass."""
    scores = np.asarray(scores, np.float64)
    n = scores.shape[0]
    dmin = (event_distances_matrix(truth, n).min(axis=0).astype(np.float64) if truth
            else np.full(n, np.inf))
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    idx = np.concatenate([np.nonzero(np.diff(s))[0], [s.size - 1]])
    out = []
    for w in widths:
        ell = np.sqrt(np.maximum(0.0, 1.0 - dmin / w)) if w > 0 else np.zeros(n)
        ell[dmin == 0] = 1.0
        P = float(ell.sum())
        N = float((1.0 - ell).sum())
        if P <= 0.0 or N <= 0.0:
            out.append((None, None))
            continue
        tp, fp = np.cumsum(ell[order])[idx], np.cumsum((1.0 - ell)[order])[idx]
        tpr = tp / P
        fpr = fp / N
        tpr0 = np.concatenate([[0.0], tpr])
        fpr0 = np.concatenate([[0.0], fpr])
        auc_roc = float(((fpr0[1:] - fpr0[:-1]) * 0.5 * (tpr0[1:] + tpr0[:-1])).sum())
        precision = tp / (tp + fp)
        prev = np.concatenate([[0.0], tpr[:-1]])
        auc_pr = float(((tpr - prev) * precision).sum())
        out.append((auc_roc, auc_pr))
    return out


def vus_matrix(scores, truth, w_max, grid_step=1.0):
    """VUS as the mean of ``range_areas_matrix`` over the width grid."""
    widths = width_grid(w_max, grid_step)
    areas = range_areas_matrix(scores, truth, widths)
    if any(r is None for r, _ in areas):
        return None, None
    rocs, prs = zip(*areas)
    return float(np.mean(rocs)), float(np.mean(prs))


def sample_pairs_loop(n_windows, rng, k):
    """Reference pairs drawn one partner at a time: j != i, uniform."""
    pairs = []
    for i in range(n_windows):
        for _ in range(k):
            j = int(rng.integers(0, n_windows - 1))
            if j >= i:
                j += 1
            pairs.append((i, j))
    return pairs


def aggregate_dense(slots, n):
    """Per-timestamp mean, accumulated one timestamp of one slot at a time."""
    total, count = [0.0] * n, [0] * n
    for start, length, value in slots:
        for t in range(start, start + length):
            total[t] += value
            count[t] += 1
    return np.asarray([s / c for s, c in zip(total, count)]), np.asarray(count)


# ---------------------------------------------------------------------------
# Scoring oracle
# ---------------------------------------------------------------------------

def _dot(row, v):
    return sum(float(a) * float(b) for a, b in zip(row, v))


def _softmax_scalar(logits):
    mx = max(logits)
    e = [math.exp(x - mx) for x in logits]
    total = sum(e)
    return [x / total for x in e]


def distance_scores_gram(E, F):
    """Each window's distance score from the n x n Gram difference
    E E^T - F F^T, diagonal removed: the mean over the other windows of the
    squared entries of its row.  Exact: every sum is of Fractions, rounded
    to float once at the end."""
    E = [[Fraction(float(x)) for x in row] for row in E]
    F = [[Fraction(float(x)) for x in row] for row in F]
    n = len(E)

    def gram(A, i, j):
        return sum((a * b for a, b in zip(A[i], A[j])), Fraction(0))

    return np.array([float(sum(((gram(E, i, j) - gram(F, i, j)) ** 2
                                for j in range(n) if j != i), Fraction(0)) / (n - 1))
                     for i in range(n)])


def score_series_dense(model, test, cfg):
    """Per-window loop reference of the scoring pipeline.

    Returns (scores, score_otn, score_dsn).  A window's distance score is the
    mean over every other test window.
    """
    tc, phi, eta = model.config, model.phi, model.eta
    gru = GruParams.from_dict(phi, "gru.")
    mean = np.asarray(model.stats.mean, np.float64)
    std = np.maximum(np.asarray(model.stats.std, np.float64), 1e-8)
    X = (np.asarray(test.values, np.float64) - mean) / std
    n = X.shape[0]
    starts = list(range(0, n - tc.L + 1, cfg.R_test))
    if starts[-1] + tc.L < n:
        starts.append(n - tc.L)
    windows = [X[s:s + tc.L] for s in starts]
    subseqs = [(i * tc.r, i * tc.r + tc.l) for i in range(tc.m)]

    temporal = []
    for w in windows:
        if tc.mode in ("full", "otn_only"):
            nums, divs = [], []
            for i, (lo, hi) in enumerate(subseqs):
                h = gru_encode_unrolled(w[lo:hi], gru)
                p = _softmax_scalar([_dot(phi["order_head.W"][k], h)
                                     + float(phi["order_head.b"][k])
                                     for k in range(tc.m)])
                y = [1.0 if k == i else 0.0 for k in range(tc.m)]
                nums.append(sum(abs(pk - yk) for pk, yk in zip(p, y)))
                divs.append(js_direct(p, y))
            den = sum(divs) / len(divs) + 1e-8  # scoring.SCORE_EPS
            temporal.append([num / den for num in nums])
        elif tc.mode == "dsn_plus_ep":
            err = {}
            h = np.zeros(tc.d_model)
            for t in range(tc.L - 1):
                h = gru_step_scalar(w[t], h, gru)
                sq = [(_dot(phi["ep_head.W"][o], h) + float(phi["ep_head.b"][o])
                       - float(w[t + 1][o])) ** 2
                      for o in range(w.shape[1])]
                err[t + 1] = sum(sq) / len(sq)
            row = []
            for lo, hi in subseqs:
                ts = [t for t in range(lo, hi) if t >= 1]
                row.append(sum(err[t] for t in ts) / len(ts) if ts else 0.0)
            temporal.append(row)
        else:
            temporal.append([0.0] * tc.m)

    dsn = [0.0] * len(windows)
    if tc.mode != "otn_only" and not (tc.mode == "full" and tc.alpha == 0):
        e = [gru_encode_unrolled(w, gru) for w in windows]
        f = [gru_encode_unrolled(w, eta) for w in windows]
        dsn = [sum((_dot(e[i], e[j]) - _dot(f[i], f[j])) ** 2
                   for j in range(len(windows)) if j != i) / (len(windows) - 1)
               for i in range(len(windows))]

    def column(values):
        slots = [(s + lo, tc.l, values(wi, i))
                 for wi, s in enumerate(starts) for i, (lo, _) in enumerate(subseqs)]
        return aggregate_dense(slots, n)[0]

    otn_col = column(lambda wi, i: temporal[wi][i])
    dsn_col = column(lambda wi, i: dsn[wi])
    return otn_col + cfg.beta * dsn_col, otn_col, dsn_col


# ---------------------------------------------------------------------------
# CSV table oracles
# ---------------------------------------------------------------------------

# The table reader and writer that every CSV went through before blocks were
# parsed by np.loadtxt and formatted in one pass: csv.reader rows, zipped into
# columns of str that numpy parses, and csv.writer rows of Python values.

def csv_read_table(path, select, block_rows):
    """``seqdata.read_table`` through csv.reader, ``block_rows`` rows at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = ((row, reader.line_num) for row in reader if row)
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: empty file")
        header = [c.strip() for c in first[0]]
        if len(set(header)) < len(header):
            twice = next(c for i, c in enumerate(header) if c in header[:i])
            raise DataError(f"{path}: the header names column {twice!r} twice")
        block = list(itertools.islice(rows, block_rows))
        if not block:
            raise DataError(f"{path}: no data rows after header")
        columns, parts = None, None
        while block:
            cells, lines = zip(*block)
            widths = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
            ragged = np.flatnonzero(widths != len(header))
            if ragged.size:
                i = ragged[0]
                raise DataError(f"{path}: line {lines[i]}: expected {len(header)} columns, "
                                f"got {widths[i]}")
            if columns is None:
                columns = select(header)
                parts = {name: [] for name, _, _ in columns}
            cols = list(zip(*cells))
            for name, index, kind in columns:
                text = [cols[j] for j in index] if isinstance(index, list) else cols[index]
                parts[name].append(_csv_parse_column(path, name, text, lines, kind))
            block = list(itertools.islice(rows, block_rows))
    return header, {name: np.concatenate([part.T for part in parts[name]])
                    for name, _, _ in columns}


def _csv_reject(path, lines, cells, bad, what):
    at = np.flatnonzero(np.transpose(bad))
    if at.size:
        text = np.transpose(np.asarray(cells, dtype=object))
        line = lines[at[0] // (text.size // len(lines))]
        raise DataError(f"{path}: line {line}: {what} {text.flat[at[0]].strip()!r}")


def _csv_parses(cell, dtype):
    try:
        np.asarray(cell, dtype=dtype)
    except ValueError:
        return False
    return True


def _csv_parse_column(path, name, cells, lines, kind):
    if kind == "label":
        text = np.char.strip(np.asarray(cells, dtype=str))
        _csv_reject(path, lines, cells, (text != "0") & (text != "1"),
                    f"{name} must be 0 or 1, got")
        return (text == "1").astype(np.int64)
    dtype = np.float64 if kind == "float" else np.int64
    try:
        out = np.asarray(cells, dtype=dtype)
    except ValueError:
        parses = np.vectorize(lambda cell: _csv_parses(cell, dtype), otypes=[bool])
        _csv_reject(path, lines, cells, ~parses(np.asarray(cells, dtype=object)),
                    f"cannot parse {name}")
        raise
    if kind == "float":
        _csv_reject(path, lines, cells, ~np.isfinite(out), f"{name} must be finite, got")
    return out


def csv_write_table(path, header, columns, block_rows):
    """``seqdata.write_table`` through csv.writer, ``block_rows`` rows at a time."""
    columns = [np.asarray(col) for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for s in range(0, len(columns[0]) if columns else 0, block_rows):
            w.writerows(zip(*[col[s:s + block_rows].tolist() for col in columns]))
