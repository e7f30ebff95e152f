"""Helpers that hand a batch of windows to the functions that take a series
and window starts."""

import numpy as np

from sten.training import build_sten_tape


def laid_end_to_end(batch):
    """A batch of windows (B, L, D) as one series: (values, starts) with
    window b at starts[b] = b*L, so that no two windows overlap."""
    B, L, D = np.shape(batch)
    return np.asarray(batch, np.float64).reshape(B * L, D), np.arange(B) * L


def batch_tape(phi, eta, batch, cfg):
    """build_sten_tape over a batch of windows laid end to end, which eta
    embeds for the distance branch: ((otn, dsn, total), grads)."""
    return build_sten_tape(phi, None, *laid_end_to_end(batch), cfg, eta)[:2]
