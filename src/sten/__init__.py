"""Spatial-temporal normality learning for multivariate time-series anomaly detection.

The pipeline: slice a series into sliding windows, split each window into
short sub-sequences, and train a GRU encoder on two pretext tasks (predicting
each sub-sequence's position in its window, and distilling pairwise window
distances from a frozen random projector).  At test time the prediction
discrepancies of both tasks become per-timestamp anomaly scores.
"""

import contextlib
import os

# BLAS on one thread per calling thread, unless the user set otherwise: a wide
# GRU pass runs on two threads of its own (``ndkernel``), and BLAS threads on
# top of those compete for the same cores.  Set before numpy loads, which reads
# these once; an import of numpy before this package leaves BLAS as it was.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"


class StenError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StenError):
    """Invalid configuration or command-line usage."""


class DataError(StenError):
    """Malformed input data, files, or shape mismatches."""


class NumericError(StenError):
    """Non-finite values encountered where finite ones are required."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path`` for writing and move it onto
    ``path`` with ``os.replace`` when the block completes.  If the block
    raises, the temporary file is removed and ``path`` keeps its old contents.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
