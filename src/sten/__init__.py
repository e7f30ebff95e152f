"""Spatial-temporal normality learning for multivariate time-series anomaly detection.

The pipeline: slice a series into sliding windows, split each window into
short sub-sequences, and train a GRU encoder on two pretext tasks (predicting
each sub-sequence's position in its window, and distilling pairwise window
distances from a frozen random projector).  At test time the prediction
discrepancies of both tasks become per-timestamp anomaly scores.
"""

import contextlib
import ctypes
import os
import sys

# BLAS on one thread per calling thread, unless the user set otherwise: a wide
# GRU pass runs on two threads of its own (``ndkernel``), and BLAS threads on
# top of those compete for the same cores.  numpy's BLAS reads these variables
# once, when it loads.  If numpy is loaded already and none is set, its
# bundled OpenBLAS is set to one thread through its own entry point; a BLAS
# without that entry point is left as it is.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_VARS):
    try:
        _set_threads = ctypes.CDLL(sys.modules["numpy"]._core._multiarray_umath.__file__
                                   ).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pass
    else:
        _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
        _set_threads(1)
        del _set_threads
for _var in _BLAS_VARS:
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
