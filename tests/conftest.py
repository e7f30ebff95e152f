import numpy as np
import pytest

from sten import training


@pytest.fixture
def float64_compute(monkeypatch):
    """Train and score with the GRU in float64, the precision of the oracles."""
    monkeypatch.setattr(training, "COMPUTE_DTYPE", np.float64)
