"""Every file the package writes goes through ``sten.atomic_write``: a write
that fails partway leaves the previous file as it was and no temporary file
behind, and a write that completes replaces it."""

import builtins
import errno

import numpy as np
import pytest

import sten
from sten.cli import _write_loss_log
from sten.networks import read_checkpoint, write_checkpoint
from sten.scoring import ScoreSeries, read_scores_csv, write_scores_csv
from sten.seqdata import MultivariateSeries, load_csv, save_csv

PREVIOUS = b"previous contents\n"


class DiskFull:
    """A file whose first write stores half of its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _scores():
    col = np.linspace(0.0, 1.0, 4)
    return ScoreSeries(scores=col, score_otn=col, score_dsn=col, coverage=np.ones(4))


WRITERS = {
    "write_checkpoint": lambda p: write_checkpoint(p, {"a": 1}, {"w": np.ones((2, 3))}),
    "write_scores_csv": lambda p: write_scores_csv(p, _scores(), labels=np.zeros(4)),
    "save_csv": lambda p: save_csv(MultivariateSeries(values=np.ones((4, 2)),
                                                      labels=np.zeros(4)), p),
    "write_loss_log": lambda p: _write_loss_log(p, [(1.0, 2.0, 3.0)] * 3),
}

READERS = {
    "write_checkpoint": read_checkpoint,
    "write_scores_csv": read_scores_csv,
    "save_csv": load_csv,
    "write_loss_log": lambda p: p.read_text(encoding="utf-8"),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, name):
    target = tmp_path / "out"
    target.write_bytes(PREVIOUS)
    monkeypatch.setattr(sten, "open", lambda *a, **k: DiskFull(builtins.open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        WRITERS[name](target)
    assert target.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("name", WRITERS)
def test_completed_write_replaces_previous_file(tmp_path, name):
    target = tmp_path / "out"
    target.write_bytes(PREVIOUS)
    WRITERS[name](target)
    assert target.read_bytes() != PREVIOUS
    READERS[name](target)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_error_inside_block_removes_temporary_file(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(PREVIOUS)
    with pytest.raises(RuntimeError):
        with sten.atomic_write(target) as fh:
            fh.write("half written")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_missing_directory_is_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        with sten.atomic_write(tmp_path / "no_such_dir" / "out") as fh:
            fh.write("x")
    assert list(tmp_path.iterdir()) == []
