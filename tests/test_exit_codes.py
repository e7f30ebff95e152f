"""The CLI's exit-code contract under seeded mutations of its inputs.

Each run of ``cli.main`` on a mutated input, or on a value-level edge case,
exits 0, 1 (usage), 2 (data) or 3 (numeric).  A run that fails writes one
``sten:`` line to stderr and nothing else; no run writes to stderr on
success, and no run warns.  The mutations are byte changes, deletions,
inserted CSV-like bytes and truncation, drawn from numpy's Generator, of a
training CSV, a test CSV, a checkpoint re-signed with a valid sha256 and a
scores CSV.
"""

import hashlib
import warnings

import numpy as np
import pytest

from sten.cli import main

CONFIG = """
n_train = 120
n_test = 90
seg_len_min = 3
seg_len_max = 4
dims = 2
l = 3
m = 3
r = 3
R_train = 3
R_test = 6
d_model = 4
epochs = 1
batch_size = 16
seed = 5
"""

# Bytes a mutation inserts: the characters CSV cells and numbers are made of.
CSV_BYTES = b"0123456789.,-+eE \n\r\"nainfNAIF"
MUTATIONS_PER_INPUT = 40


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("exit_codes")
    cfg = tmp / "run.cfg"
    cfg.write_text(CONFIG)
    for argv in (["synth", "--config", cfg, "--out-dir", tmp],
                 ["train", "--train", tmp / "train.csv", "--config", cfg, "--mode",
                  "dsn_plus_ep", "--out", tmp / "m.ckpt"],
                 ["score", "--model", tmp / "m.ckpt", "--test", tmp / "test.csv", "--config",
                  cfg, "--out", tmp / "s.csv"]):
        assert main([str(a) for a in argv]) == 0
    return tmp


def keeps_contract(argv, capsys) -> int:
    """Run the CLI in-process and check the contract; returns the exit code."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code)
    assert not caught, [str(w.message) for w in caught]
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("sten: "), err
    else:
        assert err == ""
    return code


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One to three byte changes, deletions, insertions or a truncation."""
    buf = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(4))
        at = int(rng.integers(len(buf) + 1))
        if kind == 0 and at < len(buf):
            buf[at] = int(rng.integers(256))
        elif kind == 1:
            del buf[at:at + int(rng.integers(1, 9))]
        elif kind == 2:
            buf[at:at] = bytes(rng.choice(list(CSV_BYTES), size=int(rng.integers(1, 6))))
        else:
            del buf[at:]
    return bytes(buf)


def resigned(data: bytes, rng: np.random.Generator) -> bytes:
    """A mutation of a checkpoint's body under a valid checksum."""
    return (body := mutate(data[:-32], rng)) + hashlib.sha256(body).digest()


def commands(tmp, bad):
    """Each mutated input and the command that reads it."""
    cfg = tmp / "run.cfg"
    return {
        "train.csv": (mutate, ["train", "--train", bad, "--config", cfg, "--out", tmp / "o.ckpt"]),
        "test.csv": (mutate, ["score", "--model", tmp / "m.ckpt", "--test", bad, "--config", cfg,
                              "--out", tmp / "o.csv"]),
        "m.ckpt": (resigned, ["score", "--model", bad, "--test", tmp / "test.csv", "--config",
                              cfg, "--out", tmp / "o.csv"]),
        "s.csv": (mutate, ["eval", "--scores", bad, "--out", tmp / "o.json"]),
    }


@pytest.mark.parametrize("seed,name", enumerate(["train.csv", "test.csv", "m.ckpt", "s.csv"]))
def test_mutated_inputs_keep_the_contract(inputs, capsys, seed, name):
    rng = np.random.default_rng(seed)
    bad = inputs / ("bad_" + name)
    how, argv = commands(inputs, bad)[name]
    original = (inputs / name).read_bytes()
    for _ in range(MUTATIONS_PER_INPUT):
        bad.write_bytes(how(original, rng))
        keeps_contract(argv, capsys)


def write_series(path, values):
    path.write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in values.tolist()))


def test_values_near_the_float64_limit_are_a_data_error(inputs, capsys):
    huge = inputs / "huge.csv"
    write_series(huge, np.random.default_rng(1).normal(size=(120, 2)) * 1e300)
    assert keeps_contract(["train", "--train", huge, "--config", inputs / "run.cfg",
                           "--out", inputs / "o.ckpt"], capsys) == 2


def test_constant_columns_train_and_score(inputs, capsys):
    flat = inputs / "flat.csv"
    write_series(flat, np.full((120, 2), 3.25))
    cfg = inputs / "run.cfg"
    assert keeps_contract(["train", "--train", flat, "--config", cfg,
                           "--out", inputs / "flat.ckpt"], capsys) == 0
    assert keeps_contract(["score", "--model", inputs / "flat.ckpt", "--test", flat,
                           "--config", cfg, "--out", inputs / "o.csv"], capsys) == 0


@pytest.mark.parametrize("mode,code", [("otn_only", 0), ("dsn_only", 2)])
def test_a_series_one_window_long(inputs, capsys, mode, code):
    """l = r = 3 and m = 3 make windows of 9 timestamps: a 9-row series has
    one, which the distance loss cannot compare with another."""
    short = inputs / "short.csv"
    write_series(short, np.random.default_rng(2).normal(size=(9, 2)))
    assert keeps_contract(["train", "--train", short, "--config", inputs / "run.cfg", "--mode",
                           mode, "--out", inputs / "o.ckpt"], capsys) == code


# --set values at the limits of their types, for keys checked before any
# array is made.  Sizes (d_model, batch_size, l, ...) are left out: a huge
# one may allocate before it fails.
TRAIN_SETS = [("lr=1e308", 3), ("lr=inf", 1), ("lr=nan", 1), ("lr=-0.0", 0),
              ("alpha=1e200", 3), ("alpha=1.7976931348623157e308", 3), ("alpha=inf", 1),
              ("alpha=-1e-300", 1), ("seed=-1", 1), ("seed=9223372036854775807", 0),
              ("epochs=0", 1), ("epochs=-9223372036854775808", 1)]
SCORE_SETS = [("beta=1.7976931348623157e308", 0), ("beta=inf", 1), ("beta=nan", 1),
              ("R_test=0", 1), ("R_test=9223372036854775807", 1)]


@pytest.mark.parametrize("setting,code", TRAIN_SETS)
def test_train_settings_at_type_limits(inputs, capsys, setting, code):
    assert keeps_contract(["train", "--train", inputs / "train.csv", "--config",
                           inputs / "run.cfg", "--set", setting,
                           "--out", inputs / "o.ckpt"], capsys) == code


def test_a_non_finite_gradient_names_its_epoch_and_batch(inputs, capsys):
    """alpha 1e40 keeps the loss finite but overflows a gradient: Adam's
    NumericError carries the step's prefix, as a non-finite loss's does."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in ["train", "--train", inputs / "train.csv", "--config",
                                      inputs / "run.cfg", "--mode", "dsn_only", "--set",
                                      "alpha=1e40", "--out", inputs / "o.ckpt"]])
    assert code == 3
    assert capsys.readouterr().err == ("sten: numeric failure: epoch 1, batch 1: "
                                       "non-finite gradient for gru.W; aborting step\n")


@pytest.mark.parametrize("setting,code", SCORE_SETS)
def test_score_settings_at_type_limits(inputs, capsys, setting, code):
    assert keeps_contract(["score", "--model", inputs / "m.ckpt", "--test", inputs / "test.csv",
                           "--config", inputs / "run.cfg", "--set", setting,
                           "--out", inputs / "o.csv"], capsys) == code
