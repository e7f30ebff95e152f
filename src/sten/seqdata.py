"""Data ingestion, normalization, windowing, plus a synthetic benchmark
generator for desk-scale evaluation.

Everything is an array: a series is (N, D), and its windows (n_windows, L, D)
and sub-sequences (n, l, D) are gathered by ``stack_slices`` at their starts.
Indexing is 0-based internally; CSV outputs use 1-based timestamps.

Every CSV table the package reads goes through ``read_table`` and
``parse_column``, and every one it writes through ``write_table``: data series
here, score files in ``scoring``, loss logs and sweep tables in ``cli``.
Tables are read and written in blocks of ``TABLE_BLOCK_ROWS`` rows, so what a
table holds beyond the arrays read or written is O(block), not one string or
Python number per cell of the whole table.  Each block does its per-cell work
in C: a read is one ``np.loadtxt`` call, and a write of numbers one format
string mapped over the block's columns.  A block that ``np.loadtxt`` cannot
take as ``csv.reader`` would, or that holds a defect, is read again through
``csv.reader`` and parsed column by column, which takes what the fast call
refuses and names the first defect with its file line.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from . import ConfigError, DataError, atomic_write

STD_FLOOR = 1e-8


@dataclass
class MultivariateSeries:
    """An N x D real matrix, one row per timestamp, with optional binary labels."""

    values: np.ndarray
    labels: np.ndarray | None = None
    dim_names: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise DataError(f"series values must be (N, D) with N,D >= 1, got {self.values.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[0],):
                raise DataError(
                    f"labels length {self.labels.shape} != series length {self.values.shape[0]}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass
class NormStats:
    """Per-dimension mean/std fitted on training data (std floored at 1e-8)."""

    mean: np.ndarray
    std: np.ndarray


# ---------------------------------------------------------------------------
# CSV tables: one reader, one column parser, one writer
# ---------------------------------------------------------------------------

# Rows per block: tables are read and written this many rows at a time.
TABLE_BLOCK_ROWS = 4096

# The lines that csv.reader reads as no row at all.
_BLANK_LINES = frozenset({"\n", "\r\n", "\r"})

# Characters that np.loadtxt reads otherwise than csv.reader and numpy's
# parse of a str: a quote, which csv reads as quoting, the file, group,
# record and unit separators, which np.loadtxt strips as whitespace, and NUL,
# which a numpy text field drops from the end of a cell.  Its number parser
# also takes some non-ASCII characters as digits, so a block it reads is ASCII.
_CSV_ONLY = '"\x00\x1c\x1d\x1e\x1f'

# The width of the ASCII text field that np.loadtxt cuts an int or label cell to.
_TEXT_WIDTH = 32

# np.loadtxt field types by column kind.  Int and label cells are read as
# text and cast as ``parse_column`` casts them, never by np.loadtxt's int
# parser, whose handling of a cell such as 1.0 depends on the numpy version.
# An unselected column is only counted.
_FIELDS = {"float": "f8", "int": f"S{_TEXT_WIDTH}", "label": f"S{_TEXT_WIDTH}", None: "S1"}


def read_table(path, select) -> tuple[list[str], dict[str, np.ndarray]]:
    """The header, and the columns that ``select(header)`` names, parsed.

    ``select`` maps the header to a list of (name, index, kind): ``index`` is
    one column's position or a list of positions, ``kind`` is as in
    ``parse_column``, and ``name`` keys the result and names the column in
    errors.  Each result is (n,) for one position and (n, k) for a list.

    The file is UTF-8 text, after an optional byte order mark, read as
    ``csv.reader`` reads it.  Blank lines are skipped.  The file must hold a
    header that names each column once and at least one data row, and every
    data row must be as wide as the header.

    The data rows are parsed ``TABLE_BLOCK_ROWS`` at a time.  A block of that
    many lines is parsed by one ``np.loadtxt`` call when it is ASCII text with
    no blank line, no character of ``_CSV_ONLY`` and no line over csv's field
    limit: there, that call's C tokenizer and float parser take a subset of
    what ``csv.reader`` and ``parse_column`` take, to the same values, and
    int and label cells come out as text for ``parse_column``'s cast.  Any
    other block, or one with a cell that call refuses, a non-finite float or
    a label other than the text 0 or 1, is read again by ``csv.reader`` and
    parsed by ``parse_column``.  That path takes every cell it can and names
    the first defect with its file line, in the parse's order: within a
    block, ragged rows first, then each selected column in turn; a block's
    defect is found before a later block's, and a header that ``select``
    refuses after the first block's ragged rows.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return _read_blocks(path, fh, select)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_blocks(path, fh, select):
    first = next(_csv_rows(path, fh, 0), None)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in first[0]]
    if len(set(header)) < len(header):
        twice = next(c for i, c in enumerate(header) if c in header[:i])
        raise DataError(f"{path}: the header names column {twice!r} twice")
    try:
        columns, refused = select(header), None
    except DataError as exc:     # raised once the first block's widths are checked
        columns, refused = [], exc
    line, parts, empty = first[1], {name: [] for name, _, _ in columns}, True
    while raw := list(itertools.islice(fh, TABLE_BLOCK_ROWS)):
        block = _load_block(raw, len(header), columns)
        if block is None:
            rows = list(itertools.islice(_csv_rows(path, itertools.chain(raw, fh), line),
                                         TABLE_BLOCK_ROWS))
            if not rows:
                break
            line, block = rows[-1][1], _parse_rows(path, rows, len(header), columns)
        else:
            line += len(raw)
        if refused is not None:
            raise refused
        for name, col in block.items():
            parts[name].append(col)
        empty = False
    if empty:
        raise DataError(f"{path}: no data rows after header")
    return header, {name: np.concatenate(parts[name]) for name, _, _ in columns}


def _csv_rows(path, lines, start: int):
    """Each non-blank ``csv.reader`` row of ``lines`` and the file line it
    ends on, the first of ``lines`` being file line ``start + 1``.  A csv
    error, such as a cell over the field limit, is a DataError naming its line.
    """
    reader = csv.reader(lines)
    try:
        for row in reader:
            if row:
                yield row, start + reader.line_num
    except csv.Error as exc:
        raise DataError(f"{path}: line {start + reader.line_num}: {exc}") from None


def _load_block(raw: list[str], width: int, columns) -> dict[str, np.ndarray] | None:
    """The selected columns of the rows that the lines ``raw`` hold, from one
    ``np.loadtxt`` call, or None for a block that ``_parse_rows`` must read."""
    text = "".join(raw)
    if (not text.isascii() or any(c in text for c in _CSV_ONLY)
            or not _BLANK_LINES.isdisjoint(raw) or max(map(len, raw)) > csv.field_size_limit()):
        return None
    kinds = {j: kind for _, index, kind in columns
             for j in (index if isinstance(index, list) else [index])}
    try:
        table = np.loadtxt(raw, dtype=[(f"c{j}", _FIELDS[kinds.get(j)]) for j in range(width)],
                           delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None      # a ragged row or a cell np.loadtxt refuses
    block = {}
    for name, index, kind in columns:
        col = (np.stack([table[f"c{j}"] for j in index], axis=1) if isinstance(index, list)
               else table[f"c{index}"])
        if kind == "float":
            if not np.isfinite(col).all():
                return None
        elif np.char.str_len(col).max() >= _TEXT_WIDTH:
            return None  # a cell np.loadtxt may have cut
        elif kind == "label":
            if not ((col == b"0") | (col == b"1")).all():
                return None
            col = (col == b"1").astype(np.int64)
        else:
            try:
                col = col.astype(np.int64)
            except (ValueError, OverflowError):
                return None
        block[name] = np.ascontiguousarray(col)   # a float field's view would keep the table
    return block


def _parse_rows(path, rows, width: int, columns) -> dict[str, np.ndarray]:
    """The selected columns of ``rows``, (csv cells, file line) pairs, parsed
    by ``parse_column``; the first defect is a DataError naming its line."""
    cells, lines = zip(*rows)
    widths = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    ragged = np.flatnonzero(widths != width)
    if ragged.size:
        i = ragged[0]
        raise DataError(f"{path}: line {lines[i]}: expected {width} columns, got {widths[i]}")
    cols = list(zip(*cells))
    return {name: parse_column(path, name, [cols[j] for j in index] if isinstance(index, list)
                               else cols[index], lines, kind).T
            for name, index, kind in columns}


def _reject(path, lines, cells, bad: np.ndarray, what: str) -> None:
    """A DataError naming the first cell, in file order, where ``bad`` is set."""
    at = np.flatnonzero(np.transpose(bad))
    if at.size:
        text = np.transpose(np.asarray(cells, dtype=object))   # rows in file order
        line = lines[at[0] // (text.size // len(lines))]
        raise DataError(f"{path}: line {line}: {what} {text.flat[at[0]].strip()!r}")


def _parses(cell: str, dtype) -> bool:
    try:
        np.asarray(cell, dtype=dtype)
    except (ValueError, OverflowError):
        return False
    return True


def parse_column(path, name: str, cells, lines, kind: str = "float") -> np.ndarray:
    """The cells of one column, or a list of columns, of one block of rows,
    parsed by numpy as ``kind``: "float" (every value finite), "int", or
    "label" (the cell, stripped, is 0 or 1).  ``lines`` are the rows' file
    lines; the first bad cell is a DataError naming its line.
    """
    if kind == "label":
        text = np.char.strip(np.asarray(cells, dtype=str))
        _reject(path, lines, cells, (text != "0") & (text != "1"),
                f"{name} must be 0 or 1, got")
        return (text == "1").astype(np.int64)
    dtype = np.float64 if kind == "float" else np.int64
    try:
        out = np.asarray(cells, dtype=dtype)
    except (ValueError, OverflowError):
        parses = np.vectorize(lambda cell: _parses(cell, dtype), otypes=[bool])
        _reject(path, lines, cells, ~parses(np.asarray(cells, dtype=object)),
                f"cannot parse {name}")
        raise
    if kind == "float":
        _reject(path, lines, cells, ~np.isfinite(out), f"{name} must be finite, got")
    return out


def write_table(path, header: list[str], columns) -> None:
    """Write ``header``, then one row per entry of the equal-length ``columns``,
    ``TABLE_BLOCK_ROWS`` rows at a time, through ``atomic_write``, as
    ``csv.writer`` writes them: floats by ``repr``, other values by ``str``,
    None as an empty cell, and a cell quoted when it holds a comma, a quote
    or a line break.  When every column holds numbers, whose text needs no
    quotes, each block is one string: a format string of ``str`` cells (a
    float's ``str`` is its ``repr``) mapped over the block's columns.
    """
    columns = [np.asarray(col) for col in columns]
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(col) for col in columns]}")
    numbers = all(col.dtype.kind in "biuf" for col in columns)
    row = ",".join(["{!s}"] * len(columns)) + "\r\n"
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for s in range(0, len(columns[0]) if columns else 0, TABLE_BLOCK_ROWS):
            cells = [col[s:s + TABLE_BLOCK_ROWS].tolist() for col in columns]
            if numbers:
                fh.write("".join(map(row.format, *cells)))
            else:
                w.writerows(zip(*cells))


def load_csv(path) -> MultivariateSeries:
    """Load a series from a CSV table; a column named "label" holds 0/1 labels
    and every other column is a dimension.  Non-finite or unparsable cells
    fail with the offending file line.
    """
    def select(header):
        dims = [j for j, name in enumerate(header) if name != "label"]
        if not dims:
            raise DataError(f"{path}: no value columns")
        return [("value", dims, "float")] + (
            [("label", header.index("label"), "label")] if "label" in header else [])

    header, cols = read_table(path, select)
    return MultivariateSeries(values=cols["value"], labels=cols.get("label"),
                              dim_names=[name for name in header if name != "label"])


def save_csv(series: MultivariateSeries, path) -> None:
    """Write a series as CSV with a header; labels go to a final "label" column."""
    names = series.dim_names or [f"dim_{j}" for j in range(series.d)]
    labels = [] if series.labels is None else [series.labels]
    write_table(path, list(names) + ["label"] * len(labels), [*series.values.T, *labels])


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def zscore_fit(train: MultivariateSeries) -> NormStats:
    """Per-dimension mean and population std of the training split.

    They are stored as float32: a statistic that is not finite, or lies
    beyond the float32 range (finite values near the float64 limit), is a
    ``DataError`` that names its dimension."""
    if train.n < 2:
        raise DataError("need at least 2 rows to fit normalization stats")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.values.mean(axis=0)
        std = np.maximum(train.values.std(axis=0), STD_FLOOR)
    limit = np.finfo(np.float32).max
    for what, stat in (("mean", mean), ("std", std)):
        bad = np.flatnonzero(~(np.abs(stat) <= limit))
        if bad.size:
            j = int(bad[0])
            name = train.dim_names[j] if train.dim_names else f"dim_{j}"
            raise DataError(f"dimension {name!r}: its training {what} {stat[j]:.6g} "
                            f"is not a finite float32")
    return NormStats(mean=mean.astype(np.float32), std=std.astype(np.float32))


def zscore_apply(series: MultivariateSeries, stats: NormStats) -> MultivariateSeries:
    mean = np.asarray(stats.mean, dtype=np.float64)
    std = np.maximum(np.asarray(stats.std, dtype=np.float64), STD_FLOOR)
    if mean.shape[0] != series.d:
        raise DataError(f"stats have {mean.shape[0]} dims, series has {series.d}")
    return MultivariateSeries(values=(series.values - mean) / std,
                              labels=series.labels, dim_names=series.dim_names)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------

def window_starts(n: int, L: int, R: int, cover_tail: bool = False) -> np.ndarray:
    """Starts 0, R, 2R, ... of the length-L windows over n timestamps.

    With ``cover_tail`` a final window anchored at n-L is appended when the
    regular grid leaves trailing timestamps uncovered (used for scoring so
    every timestamp is covered).
    """
    if L > n:
        raise DataError(f"window length {L} exceeds series length {n}")
    if L < 1 or R < 1:
        raise DataError("window length and stride must be >= 1")
    starts = np.arange(0, n - L + 1, R)
    if cover_tail and starts[-1] + L < n:
        starts = np.append(starts, n - L)
    return starts


def stack_slices(values: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """The (len(starts), length, D) stack of ``values[s:s + length]``."""
    return values[np.asarray(starts)[:, None] + np.arange(length)]


def batch_ranges(n: int, batch_size: int, min_last: int) -> list[tuple[int, int]]:
    """Consecutive [s, e) ranges of ``batch_size`` over n items; a last range
    shorter than ``min_last`` joins the one before it."""
    ranges = [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    if len(ranges) > 1 and ranges[-1][1] - ranges[-1][0] < min_last:
        _, e = ranges.pop()
        ranges[-1] = (ranges[-1][0], e)
    return ranges


def make_windows(series: MultivariateSeries, L: int, R: int,
                 cover_tail: bool = False) -> np.ndarray:
    """The (n_windows, L, D) stack of the windows at ``window_starts``."""
    return stack_slices(series.values, window_starts(series.n, L, R, cover_tail), L)


# ---------------------------------------------------------------------------
# Synthetic benchmark generator
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    """Sum-of-sinusoids base signal with injected anomaly segments in the test split."""

    n_train: int = 20000
    n_test: int = 10000
    dims: int = 5
    anomaly_rate: float = 0.05
    seed: int = 0
    noise_sigma: float = 0.1
    seg_len_min: int = 10
    seg_len_max: int = 50
    period_min: float = 20.0
    period_max: float = 150.0
    n_components: int = 2
    spike_scale: float = 8.0
    level_scale: float = 4.0
    freq_scale: float = 2.5
    anomaly_types: tuple[str, ...] = ("spike", "level_shift", "frequency_shift")

    KNOWN_TYPES = ("spike", "level_shift", "frequency_shift")

    def validate(self) -> None:
        if self.n_train < 2 or self.n_test < 1 or self.dims < 1:
            raise ConfigError("n_train >= 2, n_test >= 1 and dims >= 1 required")
        if self.seed < 0 or self.n_components < 0:
            raise ConfigError("seed and n_components must be >= 0")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0 < self.period_min <= self.period_max < np.inf:
            raise ConfigError(f"need 0 < period_min <= period_max, got {self.period_min} "
                            f"and {self.period_max}")
        if not 0.0 <= self.anomaly_rate < 1.0:
            raise ConfigError("anomaly_rate must be in [0, 1)")
        if not 1 <= self.seg_len_min <= self.seg_len_max:
            raise ConfigError("need 1 <= seg_len_min <= seg_len_max")
        for t in self.anomaly_types:
            if t not in self.KNOWN_TYPES:
                raise ConfigError(f"unknown anomaly type {t!r}")
        target = round(self.anomaly_rate * self.n_test)
        if 0 < target < self.seg_len_min:
            raise ConfigError(
                f"anomaly rate {self.anomaly_rate} incompatible with segment length "
                f">= {self.seg_len_min} on {self.n_test} test points")
        if target > 0 and not self.anomaly_types:
            raise ConfigError(f"anomaly_rate {self.anomaly_rate} needs an anomaly type")


def _clean_signal(t: np.ndarray, amps, periods, phases, freq_factor: float = 1.0) -> np.ndarray:
    """Sum-of-sinusoids signal for one dimension, evaluated at global times t."""
    out = np.zeros(t.shape[0])
    for a, p, ph in zip(amps, periods, phases):
        out += a * np.sin(2.0 * np.pi * freq_factor * t / p + ph)
    return out


def _place_segments(rng: np.random.Generator, cfg: SynthConfig) -> list[tuple[int, int, str]]:
    """Non-overlapping (start, length, type) anomaly segments on the test timeline."""
    target = round(cfg.anomaly_rate * cfg.n_test)
    if target == 0:
        return []
    segments: list[tuple[int, int]] = []
    remaining = target
    types = list(cfg.anomaly_types)
    placed: list[tuple[int, int, str]] = []
    while remaining > 0:
        seg = int(rng.integers(cfg.seg_len_min, cfg.seg_len_max + 1))
        seg = min(seg, remaining) if remaining >= cfg.seg_len_min else remaining
        ok = False
        for _ in range(1000):
            start = int(rng.integers(0, cfg.n_test - seg + 1))
            # Keep a 1-point gap so adjacent segments stay distinct events.
            if all(start + seg < s0 or start > s0 + ln for s0, ln in segments):
                ok = True
                break
        if not ok:
            raise DataError("anomaly rate incompatible with segment lengths: cannot place "
                            "non-overlapping segments")
        segments.append((start, seg))
        placed.append((start, seg, types[len(placed) % len(types)]))
        remaining -= seg
    placed.sort()
    return placed


def synth_generate(cfg: SynthConfig) -> tuple[MultivariateSeries, MultivariateSeries]:
    """Generate a (train, test) pair; test labels mark the injected segments."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_total = cfg.n_train + cfg.n_test
    t_all = np.arange(n_total, dtype=np.float64)

    amps = rng.uniform(0.5, 1.0, size=(cfg.dims, cfg.n_components))
    periods = rng.uniform(cfg.period_min, cfg.period_max, size=(cfg.dims, cfg.n_components))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.dims, cfg.n_components))

    clean = np.empty((n_total, cfg.dims))
    for j in range(cfg.dims):
        clean[:, j] = _clean_signal(t_all, amps[j], periods[j], phases[j])
    values = clean + rng.normal(0.0, cfg.noise_sigma, size=clean.shape)

    test_off = cfg.n_train
    labels = np.zeros(cfg.n_test, dtype=np.int64)
    for start, seg, kind in _place_segments(rng, cfg):
        sl = slice(test_off + start, test_off + start + seg)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if kind == "spike":
            # Exact offset from the clean signal so the deviation is guaranteed.
            values[sl] = clean[sl] + sign * cfg.spike_scale * cfg.noise_sigma
        elif kind == "level_shift":
            values[sl] += sign * cfg.level_scale * cfg.noise_sigma
        else:  # frequency_shift
            seg_t = t_all[sl]
            shifted = np.empty((seg, cfg.dims))
            for j in range(cfg.dims):
                shifted[:, j] = _clean_signal(seg_t, amps[j], periods[j], phases[j],
                                              freq_factor=cfg.freq_scale)
            values[sl] = shifted + rng.normal(0.0, cfg.noise_sigma, size=shifted.shape)
        labels[start:start + seg] = 1

    train = MultivariateSeries(values=values[:cfg.n_train],
                               labels=np.zeros(cfg.n_train, dtype=np.int64))
    test = MultivariateSeries(values=values[cfg.n_train:], labels=labels)
    return train, test
