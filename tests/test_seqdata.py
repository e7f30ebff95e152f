import tracemalloc
import warnings

import numpy as np
import pytest

from sten import ConfigError, DataError, seqdata
from sten.cli import _write_loss_log
from sten.networks import init_phi, order_forward
from sten.scoring import ScoreSeries, read_scores_csv, write_scores_csv
from sten.seqdata import (MultivariateSeries, SynthConfig, load_csv, make_windows,
                          read_table, save_csv, stack_slices, synth_generate,
                          window_starts, write_table, zscore_apply, zscore_fit, _clean_signal)

import oracles
from oracles import gather_subsequences
from windowed import laid_end_to_end


class TestLoadCsv:
    def test_numeric_file(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,y\n1,2\n3,4\n5,6\n")
        s = load_csv(f)
        assert s.n == 3 and s.d == 2
        np.testing.assert_array_equal(s.values, [[1, 2], [3, 4], [5, 6]])
        assert s.labels is None

    def test_label_column(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,label\n1.5,0\n2.5,1\n")
        s = load_csv(f)
        assert s.d == 1
        np.testing.assert_array_equal(s.labels, [0, 1])

    def test_nan_rejected_with_line_number(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,y\n1,2\n3,NaN\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(f)

    def test_parse_failure_named(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x\n1\nbogus\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(f)

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,y\n\n1,2\n\nabc,3\n")
        with pytest.raises(DataError, match="line 5: cannot parse value 'abc'"):
            load_csv(f)

    def test_first_bad_cell_in_file_order(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,y,label\n1,2,0\n3,nan,0\ninf,4,1\n")
        with pytest.raises(DataError, match="line 3: value must be finite, got 'nan'"):
            load_csv(f)
        f.write_text("x,y\n1,2\n3,bad\nworse,4\n")
        with pytest.raises(DataError, match="line 3: cannot parse value 'bad'"):
            load_csv(f)

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,y\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(f)

    def test_byte_order_mark_before_the_header(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_bytes(b"\xef\xbb\xbflabel,x\n0,1.5\n1,2.5\n")
        s = load_csv(f)
        assert s.dim_names == ["x"]
        np.testing.assert_array_equal(s.values, [[1.5], [2.5]])
        np.testing.assert_array_equal(s.labels, [0, 1])
        write_scores_csv(f, EDGE_SCORES)
        f.write_bytes(b"\xef\xbb\xbf" + f.read_bytes())
        assert same_bits(read_scores_csv(f)["score"], EDGE_SCORES.scores)

    def test_not_utf8_names_the_file(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_bytes(b"x,label\n1,0\ncaf\xe9,1\n")
        with pytest.raises(DataError, match=f"{f}: not UTF-8 text"):
            load_csv(f)

    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("x,label\n1,0\n" + "0" * 131_072 + "1,1\n")
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            load_csv(f)

    def test_numbers_that_float_takes(self, tmp_path):
        """Cells that np.loadtxt refuses and Python's float and int take, such
        as digit groups, non-ASCII digits and padded labels, keep their values."""
        f = tmp_path / "a.csv"
        f.write_text("x,label\n1_000,0\n\u0661\u0662, 1\n\xa02.5,0 \n")
        s = load_csv(f)
        assert same_bits(s.values, np.array([[1000.0], [12.0], [2.5]]))
        assert same_bits(s.labels, np.array([0, 1, 0]))

    def test_int_beyond_int64_is_a_data_error(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("timestamp,score,score_otn,score_dsn\n9223372036854775808,0.5,0.5,0\n")
        with pytest.raises(DataError, match="line 2: cannot parse timestamp '9223372036854775808'"):
            read_scores_csv(f)

    def test_roundtrip_via_save(self, tmp_path):
        rng = np.random.default_rng(0)
        s = MultivariateSeries(values=rng.normal(size=(20, 3)),
                               labels=rng.integers(0, 2, 20))
        f = tmp_path / "b.csv"
        save_csv(s, f)
        back = load_csv(f)
        np.testing.assert_array_equal(back.values, s.values)
        np.testing.assert_array_equal(back.labels, s.labels)


EDGE_VALUES = np.array([[0.0, -0.0, 5e-324],
                        [1.7976931348623157e308, -1.7976931348623157e308, 0.1],
                        [1 / 3, -2.5e-7, 123456789.0]])
ODD_NAMES = ["a,b", 'say "hi"', "c"]
EDGE_SCORES = ScoreSeries(scores=np.array([0.5, 1e-300, 2 / 3]),
                          score_otn=np.array([0.25, 0.0, -0.0]),
                          score_dsn=np.array([0.25, 1e-300, 2 / 3 - 0.5]),
                          coverage=np.ones(3))


def same_bits(a, b):
    """np.array_equal that also tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestCsvTables:
    """Every writer's output reads back unchanged through the one reader, and
    the data and scores files keep their exact bytes."""

    def test_series_round_trip(self, tmp_path):
        s = MultivariateSeries(values=EDGE_VALUES, labels=[0, 1, 0], dim_names=ODD_NAMES)
        save_csv(s, tmp_path / "a.csv")
        back = load_csv(tmp_path / "a.csv")
        assert same_bits(back.values, s.values)
        assert same_bits(back.labels, s.labels)
        assert back.dim_names == ODD_NAMES

    def test_scores_round_trip_with_float_labels(self, tmp_path):
        write_scores_csv(tmp_path / "s.csv", EDGE_SCORES, labels=np.array([0.0, 1.0, 1.0]))
        cols = read_scores_csv(tmp_path / "s.csv")
        assert same_bits(cols["timestamp"], np.arange(1, 4, dtype=np.int64))
        assert same_bits(cols["score"], EDGE_SCORES.scores)
        assert same_bits(cols["score_otn"], EDGE_SCORES.score_otn)
        assert same_bits(cols["score_dsn"], EDGE_SCORES.score_dsn)
        assert same_bits(cols["label"], np.array([0, 1, 1], dtype=np.int64))

    def test_loss_log_round_trip(self, tmp_path):
        trace = [(1.25, 0.0, 1.25), (5e-324, -0.0, 1.7976931348623157e308)]
        _write_loss_log(tmp_path / "m.log", trace)
        header, cols = read_table(tmp_path / "m.log",
                                  lambda h: [("epoch", 0, "int"), ("loss", [1, 2, 3], "float")])
        assert header == ["epoch", "otn", "dsn", "total"]
        assert same_bits(cols["epoch"], np.array([1, 2], dtype=np.int64))
        assert same_bits(cols["loss"], np.array(trace))
        assert (tmp_path / "m.log").read_bytes().count(b"\r\n") == 3

    def test_table_with_text_and_empty_cells(self, tmp_path):
        write_table(tmp_path / "t.csv", ["param", "value", "auc_pr"],
                    [["beta", "beta"], [0.5, -0.0], [0.25, None]])
        assert (tmp_path / "t.csv").read_bytes() == (
            b"param,value,auc_pr\r\nbeta,0.5,0.25\r\nbeta,-0.0,\r\n")
        header, cols = read_table(tmp_path / "t.csv", lambda h: [("value", 1, "float")])
        assert header == ["param", "value", "auc_pr"]
        assert same_bits(cols["value"], np.array([0.5, -0.0]))

    def test_unequal_columns_leave_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
        assert list(tmp_path.iterdir()) == []

    def test_series_bytes(self, tmp_path):
        save_csv(MultivariateSeries(values=EDGE_VALUES, labels=[0, 1, 0], dim_names=ODD_NAMES),
                 tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_bytes() == (
            b'"a,b","say ""hi""",c,label\r\n'
            b"0.0,-0.0,5e-324,0\r\n"
            b"1.7976931348623157e+308,-1.7976931348623157e+308,0.1,1\r\n"
            b"0.3333333333333333,-2.5e-07,123456789.0,0\r\n")

    def test_scores_bytes(self, tmp_path):
        write_scores_csv(tmp_path / "s.csv", EDGE_SCORES, labels=np.array([0.0, 1.0, 1.0]))
        assert (tmp_path / "s.csv").read_bytes() == (
            b"timestamp,score,score_otn,score_dsn,label\r\n"
            b"1,0.5,0.25,0.25,0\r\n"
            b"2,1e-300,0.0,1e-300,1\r\n"
            b"3,0.6666666666666666,-0.0,0.16666666666666663,1\r\n")
        write_scores_csv(tmp_path / "t.csv", EDGE_SCORES)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"timestamp,score,score_otn,score_dsn\r\n"
            b"1,0.5,0.25,0.25\r\n"
            b"2,1e-300,0.0,1e-300\r\n"
            b"3,0.6666666666666666,-0.0,0.16666666666666663\r\n")



class TestTableBlocks:
    """Tables are read and written TABLE_BLOCK_ROWS rows at a time: a defect
    past a block boundary names its file line, and memory beyond the arrays
    read or written does not grow with the table."""

    BLOCK = 4

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(seqdata, "TABLE_BLOCK_ROWS", self.BLOCK)

    @pytest.mark.parametrize("row,message", [
        ("abc,2,0", "line 6: cannot parse value 'abc'"),
        ("1,inf,0", "line 6: value must be finite, got 'inf'"),
        ("1,2,2", "line 6: label must be 0 or 1, got '2'"),
        ("1,2", "line 6: expected 3 columns, got 2"),
    ], ids=["cell", "non-finite", "label", "ragged"])
    def test_defect_after_the_first_block_names_its_line(self, tmp_path, row, message):
        rows = ["1,2,0"] * (self.BLOCK + 3)
        rows[self.BLOCK] = row                       # data row BLOCK + 1, file line BLOCK + 2
        (tmp_path / "a.csv").write_text("x,y,label\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(DataError, match=message):
            load_csv(tmp_path / "a.csv")

    def test_bad_score_after_the_first_block_names_its_line(self, tmp_path):
        rows = [f"{t},0.5,0.25,0.25" for t in range(1, self.BLOCK + 3)]
        rows[self.BLOCK] = "5,0.5,x,0.25"
        (tmp_path / "s.csv").write_text("timestamp,score,score_otn,score_dsn\n"
                                        + "".join(r + "\n" for r in rows))
        with pytest.raises(DataError, match="line 6: cannot parse score_otn 'x'"):
            read_scores_csv(tmp_path / "s.csv")

    # Row 4 ends the first block on line 7: its first cell holds a newline.
    SPLIT = 'x,y\n1,2\n\n3,4\n5,6\n"7\n",8\n\n{row5}\n'

    def test_blank_lines_and_a_multiline_cell_keep_line_numbers(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text(self.SPLIT.format(row5="9,9"))
        assert same_bits(load_csv(f).values, np.array([[1.0, 2], [3, 4], [5, 6], [7, 8], [9, 9]]))
        f.write_text(self.SPLIT.format(row5="bad,9"))
        with pytest.raises(DataError, match="line 9: cannot parse value 'bad'"):
            load_csv(f)
        f.write_text(self.SPLIT.format(row5="9"))
        with pytest.raises(DataError, match="line 9: expected 2 columns, got 1"):
            load_csv(f)

    def test_first_defect_in_file_order_wins_across_blocks(self, tmp_path):
        """A bad cell in the first block is found before a ragged row in the
        second: each block is checked whole before the next is read."""
        rows = ["1,2"] * (self.BLOCK + 3)
        rows[1], rows[self.BLOCK + 1] = "3,nan", "4"
        (tmp_path / "a.csv").write_text("x,y\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(DataError, match="line 3: value must be finite, got 'nan'"):
            load_csv(tmp_path / "a.csv")

    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 2])
    def test_blocks_keep_the_bytes_and_the_bits(self, tmp_path, monkeypatch, n):
        rng = np.random.default_rng(n)
        s = MultivariateSeries(values=rng.normal(size=(n, 3)) ** 5,
                               labels=rng.integers(0, 2, n), dim_names=ODD_NAMES)
        scores = ScoreSeries(scores=rng.normal(size=n), score_otn=rng.normal(size=n),
                             score_dsn=rng.normal(size=n), coverage=np.ones(n))
        save_csv(s, tmp_path / "a.csv")
        write_scores_csv(tmp_path / "s.csv", scores, labels=s.labels)
        monkeypatch.setattr(seqdata, "TABLE_BLOCK_ROWS", 10 ** 6)
        save_csv(s, tmp_path / "b.csv")
        write_scores_csv(tmp_path / "t.csv", scores, labels=s.labels)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
        monkeypatch.setattr(seqdata, "TABLE_BLOCK_ROWS", self.BLOCK)
        back = load_csv(tmp_path / "a.csv")
        assert same_bits(back.values, s.values) and same_bits(back.labels, s.labels)
        cols = read_scores_csv(tmp_path / "s.csv")
        assert all(same_bits(cols[k], getattr(scores, a)) for k, a in
                   (("score", "scores"), ("score_otn", "score_otn"), ("score_dsn", "score_dsn")))


def traced_peak(fn):
    """What ``fn()`` returns, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTableMemory:
    """At 100,000 rows a table costs a small multiple of its arrays.  Measured
    (numpy 2.4, one np.loadtxt call and one formatted string per block):
    reading a series 2.2x and scores 2.0x the arrays read (18x and 13x with
    every cell of the table held as a string), writing 0.45x and 0.97x the
    arrays written (2.6x and 5.0x with every cell held as a Python number)."""

    N = 100_000

    @pytest.fixture(scope="class")
    def tables(self, tmp_path_factory):
        rng = np.random.default_rng(21)
        s = MultivariateSeries(values=rng.normal(size=(self.N, 1)),
                               labels=rng.integers(0, 2, self.N))
        scores = ScoreSeries(scores=rng.random(self.N), score_otn=rng.random(self.N),
                             score_dsn=rng.random(self.N), coverage=np.ones(self.N))
        d = tmp_path_factory.mktemp("tables")
        save_csv(s, d / "a.csv")
        write_scores_csv(d / "s.csv", scores, labels=s.labels)
        return s, scores, d

    def test_writes_stay_within_one_and_a_half_times_their_arrays(self, tables):
        s, scores, d = tables
        _, peak = traced_peak(lambda: save_csv(s, d / "b.csv"))
        assert peak < 1.5 * (s.values.nbytes + s.labels.nbytes), peak
        _, peak = traced_peak(lambda: write_scores_csv(d / "t.csv", scores, labels=s.labels))
        assert peak < 1.5 * (3 * scores.scores.nbytes + s.labels.nbytes), peak

    def test_reads_stay_within_three_and_a_half_times_their_arrays(self, tables):
        s, scores, d = tables
        back, peak = traced_peak(lambda: load_csv(d / "a.csv"))
        assert same_bits(back.values, s.values)
        assert peak < 3.5 * (back.values.nbytes + back.labels.nbytes), peak
        cols, peak = traced_peak(lambda: read_scores_csv(d / "s.csv"))
        assert same_bits(cols["score_dsn"], scores.score_dsn)
        assert peak < 3.5 * sum(col.nbytes for col in cols.values()), peak

# Cell pools of the differential tests, by column kind: cells every reader
# takes, then defects.  "1_000", non-ASCII digits and a no-break space are
# taken by Python's float and int, not by np.loadtxt.
GOOD_CELLS = {
    "int": ["7", " 12 ", "+3", "007", "1_0", '"5"', "-0"],
    "float": ["-0.0", "0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e+308",
              "-1.7976931348623157e308", " 1.5 ", '"2.5"', '" 3"', "1_000", "\u0661\u0662",
              "\xa01", ".5", "1.", "+1e5", "-0", "42", '"7\n"'],
    "label": ["0", "1", " 1", "0 ", '"1"'],
    "text": ["a", "b c", '"x,y"', '"q""uote"', "", "\u00e9"],
}
BAD_CELLS = {
    "int": ["1.0", "1.9", "x", "", "1e3"],
    "float": ["nan", "inf", "-inf", "NaN", "abc", "", "0x1", "1d5", '"1"x2'],
    "label": ["+1", "01", "-0", "1.0", "2", "", "00"],
    "text": [],
}
KINDS = ["int", "float", "text", "float", "label"]
def SELECT(header):
    """Columns 0, 1 and 3, and 4 of a five-column table; column 2 is not read."""
    if len(header) != 5:
        raise DataError(f"expected 5 columns in the header, got {len(header)}")
    return [("timestamp", 0, "int"), ("value", [1, 3], "float"), ("label", 4, "label")]


def random_number(rng):
    """rng.normal() ** 5, a subnormal, a signed zero, an extreme, or an int."""
    pick = rng.integers(5)
    if pick == 0:
        return float(rng.normal() ** 5)
    if pick == 1:
        return float(rng.integers(1, 2 ** 52)) * 5e-324
    if pick == 2:
        return float(rng.choice([0.0, -0.0]))
    if pick == 3:
        return float(rng.choice([1.7976931348623157e308, -1.7976931348623157e308]))
    return float(rng.integers(-10 ** 6, 10 ** 6))


def random_table(rng, n, p_bad):
    """The text of a table of ``KINDS`` columns: mostly random numbers, some
    cells from the pools, and with probability ``p_bad`` a defect per cell,
    a ragged row per row and a blank line per line, in LF or CRLF lines."""
    def cell(kind, t):
        if rng.random() < p_bad and BAD_CELLS[kind]:
            return rng.choice(BAD_CELLS[kind])
        if rng.random() < 0.2:
            return rng.choice(GOOD_CELLS[kind])
        return {"int": str(t), "float": repr(random_number(rng)),
                "label": str(rng.integers(2)), "text": "t"}[kind]

    lines = ["timestamp,x,name,y,label"]
    for t in range(1, n + 1):
        row = [cell(kind, t) for kind in KINDS]
        if rng.random() < p_bad:
            row = row[:-1] if rng.random() < 0.5 else row + ["9"]
        lines.append(",".join(row))
        if rng.random() < p_bad:
            lines.append("")
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def read_outcome(read):
    """The header and each column's dtype, shape and bytes, or the DataError."""
    try:
        header, cols = read()
    except DataError as exc:
        return str(exc)
    return header, {k: (v.dtype, v.shape, v.tobytes()) for k, v in cols.items()}


class TestTableOracle:
    """``read_table`` and ``write_table`` against the csv-module reader and
    writer of ``oracles``: the same bits, the same DataError message and the
    same bytes, for any block size."""

    def same_read(self, path, monkeypatch, block, select=SELECT):
        monkeypatch.setattr(seqdata, "TABLE_BLOCK_ROWS", block)
        got = read_outcome(lambda: read_table(path, select))
        assert got == read_outcome(lambda: oracles.csv_read_table(path, select, block))
        return got

    @pytest.mark.parametrize("block", [1, 4, 4096])
    def test_random_tables(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(block)
        outcomes = set()
        for i in range(60):
            f = tmp_path / f"{i}.csv"
            f.write_bytes(random_table(rng, int(rng.integers(1, 30)),
                                       rng.choice([0.0, 0.005, 0.03])).encode())
            got = self.same_read(f, monkeypatch, block)
            outcomes.add(got.split(": ")[-1].split()[0] if isinstance(got, str) else "ok")
        # Both taken tables and each kind of defect were drawn.
        assert {"ok", "expected", "cannot", "value", "label"} <= outcomes, outcomes

    @pytest.mark.parametrize("block", [1, 4, 4096])
    def test_long_table(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(7)
        f = tmp_path / "a.csv"
        f.write_bytes(random_table(rng, 5000, 0.0).encode())
        assert not isinstance(self.same_read(f, monkeypatch, block), str)
        lines = f.read_bytes().splitlines(keepends=True)
        lines[4500] = b"4500,nan,t,1,0\n"
        f.write_bytes(b"".join(lines))
        assert "line 4501: value must be finite, got 'nan'" in self.same_read(f, monkeypatch, block)

    # Each edge table in the file order of its lines; {q} is a quoted cell
    # holding a newline.
    EDGE_TABLES = {
        "blank-lines": "t,x,n,y,label\n\n1,2,a,3,0\r\n\r\n\n2,3,b,4,1\n\r\n",
        "crlf-lf-cr": "t,x,n,y,label\r\n1,2,a,3,0\n2,3,b,4,1\r3,4,c,5,0\r\n",
        "padded": "t , x ,n, y ,label\n 1 , 2.5 ,a, -3 , 1 \n",
        "quoted": 't,x,n,y,label\n"1","2.5","a,b","3","0"\n2,"1e3",c,4,"1"\n',
        "multiline-cell": 't,x,n,y,label\n1,2,a,3,0\n2,"3\n",b,4,1\n3,4,"c\nd",5,0\n4,5,e,6,1\n',
        "multiline-bad": 't,x,n,y,label\n1,2,a,3,0\n2,"3\n",b,4,1\n3,"4\nx",c,5,0\n',
        "nan-inf": "t,x,n,y,label\n1,2,a,3,0\n2,inf,b,nan,1\n",
        "ragged": "t,x,n,y,label\n1,2,a,3,0\n2,3,b,4\n",
        "ragged-after-bad-cell": "t,x,n,y,label\n1,bad,a,3,0\n2,3,b,4\n",
        "bad-label-before-bad-value": "t,x,n,y,label\n1,2,a,3,+1\n2,x,b,4,0\n",
        "labels": "t,x,n,y,label\n1,2,a,3,01\n",
        "label-minus-zero": "t,x,n,y,label\n1,2,a,3,-0\n",
        "label-one-point-zero": "t,x,n,y,label\n1,2,a,3,1.0\n",
        "whitespace-line": "t,x,n,y,label\n1,2,a,3,0\n   \n",
        "header-only": "t,x,n,y,label\n\n\n",
        "bad-header-and-ragged-row": "t,x\n1,2\n3\n",
        "bad-header": "t,x\n1,2\n",
        "bad-header-no-rows": "t,x\n\n",
        "nul": "t,x,n,y,label\n1,2,a\x00,3,0\n2,3\x00,b,4,1\n",
        "separators": "t,x,n,y,label\n1,2\x1c,a,3,0\n2,3,b,\x1f4,1\n3\x1d,4,c,5,0\n",
        "non-ascii": "t,x,n,y,label\n1,2,\u00e9,3,0\n2\u01fe,3,b,4,1\n",
        "nul-ends-int-and-label": "t,x,n,y,label\n1,2,a,3,1\x00\n2\x00,3,b,4,0\n",
        "long-padded-int": "t,x,n,y,label\n" + " " * 40 + "1,2,a,3,0\n",
        "int-bad-past-32-chars": "t,x,n,y,label\n1" + " " * 31 + "x,2,a,3,0\n",
        "label-bad-past-32-chars": "t,x,n,y,label\n1,2,a,3,1" + " " * 31 + "x\n",
    }

    @pytest.mark.parametrize("block", [1, 4, 4096])
    @pytest.mark.parametrize("name", list(EDGE_TABLES))
    def test_edge_tables(self, tmp_path, monkeypatch, block, name):
        f = tmp_path / "a.csv"
        f.write_bytes(self.EDGE_TABLES[name].encode())
        self.same_read(f, monkeypatch, block)

    def test_int_cells_never_reach_the_int_parser_of_np_loadtxt(self, tmp_path, monkeypatch):
        """numpy releases that keep a deprecated fallback read an int cell such
        as 1.0 through a float and only warn, so what np.loadtxt's int parser
        takes depends on the numpy version and the warnings filter.  Int and
        label cells are read as text, and 1.0 stays refused with every
        warning ignored."""
        kinds, loadtxt = [], np.loadtxt

        def recording(*args, dtype, **kwargs):
            kinds.extend(np.dtype(dtype)[name].kind for name in np.dtype(dtype).names)
            return loadtxt(*args, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        f = tmp_path / "a.csv"
        f.write_text("t,x,n,y,label\n1,2,a,3,0\n2.0,3,b,4,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DataError, match=r"line 3: cannot parse timestamp '2\.0'$"):
                read_table(f, SELECT)
        assert kinds and not {"i", "u"} & set(kinds), kinds

    @pytest.mark.parametrize("header,row,split,select", [
        ("t,x,n,y,label", "{t},1,a,2,0", ['{t},"3\n', '",b,{y},0'], SELECT),
        ("t,x", "{t},1", ['{t},"3\n', '{y}"'], lambda h: [("value", [0, 1], "float")]),
        ("t,note", "{t},a", ['{t},"a\n', 'b{y}"'], lambda h: [("t", 0, "int")]),
    ], ids=["inner-column", "last-column", "unread-last-column"])
    def test_a_multiline_cell_across_blocks(self, tmp_path, monkeypatch, header, row, split,
                                            select):
        """A quoted cell holding a newline that starts on the last line of
        one block of lines and ends on the first of the next."""
        f = tmp_path / "a.csv"
        for at in range(1, 9):
            for y in ("2", "x", ""):
                lines = [row.format(t=t) for t in range(1, at + 1)] + [
                    part.format(t=at + 1, y=y) for part in split] + [
                    row.format(t=t) for t in range(at + 2, 10)]
                f.write_text(header + "\n" + "\n".join(lines) + "\n")
                for block in (1, 2, 3, 4):
                    self.same_read(f, monkeypatch, block, select)

    def test_written_tables_take_one_loadtxt_call_per_block(self, tmp_path, monkeypatch):
        """The series and score files this package writes never need csv.reader."""
        def refuse(*args):
            raise AssertionError("a written table went through csv.reader")

        rng = np.random.default_rng(3)
        n = 11
        s = MultivariateSeries(values=np.vstack([EDGE_VALUES, rng.normal(size=(n, 3)) ** 5]),
                               labels=rng.integers(0, 2, n + 3), dim_names=ODD_NAMES)
        save_csv(s, tmp_path / "a.csv")
        write_scores_csv(tmp_path / "s.csv", EDGE_SCORES, labels=np.array([0, 1, 1]))
        monkeypatch.setattr(seqdata, "_parse_rows", refuse)
        monkeypatch.setattr(seqdata, "TABLE_BLOCK_ROWS", 4)
        back = load_csv(tmp_path / "a.csv")
        assert same_bits(back.values, s.values) and same_bits(back.labels, s.labels)
        assert same_bits(read_scores_csv(tmp_path / "s.csv")["score_dsn"], EDGE_SCORES.score_dsn)

    @pytest.mark.parametrize("block", [1, 4, 4096])
    def test_writer_bytes(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(block)
        n = 300
        floats = np.array([random_number(rng) for _ in range(n)])
        floats[:8] = [1e16, 1e-5, 5e-324, -0.0, 0.1, np.nan, np.inf, -1e22]
        tables = {
            "numbers": (["t", "a,b", 'say "hi"', "label"],
                        [np.arange(1, n + 1), floats, rng.normal(size=n) ** 5,
                         rng.integers(0, 2, n)]),
            "ints-and-bools": (["i", "u", "b"], [rng.integers(-10 ** 12, 10 ** 12, n),
                                                 np.arange(n, dtype=np.uint8),
                                                 rng.random(n) < 0.5]),
            "sweep": (["param", "value", "auc_pr"],
                      [["beta", "a,b", 'q"q', "line\nbreak", ""] * 60, floats,
                       [None, 0.25, -0.0, 1e-5, 5e-324] * 60]),
            "one-empty-text-column": (["note"], [["", None, "x"] * 100]),
            "header-only": (["a", "b"], [[], []]),
        }
        monkeypatch.setattr(seqdata, "TABLE_BLOCK_ROWS", block)
        for name, (header, columns) in tables.items():
            write_table(tmp_path / f"{name}.csv", header, columns)
            oracles.csv_write_table(tmp_path / f"{name}.oracle", header, columns, block)
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}.oracle").read_bytes()), name


class TestZscore:
    def test_constant_column_floored(self):
        s = MultivariateSeries(values=np.full((10, 2), 3.0))
        stats = zscore_fit(s)
        out = zscore_apply(s, stats)
        np.testing.assert_allclose(out.values, 0.0)

    def test_train_means_near_zero(self):
        rng = np.random.default_rng(1)
        s = MultivariateSeries(values=rng.normal(loc=5.0, size=(200, 3)))
        out = zscore_apply(s, zscore_fit(s))
        np.testing.assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-6)

    def test_two_point_population_std(self):
        # mean 2, population std 1 => value 2 maps to 0
        train = MultivariateSeries(values=np.array([[1.0], [3.0]]))
        stats = zscore_fit(train)
        out = zscore_apply(MultivariateSeries(values=np.array([[2.0]])), stats)
        np.testing.assert_allclose(out.values, [[0.0]], atol=1e-7)

    def test_fit_needs_two_rows(self):
        with pytest.raises(DataError):
            zscore_fit(MultivariateSeries(values=np.ones((1, 2))))

    @pytest.mark.parametrize("column,what", [
        (np.array([1e300, -1e300, 1e300, -1e300]), "std"),     # its square overflows
        (np.array([1e39, 1e39, 1e39, 1e39]), "mean"),         # beyond float32, std floored
        (np.array([4e38, -4e38, 4e38, -4e38]), "std"),        # std 4e38, float32 max 3.4e38
        (np.array([5e38, 5.1e38, 5e38, 5.1e38]), "mean")], ids=["over", "mean", "std", "both"])
    def test_statistics_beyond_float32_name_their_dimension(self, column, what):
        values = np.column_stack([np.arange(4.0), column])
        series = MultivariateSeries(values=values, dim_names=["a", "b"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"dimension 'b': its training {what} "):
                zscore_fit(series)


def series_of(n, d=1, seed=0):
    return MultivariateSeries(values=np.random.default_rng(seed).normal(size=(n, d)))


class TestMakeWindows:
    def test_small_grid(self):
        s = series_of(5)
        assert window_starts(5, 3, 1).tolist() == [0, 1, 2]
        np.testing.assert_array_equal(make_windows(s, 3, 1),
                                      [s.values[i:i + 3] for i in range(3)])

    def test_full_length_window(self):
        assert len(make_windows(series_of(5), 5, 1)) == 1

    def test_counts_at_boundaries(self):
        assert len(make_windows(series_of(100), 100, 10)) == 1
        assert len(make_windows(series_of(110), 100, 10)) == 2

    def test_closed_form_count(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(5, 300))
            L = int(rng.integers(1, n + 1))
            R = int(rng.integers(1, 20))
            assert len(make_windows(series_of(n), L, R)) == (n - L) // R + 1

    def test_window_too_long(self):
        with pytest.raises(DataError):
            make_windows(series_of(4), 5, 1)

    def test_cover_tail_reaches_every_timestamp(self):
        starts = window_starts(57, 10, 7, cover_tail=True)
        covered = np.zeros(57, dtype=bool)
        for s in starts:
            covered[s:s + 10] = True
        assert covered.all()
        assert starts[-1] == 57 - 10
        assert len(make_windows(series_of(57), 10, 7, cover_tail=True)) == len(starts)

    def test_stack_slices_takes_each_start_in_the_given_order(self):
        values = series_of(30, d=2).values
        starts = np.array([12, 0, 12, 25])
        got = stack_slices(values, starts, 5)
        assert got.shape == (4, 5, 2)
        for row, s in zip(got, starts):
            np.testing.assert_array_equal(row, values[s:s + 5])


def timeline_batch(n_windows, L, d=1):
    """Windows whose values are their own timestamps, offset by 100 per window."""
    t = np.arange(L, dtype=np.float64)[None, :, None] + 100.0 * np.arange(n_windows)[:, None, None]
    return np.repeat(t, d, axis=2)


class TestSplitSubsequences:
    """oracles.gather_subsequences, the per-slot reference of the order
    branch: each window's m sub-sequences in true order."""

    def test_paper_layout(self):
        subs = gather_subsequences(timeline_batch(1, 100), 10, 10, 10)
        assert subs.shape == (10, 10, 1)
        assert [int(s[0, 0]) for s in subs] == list(range(0, 100, 10))

    def test_single_subsequence(self):
        batch = series_of(20).values[None]
        subs = gather_subsequences(batch, 1, 20, 1)
        assert subs.shape[0] == 1
        np.testing.assert_array_equal(subs[0], batch[0])

    def test_overlapping_layout(self):
        subs = gather_subsequences(timeline_batch(1, 7), 3, 3, 2)
        assert [int(s[0, 0]) for s in subs] == [0, 2, 4]

    def test_arithmetic_mismatch(self):
        with pytest.raises(DataError):
            gather_subsequences(timeline_batch(1, 10), 3, 3, 2)

    def test_partition_provenance(self):
        subs = gather_subsequences(timeline_batch(3, 20, d=2), 4, 5, 5)
        for b in range(3):
            seen = subs[4 * b:4 * b + 4, :, 0].reshape(-1).tolist()
            assert sorted(seen) == [100.0 * b + t for t in range(20)]
            assert len(set(seen)) == 20
        np.testing.assert_array_equal(subs[..., 0], subs[..., 1])

    def test_slots_laid_end_to_end_recover_window(self):
        batch = np.random.default_rng(5).normal(size=(2, 30, 3))
        subs = gather_subsequences(batch, 6, 5, 5).reshape(2, 6, 5, 3)
        out = np.empty_like(batch)
        for b in range(2):
            for slot in range(6):
                out[b, slot * 5:slot * 5 + 5] = subs[b, slot]
        np.testing.assert_array_equal(out, batch)

    def test_one_hot_labels_match_slot(self):
        batch = timeline_batch(2, 8)
        phi = init_phi(1, 3, 4, np.random.default_rng(0))
        _, Y, _, _, _ = order_forward(phi, *laid_end_to_end(batch), 2, 2)
        subs = gather_subsequences(batch, 4, 2, 2)
        for row in range(8):
            b, slot = divmod(row, 4)
            assert Y[row].argmax() == slot
            assert subs[row, 0, 0] == 100.0 * b + 2 * slot


class TestPositionCounts:
    """Why the order of presentation cannot matter on the training grid."""

    @pytest.mark.parametrize("n,l,r,m", [(200, 10, 10, 10), (97, 5, 5, 4), (60, 4, 3, 5)])
    def test_interior_start_once_at_each_position(self, n, l, r, m):
        # With R_train == r, the sub-sequence starting at s sits at position i
        # of the window starting at s - i*r; for an interior s every such
        # window is on the grid, so s occurs in m windows, once per position.
        L = l + (m - 1) * r
        starts = window_starts(n, L, r)
        slot_starts = starts[:, None] + np.arange(m) * r                # (n_windows, m)
        interior = np.arange((m - 1) * r, starts[-1] + 1, r)
        assert interior.size > 0
        for s in interior:
            windows, positions = np.nonzero(slot_starts == s)
            assert len(windows) == m
            assert sorted(positions.tolist()) == list(range(m))


class TestSynth:
    def test_zero_rate_no_labels(self):
        cfg = SynthConfig(n_train=500, n_test=300, dims=2, anomaly_rate=0.0, seed=1)
        train, test = synth_generate(cfg)
        assert train.labels.sum() == 0
        assert test.labels.sum() == 0

    def test_label_fraction_band(self):
        cfg = SynthConfig(n_train=2000, n_test=10000, dims=3, anomaly_rate=0.05, seed=2)
        _, test = synth_generate(cfg)
        assert 0.03 <= test.labels.mean() <= 0.07

    def test_reproducible(self):
        cfg = SynthConfig(n_train=800, n_test=400, dims=2, anomaly_rate=0.04, seed=3)
        a_train, a_test = synth_generate(cfg)
        b_train, b_test = synth_generate(cfg)
        np.testing.assert_array_equal(a_train.values, b_train.values)
        np.testing.assert_array_equal(a_test.values, b_test.values)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_segments_nonoverlapping(self):
        cfg = SynthConfig(n_train=500, n_test=5000, dims=2, anomaly_rate=0.08, seed=4)
        _, test = synth_generate(cfg)
        runs = np.flatnonzero(np.diff(np.concatenate([[0], test.labels, [0]])))
        starts, ends = runs[::2], runs[1::2]
        assert np.all(starts[1:] > ends[:-1])  # separated by at least one 0

    def test_spike_deviation_contract(self):
        cfg = SynthConfig(n_train=300, n_test=2000, dims=2, anomaly_rate=0.03,
                          seed=5, anomaly_types=("spike",))
        _, test = synth_generate(cfg)
        # Replay the generator's base-signal draws to recover the clean signal.
        rng = np.random.default_rng(cfg.seed)
        amps = rng.uniform(0.5, 1.0, size=(cfg.dims, cfg.n_components))
        periods = rng.uniform(cfg.period_min, cfg.period_max,
                              size=(cfg.dims, cfg.n_components))
        phases = rng.uniform(0.0, 2 * np.pi, size=(cfg.dims, cfg.n_components))
        t_all = np.arange(cfg.n_train + cfg.n_test, dtype=np.float64)
        clean = np.stack([_clean_signal(t_all, amps[j], periods[j], phases[j])
                          for j in range(cfg.dims)], axis=1)[cfg.n_train:]
        marked = test.labels.astype(bool)
        dev = np.abs(test.values[marked] - clean[marked])
        assert np.all(dev >= 6 * cfg.noise_sigma)

    def test_incompatible_rate_rejected(self):
        cfg = SynthConfig(n_train=100, n_test=100, dims=1, anomaly_rate=0.02,
                          seg_len_min=10, seg_len_max=20, seed=6)
        with pytest.raises(ConfigError, match="incompatible"):
            synth_generate(cfg)

    # Each of these once ended in a numpy traceback or wrote all-NaN series.
    @pytest.mark.parametrize("bad", [
        dict(noise_sigma=-1.0), dict(n_components=-1), dict(period_min=200.0),
        dict(period_min=0.0, period_max=0.0), dict(anomaly_types=()), dict(seed=-1)],
        ids=["noise-sigma-negative", "n-components-negative", "period-min-above-max",
             "periods-zero", "no-anomaly-types", "seed-negative"])
    def test_bad_generator_settings_rejected(self, bad):
        cfg = SynthConfig(n_train=100, n_test=100, dims=1, seg_len_min=2, seg_len_max=4, **bad)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_no_anomaly_types_at_zero_rate(self):
        cfg = SynthConfig(n_train=100, n_test=100, dims=1, anomaly_rate=0.0, anomaly_types=())
        _, test = synth_generate(cfg)
        assert test.labels.sum() == 0
