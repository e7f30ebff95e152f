import tracemalloc

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
    (numpy 2.4): reading a series 2.6x and scores 2.2x the arrays read (18x
    and 13x with every cell of the table held as a string), writing 0.2x and
    0.7x the arrays written (2.6x and 5.0x with every cell held as a Python
    number)."""

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
