import tracemalloc

import numpy as np
import pytest

from sten import DataError, evalmetrics
from sten.evalmetrics import (MetricReport, affiliation, best_f1, evaluate,
                              events_from_binary, point_adjust, range_auc,
                              threshold_percentile, vus)

import oracles


def roc_auc(scores, labels):
    """AUC-ROC of the scores as given, as ``evaluate`` reports it."""
    return evaluate(scores, labels, point_adjust_on=False, metrics=("roc",)).auc_roc


def pr_auc(scores, labels):
    """AUC-PR of the scores as given, as ``evaluate`` reports it."""
    return evaluate(scores, labels, point_adjust_on=False, metrics=("pr",)).auc_pr


def separate_areas(scores, labels):
    """ROC and PR areas of one score series sorted on its own: the sweep
    and area helpers ``evaluate`` shares between its metric groups."""
    order, idx, _ = evalmetrics._sweep(np.asarray(scores, np.float64))
    return evalmetrics._areas(order, idx, np.asarray(labels).astype(bool).astype(np.float64))


def random_instance(rng, n_max=120, tie_prob=0.5):
    n = int(rng.integers(20, n_max))
    scores = rng.normal(size=n)
    if rng.random() < tie_prob:
        scores = np.round(scores, 1)  # force ties
    labels = np.zeros(n, dtype=np.int64)
    n_seg = int(rng.integers(1, 4))
    for _ in range(n_seg):
        s = int(rng.integers(0, n - 1))
        e = min(n - 1, s + int(rng.integers(1, 8)))
        labels[s:e + 1] = 1
    if labels.all():
        labels[0] = 0
    return scores, labels


# (timeline_len, truth, pred) with the zone edge cases spelled out.
EXPLICIT_AFFILIATION = [
    (20, [(2, 4), (10, 12)], [(7, 7)]),           # even gap: t = 7 ties, the earlier event owns it
    (20, [(2, 4), (9, 12)], [(6, 7)]),            # odd gap: 6 and 7 go to different zones
    (20, [(2, 4), (10, 12)], [(6, 8), (19, 19)]),
    (13, [(1, 1), (4, 4), (8, 8), (11, 11)], [(2, 3), (6, 6), (9, 10)]),  # gaps 2, 3, 2
    (10, [(2, 3), (4, 6)], [(0, 1), (7, 9)]),     # adjacent events
    (12, [(5, 5)], [(0, 0), (11, 11)]),           # a single event
    (12, [(5, 7)], [(6, 6)]),
    (10, [(0, 9)], [(3, 4)]),                     # one event over the whole timeline
    (15, [(0, 2), (8, 14)], [(3, 5), (11, 11)]),  # events touching t = 0 and t = n - 1
    (15, [(0, 0), (14, 14)], [(0, 0), (7, 7), (14, 14)]),
    (15, [(0, 0), (14, 14)], []),
]


class TestEventsFromBinary:
    def test_example(self):
        assert events_from_binary([0, 1, 1, 0, 1]) == [(1, 2), (4, 4)]

    def test_all_zeros(self):
        assert events_from_binary(np.zeros(5)) == []

    def test_all_ones(self):
        assert events_from_binary(np.ones(4)) == [(0, 3)]


class TestPointAdjust:
    def test_segment_maximum(self):
        out = point_adjust(np.array([0.0, 0.0, 1.0, 9.0, 2.0, 0.0]), [(2, 4)])
        np.testing.assert_array_equal(out, [0, 0, 9, 9, 9, 0])

    def test_no_segments_identity(self):
        scores = np.arange(5.0)
        np.testing.assert_array_equal(point_adjust(scores, []), scores)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            scores, labels = random_instance(rng)
            truth = events_from_binary(labels)
            np.testing.assert_array_equal(point_adjust(scores, truth),
                                          oracles.point_adjust_scan(scores, truth))

    def test_never_decreases_threshold_metrics(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores, labels = random_instance(rng)
            truth = events_from_binary(labels)
            adj = point_adjust(scores, truth)
            assert roc_auc(adj, labels) >= roc_auc(scores, labels) - 1e-12
            assert pr_auc(adj, labels) >= pr_auc(scores, labels) - 1e-12
            assert best_f1(adj, labels)[0] >= best_f1(scores, labels)[0] - 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_constant_scores_half(self):
        assert roc_auc(np.full(10, 3.0), np.array([0, 1] * 5)) == pytest.approx(0.5)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            scores, labels = random_instance(rng, n_max=200)
            got = roc_auc(scores, labels)
            want = oracles.roc_pairwise(list(scores), list(labels))
            assert abs(got - want) <= 1e-9

    def test_degenerate_labels_undefined(self):
        assert roc_auc(np.arange(4.0), np.zeros(4)) is None
        assert roc_auc(np.arange(4.0), np.ones(4)) is None

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores, labels = random_instance(rng)
        a = roc_auc(scores, labels)
        b = roc_auc(np.exp(scores) + 5.0, labels)
        assert abs(a - b) < 1e-12


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0

    def test_all_positive(self):
        assert pr_auc(np.array([0.3, 0.1, 0.9]), np.ones(3)) == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores, labels = random_instance(rng)
            got = pr_auc(scores, labels)
            want = oracles.pr_threshold_enum(list(scores), list(labels))
            assert abs(got - want) <= 1e-9

    def test_no_positives_undefined(self):
        assert pr_auc(np.arange(4.0), np.zeros(4)) is None


class TestBestF1:
    def test_perfect_ranking(self):
        f1, thr, prec, rec = best_f1(np.array([0.1, 0.9, 0.8, 0.2]),
                                     np.array([0, 1, 1, 0]))
        assert f1 == 1.0 and prec == 1.0 and rec == 1.0

    def test_single_positive_ranked_last(self):
        scores = np.arange(10.0, 0.0, -1.0)  # 10..1
        labels = np.zeros(10)
        labels[9] = 1  # the lowest score is the only positive
        f1, thr, prec, rec = best_f1(scores, labels)
        assert f1 == pytest.approx(2 / 11)
        assert rec == 1.0 and prec == pytest.approx(1 / 10)
        assert thr == 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        scores, labels = random_instance(rng)
        a = best_f1(scores, labels)
        b = best_f1(scores + 100.0, labels)
        assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            scores, labels = random_instance(rng)
            got = best_f1(scores, labels)
            want = oracles.f1_threshold_enum(list(scores), list(labels))
            assert abs(got[0] - want[0]) <= 1e-9
            assert got[1] == pytest.approx(want[1])


class TestLoopForms:
    """The array forms equal the per-timestamp loops they replaced, bit for bit."""

    def instances(self, seed, n=300):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            scores, labels = random_instance(rng, tie_prob=0.8)
            if rng.random() < 0.3:
                scores = np.round(scores)  # a few large tie groups
            yield scores, labels

    def test_events_from_binary(self):
        for _, labels in self.instances(20):
            got = events_from_binary(labels)
            assert got == oracles.events_from_binary_loop(labels)
            assert all(type(t) is int for event in got for t in event)
        for labels in ([], [0], [1], [1, 1], [1, 0, 1], [0, 1, 1, 0, 1]):
            assert events_from_binary(labels) == oracles.events_from_binary_loop(labels)

    def test_roc_auc_ties(self):
        for scores, labels in self.instances(21):
            assert roc_auc(scores, labels) == oracles.roc_auc_tie_loop(scores, labels)
        signed_zeros = np.array([0.0, -0.0, 1.0, 0.0, -0.0, 1.0])
        labels = np.array([1, 0, 1, 0, 1, 0])
        assert roc_auc(signed_zeros, labels) == oracles.roc_auc_tie_loop(signed_zeros, labels)

    # The count-form ROC of smoothed labels against the trapezoid of
    # normalised rates it replaced: the two differ in rounding only.
    AREA_RTOL = 1e-15

    def assert_areas_match(self, got, want):
        """PR bit for bit, ROC within AREA_RTOL."""
        assert (got[0] is None) == (want[0] is None) and got[1] == want[1], (got, want)
        if want[0] is not None:
            assert abs(got[0] - want[0]) <= self.AREA_RTOL * abs(want[0]), (got, want)

    def test_affiliation_equals_the_distance_matrix_form(self):
        for scores, labels in self.instances(23):
            truth = events_from_binary(labels)
            for delta in (0.6, 5.0, 45.0):
                pred = events_from_binary(threshold_percentile(scores, delta))
                assert (affiliation(pred, truth, scores.size)
                        == oracles.affiliation_matrix(pred, truth, scores.size))
        for n, truth, pred in EXPLICIT_AFFILIATION:
            assert affiliation(pred, truth, n) == oracles.affiliation_matrix(pred, truth, n)

    def test_range_and_vus_areas_match_the_distance_matrix_form(self):
        for scores, labels in self.instances(24):
            truth = events_from_binary(labels)
            widths = (0.0, 0.5, 3.0, 10.0)
            for w, want in zip(widths, oracles.range_areas_matrix(scores, truth, widths)):
                self.assert_areas_match(range_auc(scores, truth, w), want)
            for w_max, step in ((10.0, 1.0), (4.0, 0.5)):
                self.assert_areas_match(vus(scores, truth, w_max, step),
                                        oracles.vus_matrix(scores, truth, w_max, step))

    def test_best_f1_keeps_the_last_maximum(self):
        for scores, labels in self.instances(22):
            assert best_f1(scores, labels) == oracles.best_f1_argmax_loop(scores, labels)
        # Thresholds 4 and 1 both give F1 2/3; the lower one wins.
        assert best_f1(np.array([4.0, 3.0, 2.0, 1.0]), np.array([1, 0, 0, 1]))[:2] == (2 / 3, 1.0)


class TestAffiliation:
    def test_exact_match_is_perfect(self):
        truth = [(5, 7), (12, 14)]
        p, r, f = affiliation(truth, truth, 20)
        assert p == 1.0 and r == 1.0 and f == 1.0

    def test_empty_pred(self):
        p, r, f = affiliation([], [(5, 7)], 20)
        assert p is None and f is None
        assert r == 0.0

    def test_nearer_prediction_scores_higher(self):
        truth = [(5, 7)]
        p_near, _, _ = affiliation([(6, 6)], truth, 20)
        p_far, _, _ = affiliation([(14, 14)], truth, 20)
        assert p_near > p_far

    def random_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(15, 80))
            labels = np.zeros(n, dtype=np.int64)
            for _ in range(int(rng.integers(1, 3))):
                s = int(rng.integers(0, n - 2))
                labels[s:s + int(rng.integers(1, 6))] = 1
            preds = np.zeros(n, dtype=np.int64)
            for _ in range(int(rng.integers(0, 4))):
                s = int(rng.integers(0, n - 1))
                preds[s:s + int(rng.integers(1, 5))] = 1
            yield n, events_from_binary(labels), events_from_binary(preds)

    def test_matches_zone_enumeration_oracle(self):
        for n, truth, pred_events in [*self.random_cases(), *EXPLICIT_AFFILIATION]:
            got = affiliation(pred_events, truth, n)
            want = oracles.affiliation_enum(pred_events, truth, n)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                else:
                    assert abs(g - w) <= 1e-9

    def test_empty_truth_rejected(self):
        with pytest.raises(DataError):
            affiliation([(1, 2)], [], 10)


class TestRangeAuc:
    def test_w_zero_reduces_to_plain_auc(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores, labels = random_instance(rng)
            truth = events_from_binary(labels)
            r_roc, r_pr = range_auc(scores, truth, 0.0)
            assert abs(r_roc - roc_auc(scores, labels)) <= 1e-9
            assert abs(r_pr - pr_auc(scores, labels)) <= 1e-9

    def test_perfect_scores_binary_case(self):
        # With w=0 the smoothed labels are binary and a perfect ordering
        # reaches exactly 1; for w>0 partial label mass caps the maximum
        # below 1, so perfection is only tested in the binary reduction.
        labels = np.array([0, 0, 0, 1, 1, 0, 0, 0, 0, 0])
        truth = events_from_binary(labels)
        scores = labels + np.arange(10) * 1e-9
        r_roc, r_pr = range_auc(scores, truth, 0.0)
        assert r_roc == pytest.approx(1.0, abs=1e-12)
        assert r_pr == pytest.approx(1.0, abs=1e-12)

    def test_aligned_scores_beat_shuffled(self):
        labels = np.array([0, 0, 0, 1, 1, 0, 0, 0, 0, 0])
        truth = events_from_binary(labels)
        ell = oracles.smooth_labels_dense(truth, 10, 3.0)
        aligned, _ = range_auc(ell, truth, 3.0)
        rng = np.random.default_rng(21)
        shuffled, _ = range_auc(rng.permutation(ell), truth, 3.0)
        assert aligned > shuffled

    def test_small_instance_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=30)
        truth = [(10, 14)]
        got = range_auc(scores, truth, 3.0)
        want = oracles.range_auc_dense(list(scores), truth, 3.0)
        assert abs(got[0] - want[0]) <= 1e-9
        assert abs(got[1] - want[1]) <= 1e-9

    def test_random_instances_match_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            scores, labels = random_instance(rng, n_max=80)
            truth = events_from_binary(labels)
            w = float(rng.integers(0, 6))
            got = range_auc(scores, truth, w)
            want = oracles.range_auc_dense(list(scores), truth, w)
            assert abs(got[0] - want[0]) <= 1e-9
            assert abs(got[1] - want[1]) <= 1e-9

    def test_degenerate_all_anomalous(self):
        assert range_auc(np.arange(5.0), [(0, 4)], 2.0) == (None, None)

    @pytest.mark.parametrize("w", [-1.0, float("nan"), float("inf")])
    def test_bad_width_rejected(self, w):
        with pytest.raises(DataError, match="buffer width"):
            range_auc(np.arange(5.0), [(1, 2)], w)


class TestVus:
    def test_wmax_zero_equals_plain(self):
        rng = np.random.default_rng(11)
        scores, labels = random_instance(rng)
        truth = events_from_binary(labels)
        v_roc, v_pr = vus(scores, truth, 0.0)
        assert abs(v_roc - roc_auc(scores, labels)) <= 1e-12
        assert abs(v_pr - pr_auc(scores, labels)) <= 1e-12

    def test_grid_mean(self):
        rng = np.random.default_rng(12)
        scores, labels = random_instance(rng)
        truth = events_from_binary(labels)
        v_roc, v_pr = vus(scores, truth, 2.0, 1.0)
        rocs, prs = zip(*(range_auc(scores, truth, w) for w in (0.0, 1.0, 2.0)))
        assert v_roc == pytest.approx(np.mean(rocs), abs=1e-12)
        assert v_pr == pytest.approx(np.mean(prs), abs=1e-12)

    def test_matches_per_width_range_auc_bitwise(self):
        # One sort and one distance map for every width give the bits of
        # one range_auc call per width.
        rng = np.random.default_rng(17)
        for _ in range(30):
            scores, labels = random_instance(rng)
            truth = events_from_binary(labels)
            w_max, step = float(rng.integers(0, 12)), float(rng.choice([0.5, 1.0, 2.5]))
            assert vus(scores, truth, w_max, step) == oracles.vus_per_width(
                scores, truth, w_max, step)
        assert vus(np.arange(6.0), [], 3.0) == oracles.vus_per_width(np.arange(6.0), [], 3.0)

    def test_full_coverage_undefined(self):
        assert vus(np.arange(6.0), [(0, 5)], 2.0) == (None, None)

    @pytest.mark.parametrize("w_max,step", [
        (-1.0, 1.0), (float("nan"), 1.0), (float("inf"), 1.0),
        (3.0, 0.0), (3.0, float("nan")), (3.0, float("inf")),
        (10.0, 1e-6), (10.0, 1e-300), (1000.0, 1.0),
    ])
    def test_bad_width_grid_rejected(self, w_max, step):
        # An infinite w_max once made the width loop run forever; a NaN one
        # computed as if it were 0.  Each width costs one O(n) area pass:
        # more than VUS_MAX_WIDTHS are refused before any is built, where a
        # step of 1e-6 once ran for hours and 1e-300 grew its list forever.
        with pytest.raises(DataError, match="w_max"):
            vus(np.arange(6.0), [(1, 2)], w_max, step)

    def test_widest_accepted_grid_keeps_its_bits(self):
        assert evalmetrics.vus_widths(999.0, 1.0) == [float(w) for w in range(1000)]
        assert len(evalmetrics.vus_widths(999.0, 1.0)) == evalmetrics.VUS_MAX_WIDTHS
        scores, labels = random_instance(np.random.default_rng(18), n_max=40)
        truth = events_from_binary(labels)
        assert vus(scores, truth, 99.9, 0.1) == oracles.vus_per_width(scores, truth, 99.9, 0.1)

    @pytest.mark.parametrize("step", [0.3, 1 / 3, 0.7, 1.0], ids=["0.3", "1/3", "0.7", "1"])
    def test_grid_ends_at_a_w_max_on_the_grid(self, step):
        # Summing the step width by width drifted below k * step and dropped
        # that endpoint for 409 of these k at step 0.3, 299 at 1/3, 117 at 0.7.
        for k in range(evalmetrics.VUS_MAX_WIDTHS):
            widths = evalmetrics.vus_widths(k * step, step)
            assert len(widths) == k + 1 and widths[-1] == k * step, k
        assert oracles.width_grid(999 * step, step) == evalmetrics.vus_widths(999 * step, step)

    def test_outputs_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            scores, labels = random_instance(rng)
            truth = events_from_binary(labels)
            v_roc, v_pr = vus(scores, truth, 4.0)
            assert 0.0 <= v_roc <= 1.0
            assert 0.0 <= v_pr <= 1.0


class TestEvaluate:
    def test_report_fields_and_none_dropping(self):
        rng = np.random.default_rng(14)
        scores, labels = random_instance(rng)
        report = evaluate(scores, labels, point_adjust_on=True, delta=5.0,
                          range_w=3.0, vus_wmax=3.0)
        d = report.to_dict()
        for key in ("auc_roc", "auc_pr", "best_f1", "aff_recall",
                    "r_auc_roc", "vus_roc"):
            assert key in d
        assert all(v is not None for v in d.values())

    def test_metric_subset(self):
        rng = np.random.default_rng(15)
        scores, labels = random_instance(rng)
        report = evaluate(scores, labels, metrics=("roc",))
        assert report.auc_roc is not None
        assert report.auc_pr is None and report.vus_roc is None

    def test_all_defined_metrics_in_unit_interval(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            scores, labels = random_instance(rng)
            for k, v in evaluate(scores, labels).to_dict().items():
                if k == "best_f1_threshold":  # a score value, not a rate
                    continue
                assert -1e-12 <= v <= 1.0 + 1e-12, (k, v)

    @pytest.mark.parametrize("pa,sweeps", [(True, 2), (False, 1)], ids=["pa-on", "pa-off"])
    def test_one_sweep_per_score_series(self, monkeypatch, pa, sweeps):
        """The adjusted scores and the raw ones are each sorted once, for every
        group that reads them; without point adjust they are one series."""
        rng = np.random.default_rng(17)
        scores, labels = random_instance(rng)
        want = evaluate(scores, labels, point_adjust_on=pa).to_dict()
        calls, real = [], evalmetrics._sweep
        monkeypatch.setattr(evalmetrics, "_sweep", lambda s: calls.append(1) or real(s))
        assert evaluate(scores, labels, point_adjust_on=pa).to_dict() == want
        assert len(calls) == sweeps

    def test_shared_sweeps_equal_separate_calls(self):
        """evaluate's report equals each metric function called on its own,
        which sorts its scores itself, and the areas of a sweep of their own
        (``separate_areas``), bit for bit."""
        rng = np.random.default_rng(19)
        for i in range(200):
            scores, labels = random_instance(rng)
            pa = bool(i % 2)
            truth = events_from_binary(labels)
            adjusted = point_adjust(scores, truth) if pa else scores
            f1, thr, prec, rec = best_f1(adjusted, labels)
            want = MetricReport(*separate_areas(adjusted, labels),
                                f1, thr, prec, rec, *affiliation(
                                    events_from_binary(threshold_percentile(scores, 2.0)),
                                    truth, len(scores)),
                                *range_auc(scores, truth, 3.0), *vus(scores, truth, 4.0))
            got = evaluate(scores, labels, point_adjust_on=pa, delta=2.0, range_w=3.0,
                           vus_wmax=4.0)
            assert got == want, i

    @pytest.mark.parametrize("pa", [True, False], ids=["pa-on", "pa-off"])
    def test_roc_and_pr_read_from_one_areas_pass(self, monkeypatch, pa):
        """AUC-ROC and AUC-PR come from one _areas pass over the sweep, then
        range-AUC takes one and VUS one per width (11 at w_max 10)."""
        rng = np.random.default_rng(20)
        scores, labels = random_instance(rng)
        want = evaluate(scores, labels, point_adjust_on=pa).to_dict()
        calls, real = [], evalmetrics._areas
        monkeypatch.setattr(evalmetrics, "_areas", lambda *a: calls.append(1) or real(*a))
        assert evaluate(scores, labels, point_adjust_on=pa).to_dict() == want
        assert len(calls) == 13

    def test_one_areas_pass_equals_separate_calls_bitwise(self):
        """On 1,000 random instances and subsets of the point-wise groups, the
        report equals the areas of a sweep of its own (``separate_areas``) and
        best_f1 called on its own, bit for bit."""
        rng = np.random.default_rng(22)
        for i in range(1000):
            scores, labels = random_instance(rng)
            if rng.random() < 0.1:
                labels[:] = rng.random() < 0.5     # no positives or no negatives
            pa = bool(i % 2)
            groups = tuple(g for g in ("roc", "pr", "f1") if rng.random() < 0.7) or ("pr",)
            adjusted = point_adjust(scores, events_from_binary(labels)) if pa else scores
            f1 = best_f1(adjusted, labels) if "f1" in groups else None
            roc, ap = separate_areas(adjusted, labels)
            want = MetricReport(roc if "roc" in groups else None,
                                ap if "pr" in groups else None,
                                *(f1 or (None,) * 4)).to_dict()
            got = evaluate(scores, labels, point_adjust_on=pa, metrics=groups).to_dict()
            assert list(got) == list(want), i
            assert all(np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes()
                       for k in want), i

    def test_peak_memory_is_linear_in_timestamps(self):
        """At 100,000 timestamps and 300 events no metric holds an array of
        events x timestamps: the distance-matrix forms peaked at 462 MB on this input."""
        rng = np.random.default_rng(18)
        n = 100_000
        labels = np.zeros(n, dtype=np.int64)
        for s in rng.choice(np.arange(0, n - 20, 300), 300, replace=False):
            labels[s:s + int(rng.integers(1, 20))] = 1
        assert len(events_from_binary(labels)) == 300
        scores = rng.normal(size=n) + labels
        tracemalloc.start()
        try:
            report = evaluate(scores, labels, point_adjust_on=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.aff_f1 is not None and report.vus_roc is not None
        assert peak < 32 * 2**20, peak
