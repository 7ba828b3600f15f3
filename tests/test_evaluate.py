import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe.errors import GeometryError
from lgsqe.evaluate import _pr_points, histogram_svg


def pr_points_oracle(scores, labels):
    """Brute force: every distinct score plus {0,1} as a threshold, one scan each."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    positives = int(np.sum(labels == 1))
    thresholds = sorted(set(scores.tolist()) | {0.0, 1.0}, reverse=True)
    points = []
    for t in thresholds:
        predicted = scores >= t
        pp = int(predicted.sum())
        if pp == 0:
            continue
        tp = int(np.sum(predicted & (labels == 1)))
        points.append((tp / positives, tp / pp))
    if points:
        points.insert(0, (0.0, points[0][1]))
    return points


def pr_auc_oracle(scores, labels):
    points = pr_points_oracle(scores, labels)
    area = 0.0
    for (r0, p0), (r1, p1) in zip(points[:-1], points[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area


class TestConfusion:
    def test_basic(self):
        counts = lgsqe.confusion(np.array([0.1, 0.9]), np.array([0, 1]), 0.5)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == (1, 1, 0, 0)

    def test_zero_threshold_everything_positive(self):
        counts = lgsqe.confusion(np.array([0.2, 0.8, 0.4]), np.array([0, 1, 1]), 0.0)
        assert counts.tn == 0 and counts.fn == 0
        assert counts.tp == 2 and counts.fp == 1

    def test_hand_tally_twenty_pairs(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=20)
        labels = rng.integers(0, 2, size=20)
        counts = lgsqe.confusion(scores, labels, 0.5)
        tp = fp = tn = fn = 0
        for s, y in zip(scores, labels):
            if s >= 0.5:
                tp, fp = tp + (y == 1), fp + (y == 0)
            else:
                fn, tn = fn + (y == 1), tn + (y == 0)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        assert counts.total == 20

    def test_length_mismatch(self):
        with pytest.raises(GeometryError):
            lgsqe.confusion(np.array([0.5]), np.array([0, 1]), 0.5)


class TestRatios:
    def test_exact_arithmetic(self):
        counts = lgsqe.ConfusionCounts(tp=8, fp=2, tn=8, fn=2)
        assert lgsqe.precision(counts) == 0.8
        assert lgsqe.recall(counts) == 0.8
        assert lgsqe.accuracy(counts) == 0.8

    def test_undefined_precision_is_absent(self):
        counts = lgsqe.ConfusionCounts(tp=0, fp=0, tn=5, fn=3)
        assert lgsqe.precision(counts) is None
        assert lgsqe.recall(counts) == 0.0

    def test_undefined_recall_is_absent(self):
        counts = lgsqe.ConfusionCounts(tp=0, fp=4, tn=5, fn=0)
        assert lgsqe.recall(counts) is None

    @given(
        tp=st.integers(0, 40), fp=st.integers(0, 40), tn=st.integers(0, 40), fn=st.integers(0, 40)
    )
    @settings(max_examples=80)
    def test_matches_defining_ratios(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0:
            return
        counts = lgsqe.ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        assert lgsqe.accuracy(counts) == (tp + tn) / (tp + fp + tn + fn)
        if tp + fp:
            assert lgsqe.precision(counts) == tp / (tp + fp)
        if tp + fn:
            assert lgsqe.recall(counts) == tp / (tp + fn)


class TestPrAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert lgsqe.pr_auc(scores, labels) == 1.0

    def test_constant_scores_give_prevalence(self):
        scores = np.full(8, 0.5)
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        assert lgsqe.pr_auc(scores, labels) == 0.5

    def test_ten_point_hand_case(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=10)
        labels = rng.integers(0, 2, size=10)
        if labels.sum() in (0, 10):
            labels[0] = 1 - labels[0]
        assert lgsqe.pr_auc(scores, labels) == pytest.approx(pr_auc_oracle(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            lgsqe.pr_auc(np.array([0.5, 0.6]), np.array([1, 1]))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32), ties=st.booleans())
    @settings(max_examples=100)
    def test_matches_brute_force(self, seed, n, ties):
        rng = np.random.default_rng(seed)
        if ties:
            scores = rng.choice([0.2, 0.4, 0.5, 0.8], size=n)
        else:
            scores = rng.uniform(0.01, 0.99, size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert lgsqe.pr_auc(scores, labels) == pytest.approx(pr_auc_oracle(scores, labels), abs=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        levels=st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.5 + 1e-12]) | st.floats(0, 1), min_size=1, max_size=8),
    )
    @settings(max_examples=150)
    def test_equals_the_threshold_loop_bit_for_bit(self, seed, n, levels):
        """Many tied scores, 0 and 1 among them: the points and the area equal a
        scan of all scores per threshold exactly, not only to a tolerance."""
        rng = np.random.default_rng(seed)
        scores = rng.choice(np.array(levels), size=n)
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        labels[: 2] = [0, 1]
        assert list(zip(*(a.tolist() for a in _pr_points(scores, labels)))) == pr_points_oracle(scores, labels)
        assert lgsqe.pr_auc(scores, labels) == pr_auc_oracle(scores, labels)


class TestRocAuc:
    def test_perfect(self):
        assert lgsqe.roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0

    def test_constant_is_half(self):
        assert lgsqe.roc_auc(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_matches_pairwise_count(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert lgsqe.roc_auc(scores, labels) == pytest.approx(wins / (pos.size * neg.size), abs=1e-12)


@pytest.mark.parametrize("metric", [lgsqe.pr_auc, lgsqe.roc_auc], ids=["pr_auc", "roc_auc"])
class TestAucLabels:
    def test_non_binary_labels_rejected(self, metric):
        # A 2 is neither class: the two metrics once read it differently (negative vs dropped).
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            metric(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 2, 1, 1]))

    def test_bool_labels_accepted(self, metric):
        scores = np.array([0.1, 0.6, 0.4, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert metric(scores, labels.astype(bool)) == metric(scores, labels)


class TestHistogram:
    def test_two_bins(self):
        hist = lgsqe.score_histogram(np.array([0.25, 0.75]), np.array([0, 1]), bins=2)
        assert hist["real"] == [1, 0]
        assert hist["generated"] == [0, 1]

    def test_last_bin_right_closed(self):
        hist = lgsqe.score_histogram(np.array([0.999, 1.0]), np.array([1, 1]), bins=4)
        assert hist["generated"] == [0, 0, 0, 2]

    def test_counts_sum_per_provenance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=100)
        provenance = rng.integers(0, 2, size=100)
        hist = lgsqe.score_histogram(scores, provenance, bins=10)
        assert sum(hist["real"]) == int(np.sum(provenance == 0))
        assert sum(hist["generated"]) == int(np.sum(provenance == 1))

    def test_svg_emission(self):
        hist = lgsqe.score_histogram(np.array([0.2, 0.6]), np.array([0, 1]), bins=5)
        svg = histogram_svg(hist)
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= 10
        assert svg.rstrip().endswith("</svg>")


class TestFilterSamples:
    def test_identity_keep_all(self):
        ids = np.array([3, 1, 2, 0])
        scores = np.array([0.4, 0.1, 0.3, 0.2])
        kept = lgsqe.filter_samples(ids, scores, 1.0)
        np.testing.assert_array_equal(kept, [1, 0, 2, 3])  # ascending score order

    def test_keep_half(self):
        ids = np.arange(4)
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        np.testing.assert_array_equal(lgsqe.filter_samples(ids, scores, 0.5), [0, 2])

    def test_ties_break_by_id(self):
        ids = np.array([5, 2, 9])
        scores = np.array([0.5, 0.5, 0.5])
        np.testing.assert_array_equal(lgsqe.filter_samples(ids, scores, 0.67), [2, 5])

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            lgsqe.filter_samples(np.arange(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            lgsqe.filter_samples(np.arange(3), np.zeros(3), 1.5)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
    @settings(max_examples=60)
    def test_prefix_of_sorted_scores(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(size=n).round(2)  # provoke ties
        ids = rng.permutation(n)
        id_to_score = dict(zip(ids.tolist(), scores.tolist()))
        kept = lgsqe.filter_samples(ids, scores, 0.5)
        kept_scores = np.array([id_to_score[i] for i in kept.tolist()])
        assert np.all(np.diff(kept_scores) >= 0)
        full_sorted = np.sort(scores)
        np.testing.assert_array_equal(kept_scores, full_sorted[: kept.size])

    def test_mean_kept_score_non_increasing_over_grid(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=200)
        ids = np.arange(200)
        means = []
        for fraction in [1.0, 0.8, 0.6, 0.4, 0.2]:
            kept = lgsqe.filter_samples(ids, scores, fraction)
            means.append(scores[kept].mean())
        assert np.all(np.diff(means) <= 1e-12)


class TestAggregateReport:
    def test_perfectly_separable(self):
        scores = np.array([0.05, 0.1, 0.9, 0.95])
        labels = np.array([0, 0, 1, 1])
        report = lgsqe.aggregate_report(scores, labels)
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.pr_auc == 1.0
        assert report.roc_auc == 1.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.01, 0.99, size=50)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        report = lgsqe.aggregate_report(scores, labels, threshold=0.4, bins=10, metadata={"run": "t"})
        doc = json.loads(report.to_json())
        clone = lgsqe.EvaluationReport.from_dict(doc)
        assert clone.to_json() == report.to_json()
        assert doc["format_version"] == report.version

    def test_metric_ranges(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(0.01, 0.99, size=80)
        labels = rng.integers(0, 2, size=80)
        labels[:2] = [0, 1]
        report = lgsqe.aggregate_report(scores, labels)
        for value in (report.accuracy, report.pr_auc, report.roc_auc):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("labels", [[], [0, 0, 0], [1]], ids=["empty", "real-only", "generated-only"])
    def test_labels_without_both_classes_refused_first(self, monkeypatch, labels):
        def no_metric(*args, **kwargs):
            raise AssertionError("a metric was computed")

        monkeypatch.setattr(lgsqe.evaluate, "confusion", no_metric)
        with pytest.raises(ValueError, match="both classes must be present"):
            lgsqe.aggregate_report(np.full(len(labels), 0.5), np.array(labels, dtype=np.int8))
