import json

import numpy as np
import pytest

import lgsqe
from lgsqe.errors import GeometryError
from lgsqe.gbdt import MAX_BINS, BoostedEnsemble, GbdtParams, _sigmoid, fit_ensemble


def separable_1d(n=100, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, -0.01, n // 2)
    x1 = rng.uniform(0.01, 1.0, n // 2)
    features = np.concatenate([x0, x1])[:, None]
    labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return features, labels


class TestFit:
    def test_separable_training_accuracy(self):
        features, labels = separable_1d()
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=5, max_depth=2, min_samples_leaf=2))
        scores = ensemble.predict_score(features)
        assert np.all((scores >= 0.5) == (labels == 1))
        assert np.all(scores[labels == 0] < 0.5)
        assert np.all(scores[labels == 1] > 0.5)

    def test_hand_computed_depth_one_leaves(self):
        # 4 points, balanced prior -> base margin 0, p = 0.5 everywhere:
        # g = [.5,.5,-.5,-.5], h = .25 each. Best split at 1.5 gives
        # G_L=1, H_L=0.5 so left leaf -1/1.5; right leaf +1/1.5.
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        params = GbdtParams(n_rounds=1, max_depth=1, min_samples_leaf=1, reg_lambda=1.0)
        ensemble = fit_ensemble(features, labels, params)
        tree = ensemble.trees[0]
        assert ensemble.base_score == 0.0
        root = 0
        assert tree.feature[root] == 0
        assert tree.threshold[root] == 1.5
        left, right = tree.left[root], tree.right[root]
        g_l, h_l = 0.5 + 0.5, 0.25 + 0.25
        assert abs(tree.value[left] - (-g_l / (h_l + 1.0))) < 1e-12
        assert abs(tree.value[right] - (g_l / (h_l + 1.0))) < 1e-12

    def test_independent_labels_mean_score_near_half(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(2000, 8))
        labels = np.concatenate([np.zeros(1000), np.ones(1000)])
        rng.shuffle(labels)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=60, max_depth=3))
        mean_score = ensemble.predict_score(features).mean()
        assert abs(mean_score - 0.5) < 0.05

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(400, 6))
        margin = features[:, 0] + 0.5 * features[:, 1] + 0.3 * rng.normal(size=400)
        labels = (margin > 0).astype(float)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=40, max_depth=3))
        assert np.all(np.diff(ensemble.train_loss) <= 1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_ensemble(np.zeros((4, 1)), np.ones(4))

    def test_non_finite_rejected(self):
        features = np.array([[0.0], [np.nan], [1.0], [2.0]])
        with pytest.raises(ValueError):
            fit_ensemble(features, np.array([0.0, 0.0, 1.0, 1.0]))

    def test_deterministic_serialization(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(150, 5))
        labels = (features[:, 0] > 0).astype(float)
        params = GbdtParams(n_rounds=12, max_depth=3, subsample=0.8)
        a = fit_ensemble(features, labels, params, seed=11)
        b = fit_ensemble(features, labels, params, seed=11)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
        assert fit_ensemble(features, labels, params, seed=12).to_dict() != a.to_dict()

    def test_monotone_feature_transform_keeps_decisions(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(200, 5))
        labels = (features[:, 0] + features[:, 2] > 0).astype(float)
        params = GbdtParams(n_rounds=10, max_depth=3, min_samples_leaf=2)
        base = fit_ensemble(features, labels, params)
        transformed = fit_ensemble(features**3, labels, params)
        np.testing.assert_array_equal(
            base.predict_score(features), transformed.predict_score(features**3)
        )
        assert not np.array_equal(base.trees[0].threshold, transformed.trees[0].threshold)

    def test_min_samples_leaf_respected(self):
        features, labels = separable_1d(40)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=3, max_depth=6, min_samples_leaf=10))
        for tree in ensemble.trees:
            counts = _leaf_counts(tree, features)
            assert all(c >= 10 for c in counts.values())


def _leaf_counts(tree, features):
    idx = np.zeros(features.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        active = feat >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        goes_left = features[rows, feat[rows]] < tree.threshold[idx[rows]]
        idx[rows] = np.where(goes_left, tree.left[idx[rows]], tree.right[idx[rows]])
    leaves, counts = np.unique(idx, return_counts=True)
    return dict(zip(leaves.tolist(), counts.tolist()))


def _exact_greedy_tree(x, g, h, rows, params):
    """Reference: exact greedy split search over each feature's sorted values.

    Returns (feature, threshold, left, right, value) lists in preorder, the
    node order of the library's builder.
    """
    lam, min_leaf = params.reg_lambda, params.min_samples_leaf
    nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def grow(rows, depth):
        node = len(nodes["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1), ("value", 0.0)):
            nodes[key].append(blank)
        best_gain, best = -np.inf, None
        if depth < params.max_depth and rows.size >= 2 * min_leaf:
            for feat in range(x.shape[1]):
                order = rows[np.argsort(x[rows, feat], kind="stable")]
                vals = x[order, feat]
                g_cum, h_cum = np.cumsum(g[order]), np.cumsum(h[order])
                gl, hl = g_cum[:-1], h_cum[:-1]
                gr, hr = g_cum[-1] - gl, h_cum[-1] - hl
                gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - g_cum[-1] ** 2 / (h_cum[-1] + lam))
                counts = np.arange(1, rows.size)
                valid = (vals[:-1] != vals[1:]) & (counts >= min_leaf) & (rows.size - counts >= min_leaf)
                gain = np.where(valid, gain, -np.inf)
                pos = int(np.argmax(gain))
                if gain[pos] > best_gain:
                    best_gain = gain[pos]
                    best = feat, (vals[pos] + vals[pos + 1]) / 2.0, np.sort(order[: pos + 1]), np.sort(order[pos + 1 :])
        if best is None or best_gain <= 0.0:
            nodes["value"][node] = -g[rows].sum() / (h[rows].sum() + lam)
            return node
        feat, thr, left_rows, right_rows = best
        nodes["feature"][node], nodes["threshold"][node] = feat, thr
        nodes["left"][node] = grow(left_rows, depth + 1)
        nodes["right"][node] = grow(right_rows, depth + 1)
        return node

    grow(rows, 0)
    return nodes


def _few_valued_fixture(seed, n=300):
    """Columns with 2 to MAX_BINS distinct values, one column duplicated."""
    rng = np.random.default_rng(seed)
    levels = [2, 7, 40, MAX_BINS]
    columns = [rng.normal(size=k)[rng.integers(0, k, n)] for k in levels]
    features = np.stack(columns + [columns[1]], axis=1)
    labels = (features[:, 0] + 0.5 * features[:, 2] + 0.7 * rng.normal(size=n) > 0).astype(float)
    return features, labels


class TestHistogramOracle:
    @pytest.mark.parametrize(
        "seed, params",
        [
            (0, GbdtParams(n_rounds=8, max_depth=4, min_samples_leaf=1)),
            (1, GbdtParams(n_rounds=8, max_depth=3, min_samples_leaf=7, reg_lambda=0.5)),
            (2, GbdtParams(n_rounds=8, max_depth=4, min_samples_leaf=3, subsample=0.7)),
        ],
    )
    def test_same_splits_as_exact_greedy(self, seed, params):
        features, labels = _few_valued_fixture(seed)
        ensemble = fit_ensemble(features, labels, params, seed=seed)  # seed also drives the subsample
        rng = np.random.default_rng(seed)
        margin = np.full(labels.size, ensemble.base_score)
        for tree in ensemble.trees:
            p = _sigmoid(margin)
            rows = np.arange(labels.size)
            if params.subsample < 1.0:
                rows = np.sort(rng.choice(labels.size, size=int(params.subsample * labels.size), replace=False))
            ref = _exact_greedy_tree(features, p - labels, p * (1.0 - p), rows, params)
            assert tree.feature.tolist() == ref["feature"]
            assert tree.threshold.tolist() == ref["threshold"]
            assert tree.left.tolist() == ref["left"] and tree.right.tolist() == ref["right"]
            np.testing.assert_allclose(tree.value, ref["value"], rtol=0, atol=1e-12)
            margin = margin + params.learning_rate * tree.predict_margin(features)


class TestQuantized:
    """More rows than MAX_BINS, so continuous columns are binned at rank quantiles."""

    def test_deterministic_serialization(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(600, 5))
        labels = (features[:, 0] + 0.5 * rng.normal(size=600) > 0).astype(float)
        params = GbdtParams(n_rounds=12, max_depth=3, subsample=0.8)
        a = fit_ensemble(features, labels, params, seed=11)
        b = fit_ensemble(features, labels, params, seed=11)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_min_samples_leaf_respected(self):
        features, labels = separable_1d(600)
        rng = np.random.default_rng(6)
        features = np.hstack([features, rng.normal(size=(600, 3))])
        labels = np.where(rng.random(600) < 0.15, 1.0 - labels, labels)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=5, max_depth=6, min_samples_leaf=40))
        for tree in ensemble.trees:
            counts = _leaf_counts(tree, features)
            assert all(c >= 40 for c in counts.values())

    def test_monotone_feature_transform_keeps_decisions(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(600, 5))
        labels = (features[:, 0] + features[:, 2] > 0).astype(float)
        params = GbdtParams(n_rounds=10, max_depth=3, min_samples_leaf=2)
        base = fit_ensemble(features, labels, params)
        transformed = fit_ensemble(features**3, labels, params)
        np.testing.assert_array_equal(
            base.predict_score(features), transformed.predict_score(features**3)
        )
        assert not np.array_equal(base.trees[0].threshold, transformed.trees[0].threshold)


class TestPredict:
    def test_empty_ensemble_balanced_prior(self):
        features = np.random.default_rng(0).normal(size=(20, 3))
        labels = np.concatenate([np.zeros(10), np.ones(10)])
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=0))
        np.testing.assert_array_equal(ensemble.predict_score(features), np.full(20, 0.5))

    def test_scores_strictly_inside_unit_interval(self):
        features, labels = separable_1d(200)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=200, max_depth=2, min_samples_leaf=1))
        scores = ensemble.predict_score(features)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_width_mismatch(self):
        features, labels = separable_1d(40)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=2))
        with pytest.raises(GeometryError):
            ensemble.predict_score(np.zeros((3, 2)))

    def test_round_trip_serialization(self):
        features, labels = separable_1d(60, seed=5)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=6, max_depth=3, min_samples_leaf=2))
        clone = BoostedEnsemble.from_dict(json.loads(json.dumps(ensemble.to_dict())))
        np.testing.assert_array_equal(clone.predict_score(features), ensemble.predict_score(features))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GbdtParams(learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            GbdtParams(subsample=0.0).validate()
        with pytest.raises(ValueError):
            GbdtParams(max_depth=0).validate()
