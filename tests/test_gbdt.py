import json

import numpy as np
import pytest

import lgsqe
from lgsqe.errors import FormatError, GeometryError
from lgsqe.gbdt import MAX_BINS, BoostedEnsemble, GbdtParams, _best_split, _log_loss, _sigmoid, fit_ensemble

from conftest import traced_peak


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
        assert ensemble.base_score == 0.0
        assert ensemble.roots.tolist() == [0]
        assert ensemble.feature.tolist() == [0, -1, -1]
        assert ensemble.threshold[0] == 1.5
        left, right = 1, ensemble.right[0]
        assert right == 2
        g_l, h_l = 0.5 + 0.5, 0.25 + 0.25
        assert abs(ensemble.value[left] - (-g_l / (h_l + 1.0))) < 1e-12
        assert abs(ensemble.value[right] - (g_l / (h_l + 1.0))) < 1e-12

    @pytest.mark.parametrize("low, high", [(1.0, 1.0 + 2**-52), (0.0, 5e-324)])
    def test_threshold_between_adjacent_doubles(self, low, high):
        # The midpoint of two adjacent doubles rounds onto the lower one; the
        # threshold must still send the lower value left.
        features = np.array([[low], [low], [high], [high]])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=1, max_depth=1, min_samples_leaf=1))
        assert ensemble.threshold[0] == high
        scores = ensemble.predict_score(features)
        assert np.all(scores[:2] < 0.5) and np.all(scores[2:] > 0.5)

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

    def test_non_binary_labels_rejected(self):
        # a label 2 would otherwise count twice toward the positive prior
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_ensemble(features, np.array([0, 0, 2, 1]))
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_ensemble(features, np.array([0, 2, 1, 1]))

    def test_bool_labels_accepted(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        params = GbdtParams(n_rounds=3, min_samples_leaf=1)
        as_bool = fit_ensemble(features, labels.astype(bool), params)
        assert as_bool.to_dict() == fit_ensemble(features, labels, params).to_dict()

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
        assert not np.array_equal(base.threshold, transformed.threshold)

    def test_min_samples_leaf_respected(self):
        features, labels = separable_1d(40)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=3, max_depth=6, min_samples_leaf=10))
        _, counts = np.unique(_reference_leaves(ensemble, features), return_counts=True)
        assert counts.min() >= 10


def _reference_leaves(ensemble, features):
    """Oracle for the packed descent: walk each tree on its own, one level at a time."""
    leaves = np.empty((features.shape[0], ensemble.roots.size), dtype=np.int64)
    for t, root in enumerate(ensemble.roots):
        idx = np.full(features.shape[0], root, dtype=np.int64)
        while True:
            feat = ensemble.feature[idx]
            active = feat >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            goes_left = features[rows, feat[rows]] < ensemble.threshold[idx[rows]]
            idx[rows] = np.where(goes_left, idx[rows] + 1, ensemble.right[idx[rows]])
        leaves[:, t] = idx
    return leaves


def _reference_margin(ensemble, features):
    """Oracle for predict_margin: add the trees' leaf values one tree at a time."""
    margin = np.full(features.shape[0], ensemble.base_score)
    for leaf in _reference_leaves(ensemble, features).T:
        margin += ensemble.learning_rate * ensemble.value[leaf]
    return margin


def _exact_greedy_split(x, g, h, rows, params):
    """Reference: exact greedy split search over each feature's sorted values.

    Returns (gain, feature, threshold, left rows, right rows) of the best
    split of the node holding ``rows``, or None if no split gains.
    """
    lam, min_leaf = params.reg_lambda, params.min_samples_leaf
    best_gain, best = -np.inf, None
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
    return None if best is None or best_gain <= 0.0 else (best_gain, *best)


def _can_split(rows, depth, params):
    return depth < params.max_depth and rows.size >= 2 * params.min_samples_leaf


def _exact_greedy_tree(x, g, h, rows, params):
    """Reference: a tree of exact greedy splits.

    Returns (feature, threshold, left, right, value) lists in preorder, the
    node order of the library's builder.
    """
    nodes = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def grow(rows, depth):
        node = len(nodes["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1), ("value", 0.0)):
            nodes[key].append(blank)
        best = _exact_greedy_split(x, g, h, rows, params) if _can_split(rows, depth, params) else None
        if best is None:
            nodes["value"][node] = -g[rows].sum() / (h[rows].sum() + params.reg_lambda)
            return node
        _, feat, thr, left_rows, right_rows = best
        nodes["feature"][node], nodes["threshold"][node] = feat, thr
        nodes["left"][node] = grow(left_rows, depth + 1)
        nodes["right"][node] = grow(right_rows, depth + 1)
        return node

    grow(rows, 0)
    return nodes


def _few_valued_fixture(seed, n=300, levels=(2, 7, 40, MAX_BINS)):
    """Columns with the given numbers of distinct values, the second one duplicated."""
    rng = np.random.default_rng(seed)
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
        leaves = _reference_leaves(ensemble, features)
        ends = np.append(ensemble.roots[1:], ensemble.value.size)
        for t, (root, end) in enumerate(zip(ensemble.roots, ends)):
            p = _sigmoid(margin)
            rows = np.arange(labels.size)
            if params.subsample < 1.0:
                rows = np.sort(rng.choice(labels.size, size=int(params.subsample * labels.size), replace=False))
            ref = _exact_greedy_tree(features, p - labels, p * (1.0 - p), rows, params)
            splits = [i for i, f in enumerate(ref["feature"]) if f >= 0]
            assert [ref["left"][i] for i in splits] == [i + 1 for i in splits]
            right = ensemble.right[root:end]
            assert ensemble.feature[root:end].tolist() == ref["feature"]
            assert ensemble.threshold[root:end].tolist() == ref["threshold"]
            assert np.where(right >= 0, right - root, -1).tolist() == ref["right"]
            np.testing.assert_allclose(ensemble.value[root:end], ref["value"], rtol=0, atol=1e-12)
            margin = margin + params.learning_rate * ensemble.value[leaves[:, t]]

    def test_small_nodes_split_as_well_as_exact_greedy(self):
        """Many columns of 3 to 6 values and single-row leaves: deep trees end
        in nodes of a few rows (3 at the median leaf), where most of the bin
        grid is empty. There, several partitions often tie in exact
        arithmetic, and the two searches, summing in different orders, may
        round the tie apart. So each node is checked on its own: a split must
        gain what exact greedy's best gains, and a leaf must be a node exact
        greedy would not split either."""
        features, labels = _few_valued_fixture(3, levels=(3, 4, 5, 6) * 6)
        params = GbdtParams(n_rounds=6, max_depth=7, min_samples_leaf=1)
        lam = params.reg_lambda
        ensemble = fit_ensemble(features, labels, params)
        margin = np.full(labels.size, ensemble.base_score)
        leaves = _reference_leaves(ensemble, features)
        for t, root in enumerate(ensemble.roots):
            p = _sigmoid(margin)
            g, h = p - labels, p * (1.0 - p)

            def check(node, rows, depth):
                best = _exact_greedy_split(features, g, h, rows, params) if _can_split(rows, depth, params) else None
                feat = ensemble.feature[node]
                if feat < 0:
                    assert best is None or best[0] < 1e-12
                    assert ensemble.value[node] == pytest.approx(-g[rows].sum() / (h[rows].sum() + lam), abs=1e-12)
                    return
                goes_left = features[rows, feat] < ensemble.threshold[node]
                sides = [(g[side].sum(), h[side].sum()) for side in (rows[goes_left], rows[~goes_left])]
                (gl, hl), (gr, hr) = sides
                gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - (gl + gr) ** 2 / (hl + hr + lam))
                assert best is not None and gain == pytest.approx(best[0], rel=1e-9, abs=1e-12)
                check(node + 1, rows[goes_left], depth + 1)
                check(ensemble.right[node], rows[~goes_left], depth + 1)

            check(root, np.arange(labels.size), 0)
            margin = margin + params.learning_rate * ensemble.value[leaves[:, t]]


def _reference_best_split(hist, params):
    """Oracle for _best_split: the feature-major scan over a (3, d, MAX_BINS) histogram."""
    lam = params.reg_lambda
    min_leaf = params.min_samples_leaf
    g_cum, h_cum, n_cum = np.cumsum(hist, axis=2)
    n_node = n_cum[0, -1]
    # Ascending feature-major order makes argmax tie-break (feature, threshold).
    cand = np.flatnonzero((hist[2] > 0) & (n_cum >= min_leaf) & (n_cum <= n_node - min_leaf))
    if cand.size == 0:
        return None
    feat = cand // MAX_BINS
    gl = g_cum.ravel()[cand]
    hl = h_cum.ravel()[cand]
    g_tot = g_cum[feat, -1]
    h_tot = h_cum[feat, -1]
    gr = g_tot - gl
    hr = h_tot - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - g_tot**2 / (h_tot + lam))
    gain = np.where(np.isfinite(gain), gain, -np.inf)
    best = int(np.argmax(gain))
    if gain[best] <= 0.0:
        return None
    return divmod(int(cand[best]), MAX_BINS)


def _bin_major_histogram(codes, g, h, rows):
    """(MAX_BINS, 3, d) sums of g, h and counts over ``rows``, as the builder counts them."""
    d = codes.shape[1]
    idx = (codes[rows] * d + np.arange(d)).ravel()
    sums = [np.bincount(idx, weights=np.repeat(w[rows], d), minlength=MAX_BINS * d) for w in (g, h)]
    counts = np.bincount(idx, minlength=MAX_BINS * d).astype(np.float64)
    return np.stack(sums + [counts]).reshape(3, MAX_BINS, d).transpose(1, 0, 2).copy()


def _random_node_histograms(seed):
    """Histograms of a node, its counted child and the sibling left as their
    difference, where the node itself is its parent minus a counted sibling,
    so that bins no row reaches keep residues. Columns have few to many codes,
    one is empty and some are constant or duplicated; gradients are integers
    (exact ties within and across columns) or normal, and some hessians are 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 400))
    levels = rng.choice([1, 2, 3, 8, 40, MAX_BINS], size=12)
    codes = np.stack([rng.integers(0, k, n) for k in levels], axis=1)
    codes = np.hstack([codes, codes[:, :3]])  # duplicates tie exactly with their originals
    if seed % 2:
        g = rng.integers(-2, 3, n).astype(np.float64)
        h = rng.choice([0.0, 0.25], n)
    else:
        g = rng.normal(size=n)
        h = rng.uniform(0.0, 0.25, n) * (rng.random(n) < 0.8)
    rows = np.arange(n)
    parts = rng.choice(3, n, p=[0.3, 0.6, 0.1])  # 0: the node's sibling; 1: its counted child; 2: the rest
    node = _bin_major_histogram(codes, g, h, rows) - _bin_major_histogram(codes, g, h, rows[parts == 0])
    child = _bin_major_histogram(codes, g, h, rows[parts == 1])
    hists = [node, child, node - child]
    for hist in hists:
        hist[:, :, 5] = 0.0  # a column no row reaches
    return hists


class TestBestSplit:
    """The bin-major scan against the feature-major oracle, on bit-equal histograms."""

    @pytest.mark.parametrize("reg_lambda, min_samples_leaf", [(1.0, 1), (0.0, 1), (0.5, 3), (0.0, 7)])
    def test_same_split_as_feature_major_scan(self, reg_lambda, min_samples_leaf):
        params = GbdtParams(reg_lambda=reg_lambda, min_samples_leaf=min_samples_leaf)
        for seed in range(48):
            for hist in _random_node_histograms(seed):
                expected = _reference_best_split(hist.transpose(1, 2, 0), params)
                assert _best_split(hist, params, np.empty_like(hist)) == expected, f"seed {seed}"


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
        _, counts = np.unique(_reference_leaves(ensemble, features), return_counts=True)
        assert counts.min() >= 40

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
        assert not np.array_equal(base.threshold, transformed.threshold)


def _set(key, node, value):
    """A corruption that writes ``value(doc)`` into ``doc[key][node]``."""
    return lambda doc: doc[key].__setitem__(node, value(doc))


PACKED_FIXTURES = {
    "no-trees": GbdtParams(n_rounds=0),
    "stumps": GbdtParams(n_rounds=25, max_depth=1, min_samples_leaf=1),
    "depth-6": GbdtParams(n_rounds=15, max_depth=6, min_samples_leaf=2),
    "subsample": GbdtParams(n_rounds=15, max_depth=4, min_samples_leaf=3, subsample=0.7),
}


class TestPackedForest:
    """The one-pass descent over all trees against the per-tree oracle."""

    @staticmethod
    def _fit(params):
        rng = np.random.default_rng(8)
        features = np.asfortranarray(rng.normal(size=(400, 6)))  # column-major, like the pipeline's gather
        labels = (features[:, 0] * features[:, 1] + 0.4 * rng.normal(size=400) > 0).astype(float)
        return features, labels, fit_ensemble(features, labels, params, seed=5)

    @pytest.mark.parametrize("name", PACKED_FIXTURES)
    def test_margins_bit_equal_to_reference(self, name):
        features, _, ensemble = self._fit(PACKED_FIXTURES[name])
        fresh = np.random.default_rng(9).normal(size=(300, 6))
        for x in (features, fresh, fresh[:1]):
            np.testing.assert_array_equal(ensemble.leaves(x), _reference_leaves(ensemble, x))
            np.testing.assert_array_equal(ensemble.predict_margin(x), _reference_margin(ensemble, x))

    @pytest.mark.parametrize("name", ["stumps", "depth-6", "subsample"])
    def test_final_train_loss_matches_prediction(self, name):
        # The fit finds every training row's leaf by the descent prediction
        # uses, subsampled or not, so its last margin is prediction's margin.
        features, labels, ensemble = self._fit(PACKED_FIXTURES[name])
        assert ensemble.train_loss[-1] == _log_loss(labels, _sigmoid(ensemble.predict_margin(features)))

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(_set("right", 0, lambda doc: len(doc["value"])), id="right-out-of-range"),
            pytest.param(_set("right", 0, lambda doc: 0), id="right-back-to-node"),
            pytest.param(_set("right", 0, lambda doc: 1), id="right-onto-left-child"),
            pytest.param(_set("right", 0, lambda doc: doc["roots"][1]), id="right-into-next-tree"),
            pytest.param(_set("right", 1, lambda doc: 0), id="right-at-leaf"),
            pytest.param(_set("feature", 0, lambda doc: doc["n_features"]), id="feature-out-of-range"),
            pytest.param(_set("feature", 0, lambda doc: -2), id="feature-below-leaf-mark"),
            pytest.param(_set("roots", 0, lambda doc: 1), id="first-root-not-0"),
            pytest.param(lambda doc: doc["roots"].append(doc["roots"][-1]), id="roots-repeat"),
            pytest.param(lambda doc: doc["roots"].append(len(doc["value"])), id="root-past-end"),
            pytest.param(lambda doc: doc.update(roots=[]), id="nodes-without-roots"),
            pytest.param(lambda doc: doc["value"].pop(), id="value-truncated"),
            pytest.param(lambda doc: doc.update(threshold=[doc["threshold"]]), id="threshold-2d"),
            pytest.param(lambda doc: doc.update(value=[doc["value"]]), id="value-2d"),
        ],
    )
    def test_corrupted_structure_rejected(self, corrupt):
        _, _, ensemble = self._fit(PACKED_FIXTURES["stumps"])
        doc = json.loads(json.dumps(ensemble.to_dict()))
        assert doc["feature"][:3] == [doc["feature"][0], -1, -1] and doc["feature"][0] >= 0
        BoostedEnsemble.from_dict(doc)
        corrupt(doc)
        with pytest.raises(FormatError):
            BoostedEnsemble.from_dict(doc)


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


class TestBoundedMemory:
    def test_fit_ensemble_peak_per_value(self):
        """Quadrupling the rows grows the fit's peak by at most 20 bytes per
        (row, column): the intp bin index and one row-repeated weight vector
        (8 bytes each), not the quantizer's full-size sort temporaries."""
        d = 200

        def peak(n):
            rng = np.random.default_rng(n)
            features = rng.normal(size=(n, d))
            labels = (features[:, 0] + rng.normal(size=n) > 0).astype(float)
            _, peak = traced_peak(lambda: fit_ensemble(features, labels, GbdtParams(n_rounds=2, max_depth=2)))
            return peak

        small, large = 4_000, 16_000
        assert peak(large) - peak(small) <= 20 * (large - small) * d


class TestParams:
    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        bad = [
            {"learning_rate": 0.0},
            {"subsample": 0.0},
            {"max_depth": 0},
            *({"learning_rate": v} for v in (nan, inf, -inf)),
            *({"reg_lambda": v} for v in (nan, inf, -inf)),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                GbdtParams(**kwargs).validate()
        GbdtParams(learning_rate=1e300, reg_lambda=0.0).validate()
