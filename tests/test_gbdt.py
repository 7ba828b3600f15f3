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
        assert ensemble.feature.tolist() == [[0]]
        assert ensemble.threshold[0, 0] == 1.5
        g_l, h_l = 0.5 + 0.5, 0.25 + 0.25
        assert abs(ensemble.value[0, 0] - (-g_l / (h_l + 1.0))) < 1e-12
        assert abs(ensemble.value[0, 1] - (g_l / (h_l + 1.0))) < 1e-12

    @pytest.mark.parametrize("low, high", [(1.0, 1.0 + 2**-52), (0.0, 5e-324)])
    def test_threshold_between_adjacent_doubles(self, low, high):
        # The midpoint of two adjacent doubles rounds onto the lower one; the
        # threshold must still send the lower value left.
        features = np.array([[low], [low], [high], [high]])
        labels = np.array([0.0, 0.0, 1.0, 1.0])
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=1, max_depth=1, min_samples_leaf=1))
        assert ensemble.threshold[0, 0] == high
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
        assert _leaf_counts(ensemble, features).min() >= 10


def _reference_leaves(ensemble, features):
    """Oracle for the level predictor: walk each tree on its own, row by row, one level at a time."""
    trees, depth = ensemble.feature.shape
    leaves = np.zeros((features.shape[0], trees), dtype=np.int64)
    for t in range(trees):
        for i, row in enumerate(features):
            for feat, threshold in zip(ensemble.feature[t], ensemble.threshold[t]):
                goes_right = feat >= 0 and not row[feat] < threshold
                leaves[i, t] = 2 * leaves[i, t] + goes_right
    return leaves


def _reference_margin(ensemble, features):
    """Oracle for predict_margin: add the trees' leaf values one tree at a time."""
    margin = np.full(features.shape[0], ensemble.base_score)
    for t, leaf in enumerate(_reference_leaves(ensemble, features).T):
        margin += ensemble.learning_rate * ensemble.value[t, leaf]
    return margin


def _leaf_counts(ensemble, features):
    """The number of rows in each (tree, leaf) that some row reaches."""
    leaves = _reference_leaves(ensemble, features) + np.arange(len(ensemble.value)) * ensemble.value.shape[1]
    return np.unique(leaves, return_counts=True)[1]


def _level_gain(x, g, h, nodes, feat, threshold, params):
    """Reference: the gain of the shared split ``x[:, feat] < threshold`` summed
    over a level's nodes (row index arrays), each side summed exactly from its
    rows; None if a child holds rows but fewer than min_samples_leaf."""
    lam = params.reg_lambda
    total = 0.0
    for rows in nodes:
        left = x[rows, feat] < threshold
        sides = rows[left], rows[~left]
        if min(side.size for side in sides) == 0:
            continue  # a node the split does not divide gains 0
        if min(side.size for side in sides) < params.min_samples_leaf:
            return None
        (gl, hl), (gr, hr) = [(g[side].sum(), h[side].sum()) for side in sides]
        total += 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - (gl + gr) ** 2 / (hl + hr + lam))
    return total


def _oblivious_split(x, g, h, nodes, params):
    """Reference for a level's shared split: every feature, and every threshold
    between consecutive distinct values of its column, by the midpoint rule.
    Returns (gain, feature, threshold) of the best, ties going to the lowest
    feature, then the lowest threshold, or None if no split gains."""
    best = None
    for feat in range(x.shape[1]):
        values = np.unique(x[:, feat])
        for lo, hi in zip(values[:-1], values[1:]):
            mid = (lo + hi) / 2.0
            threshold = float(mid if lo < mid <= hi else hi)
            gain = _level_gain(x, g, h, nodes, feat, threshold, params)
            if gain is not None and 0.0 < gain < np.inf and (best is None or gain > best[0]):
                best = gain, feat, threshold
    return best


def _tree_levels(ensemble, t):
    """The (feature, threshold) of each level at which tree t splits; every level below its last split is -1."""
    split = ensemble.feature[t] >= 0
    assert not np.any(split[1:] & ~split[:-1])
    return list(zip(ensemble.feature[t, split].tolist(), ensemble.threshold[t, split].tolist()))


def _few_valued_fixture(seed, n=300, levels=(2, 7, 40, MAX_BINS)):
    """Columns with the given numbers of distinct values, the second one duplicated."""
    rng = np.random.default_rng(seed)
    columns = [rng.normal(size=k)[rng.integers(0, k, n)] for k in levels]
    features = np.stack(columns + [columns[1]], axis=1)
    labels = (features[:, 0] + 0.5 * features[:, 2] + 0.7 * rng.normal(size=n) > 0).astype(float)
    return features, labels


class TestObliviousOracle:
    """Each tree against a level-by-level search over exact sums, on columns of
    at most MAX_BINS values, where every bin holds one value."""

    @pytest.mark.parametrize(
        "seed, levels, params",
        [
            pytest.param(0, (2, 7, 40, MAX_BINS), GbdtParams(n_rounds=8, max_depth=4, min_samples_leaf=1), id="plain"),
            pytest.param(
                1, (2, 7, 40, MAX_BINS), GbdtParams(n_rounds=8, max_depth=3, min_samples_leaf=7, reg_lambda=0.5),
                id="min-leaf-7",
            ),
            pytest.param(
                2, (2, 7, 40, MAX_BINS), GbdtParams(n_rounds=8, max_depth=4, min_samples_leaf=3, subsample=0.7),
                id="subsample",
            ),
            # Many columns of 3 to 6 values and deep trees: small nodes, where partitions often tie in exact arithmetic.
            pytest.param(3, (3, 4, 5, 6) * 6, GbdtParams(n_rounds=4, max_depth=6, min_samples_leaf=1), id="small-nodes"),
        ],
    )
    def test_level_splits_and_leaves_match_oracle(self, seed, levels, params):
        """Each level's split is the oracle's, or, where gains tie in exact
        arithmetic and the two searches round the tie apart, gains what the
        oracle's best gains; the tree stops where the oracle finds no split.
        Each leaf holds -G/(H + lambda) of the sampled rows of its path, or 0
        if none reaches it."""
        features, labels = _few_valued_fixture(seed, levels=levels)
        ensemble = fit_ensemble(features, labels, params, seed=seed)  # seed also drives the subsample
        rng = np.random.default_rng(seed)
        margin = np.full(labels.size, ensemble.base_score)
        leaves = _reference_leaves(ensemble, features)
        for t in range(len(ensemble.value)):
            p = _sigmoid(margin)
            g, h = p - labels, p * (1.0 - p)
            rows = np.arange(labels.size)
            if params.subsample < 1.0:
                rows = np.sort(rng.choice(labels.size, size=int(params.subsample * labels.size), replace=False))
            levels = _tree_levels(ensemble, t)
            nodes = [rows]  # the level's nodes that a sampled row reaches
            for depth in range(params.max_depth + 1):
                best = _oblivious_split(features, g, h, nodes, params) if depth < params.max_depth else None
                if depth == len(levels):
                    assert best is None
                    break
                feat, threshold = levels[depth]
                if (feat, threshold) != best[1:]:
                    gain = _level_gain(features, g, h, nodes, feat, threshold, params)
                    assert gain == pytest.approx(best[0], rel=1e-9)
                goes_left = features[:, feat] < threshold
                nodes = [side for node in nodes for side in (node[goes_left[node]], node[~goes_left[node]]) if side.size]
            shift = params.max_depth - len(levels)  # each level below the last split adds bit 0
            for leaf in range(ensemble.value.shape[1]):
                reached = rows[leaves[rows, t] >> shift == leaf >> shift]
                expected = -g[reached].sum() / (h[reached].sum() + params.reg_lambda) if reached.size else 0.0
                assert ensemble.value[t, leaf] == pytest.approx(expected, rel=0, abs=1e-12)
            margin = margin + params.learning_rate * ensemble.value[t, leaves[:, t]]

    def test_unreached_leaf_is_zero_at_lambda_0(self):
        """Rows hold (0, 0), (0, 1) and (1, 0), but not (1, 1): each tree splits
        feature 0, then feature 1, which leaves the right child of the first
        level's right node with no row."""
        features = np.repeat([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], 20, axis=0)
        labels = (features.sum(axis=1) == 1).astype(float)
        ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=3, max_depth=2, reg_lambda=0.0))
        assert ensemble.feature.tolist() == [[0, 1]] * 3
        assert np.setdiff1d(np.arange(4), _reference_leaves(ensemble, features)).tolist() == [3]
        assert np.all(ensemble.value[:, 3] == 0.0)
        corner = np.array([[1.0, 1.0]])
        assert ensemble.leaves(corner).tolist() == [[3, 3, 3]]
        assert ensemble.predict_margin(corner)[0] == ensemble.base_score
        assert np.isfinite(ensemble.predict_score(features)).all()


def _reference_best_split(hists, params):
    """Oracle for _best_split: a feature-major scan over a level's (3, MAX_BINS, d)
    histograms, each (feature, last left bin)'s gain summed node by node."""
    lam, min_leaf = params.reg_lambda, params.min_samples_leaf
    best_gain, best = 0.0, None
    for feat in range(hists[0].shape[2]):
        total = np.zeros(MAX_BINS)
        ok = np.any([hist[2, :, feat] > 0 for hist in hists], axis=0)  # a bin holding a row of the level
        for hist in hists:
            g, h, n = np.cumsum(hist[:, :, feat], axis=1)
            divided = (n > 0) & (n < n[-1])
            ok &= ~divided | (np.minimum(n, n[-1] - n) >= min_leaf)
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = g**2 / (h + lam) + (g[-1] - g) ** 2 / (h[-1] - h + lam) - g[-1] ** 2 / (h[-1] + lam)
            total += np.where(divided, gain, 0.0)
        total[~(ok & np.isfinite(total))] = -np.inf
        bin_ = int(np.argmax(total))
        if total[bin_] > best_gain:
            best_gain, best = total[bin_], (feat, bin_)
    return best


def _bin_major_histogram(codes, g, h, rows):
    """(3, MAX_BINS, d) sums of g, h and counts over ``rows``, as the fit counts them."""
    d = codes.shape[1]
    idx = (codes[rows] * d + np.arange(d)).ravel()
    sums = [np.bincount(idx, weights=np.repeat(w[rows], d), minlength=MAX_BINS * d) for w in (g, h)]
    counts = np.bincount(idx, minlength=MAX_BINS * d)
    return np.stack(sums + [counts]).reshape(3, MAX_BINS, d)


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
    """The level search against the feature-major oracle, on levels of 1 to 4
    bit-equal node histograms."""

    @pytest.mark.parametrize("reg_lambda, min_samples_leaf", [(1.0, 1), (0.0, 1), (0.5, 3), (0.0, 7)])
    def test_same_split_as_feature_major_scan(self, reg_lambda, min_samples_leaf):
        params = GbdtParams(reg_lambda=reg_lambda, min_samples_leaf=min_samples_leaf)
        for seed in range(48):
            pool = _random_node_histograms(seed) + _random_node_histograms(seed + 48)[:1]
            for size in range(1, 5):
                for start in range(len(pool) - size + 1):
                    level = pool[start : start + size]
                    expected = _reference_best_split(level, params)
                    assert _best_split(level, params) == expected, f"seed {seed}, nodes {start}:{start + size}"


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
        assert _leaf_counts(ensemble, features).min() >= 40

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


def _set(key, tree, level, value):
    """A corruption that writes ``value(doc)`` into ``doc[key][tree][level]``."""
    return lambda doc: doc[key][tree].__setitem__(level, value(doc))


PACKED_FIXTURES = {
    "no-trees": GbdtParams(n_rounds=0),
    "stumps": GbdtParams(n_rounds=25, max_depth=1, min_samples_leaf=1),
    "depth-6": GbdtParams(n_rounds=15, max_depth=6, min_samples_leaf=2),
    "early-stops": GbdtParams(n_rounds=15, max_depth=6, min_samples_leaf=20),  # trees stop at depth 4, 5 or 6
    "subsample": GbdtParams(n_rounds=15, max_depth=4, min_samples_leaf=3, subsample=0.7),
}


class TestPackedForest:
    """The level predictor over all trees at once against the per-tree oracle."""

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
        # The fit finds every training row's leaf by the predictor that
        # prediction uses, subsampled or not, so its last margin is prediction's margin.
        features, labels, ensemble = self._fit(PACKED_FIXTURES[name])
        assert ensemble.train_loss[-1] == _log_loss(labels, _sigmoid(ensemble.predict_margin(features)))

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(_set("feature", 0, 0, lambda doc: doc["n_features"]), id="feature-out-of-range"),
            pytest.param(_set("feature", 0, 0, lambda doc: -2), id="feature-below-leaf-mark"),
            pytest.param(lambda doc: doc["value"].pop(), id="value-truncated"),
            pytest.param(lambda doc: doc.update(value=[row[:-1] for row in doc["value"]]), id="value-rows-not-2-to-the-d"),
            pytest.param(lambda doc: doc["threshold"][0].append(0.0), id="threshold-row-ragged"),
            pytest.param(lambda doc: doc.update(feature=[row[0] for row in doc["feature"]]), id="feature-1d"),
            pytest.param(lambda doc: doc.update(threshold=[doc["threshold"]]), id="threshold-3d"),
            pytest.param(lambda doc: doc.update(value=[doc["value"]]), id="value-3d"),
        ],
    )
    def test_corrupted_structure_rejected(self, corrupt):
        _, _, ensemble = self._fit(PACKED_FIXTURES["stumps"])
        doc = json.loads(json.dumps(ensemble.to_dict()))
        assert len(doc["feature"]) == 25 and doc["feature"][0][0] >= 0
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
            {"max_depth": 13},
            *({"learning_rate": v} for v in (nan, inf, -inf)),
            *({"reg_lambda": v} for v in (nan, inf, -inf)),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                GbdtParams(**kwargs).validate()
        GbdtParams(learning_rate=1e300, reg_lambda=0.0, max_depth=12).validate()
