import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe.dft import _elbow_index, dft_loss, rank_features, select_features, write_ranking_csv


def exhaustive_dft_oracle(values, labels, num_bins):
    """Brute force over every candidate cut with scalar arithmetic."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    n = values.size
    f_min, f_max = values.min(), values.max()

    def side_entropy(mask):
        total = int(mask.sum())
        if total == 0:
            return 0.0, 0
        ones = int(labels[mask].sum())
        out = 0.0
        for c in (total - ones, ones):
            if c > 0:
                p = c / total
                out -= p * np.log(p)
        return out, total

    if f_min == f_max:
        h, _ = side_entropy(np.ones(n, dtype=bool))
        return h, float(f_min)
    best = None
    for j in range(1, num_bins):
        t = f_min + j * (f_max - f_min) / num_bins
        left = values < t
        h_left, n_left = side_entropy(left)
        h_right, n_right = side_entropy(~left)
        w = (n_left / n) * h_left + (n_right / n) * h_right
        if best is None or w < best[0]:
            best = (w, float(t))
    return best


def prior_entropy(labels):
    n = len(labels)
    n1 = int(np.sum(labels))
    out = 0.0
    for c in (n - n1, n1):
        if c > 0:
            out -= (c / n) * np.log(c / n)
    return out


class TestDftLoss:
    def test_hand_case_zero_loss(self):
        loss, threshold = dft_loss(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 0, 1, 1]), num_bins=4)
        assert loss == 0.0
        assert threshold == 1.5  # the only candidate strictly between 1 and 2

    def test_perfect_separation(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.uniform(0, 1, 30), rng.uniform(2, 3, 30)])
        labels = np.concatenate([np.zeros(30), np.ones(30)])
        loss, _ = dft_loss(values, labels, num_bins=8)
        assert loss == 0.0

    def test_independent_feature_near_ln2(self):
        rng = np.random.default_rng(1)
        n = 10_000
        values = rng.normal(size=n)
        labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        rng.shuffle(labels)
        loss, _ = dft_loss(values, labels, num_bins=32)
        assert abs(loss - np.log(2)) < 0.02

    def test_constant_feature(self):
        labels = np.array([0, 0, 1])
        loss, threshold = dft_loss(np.full(3, 4.2), labels, num_bins=8)
        assert loss == prior_entropy(labels)
        assert threshold == 4.2

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            dft_loss(np.array([1.0, 2.0]), np.array([1, 1]))

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            dft_loss(np.array([1.0, 2.0]), np.array([0, 1]), num_bins=1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 64),
        num_bins=st.integers(2, 8),
    )
    @settings(max_examples=100)
    def test_matches_exhaustive_oracle_exactly(self, seed, n, num_bins):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) * rng.uniform(0.1, 50)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        loss, threshold = dft_loss(values, labels, num_bins)
        oracle_loss, oracle_threshold = exhaustive_dft_oracle(values, labels, num_bins)
        assert loss == oracle_loss
        assert threshold == oracle_threshold

    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([0.25, 0.5, 2.0, 8.0]),
        num_bins=st.integers(2, 16),
    )
    @settings(max_examples=60)
    def test_power_of_two_scaling_invariance_exact(self, seed, scale, num_bins):
        # power-of-two scaling keeps every float product exact, so the cut
        # grid maps exactly and the loss must not move at all
        rng = np.random.default_rng(seed)
        values = rng.integers(-50, 50, size=40).astype(np.float64)
        labels = rng.integers(0, 2, size=40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        base_loss, base_t = dft_loss(values, labels, num_bins)
        scaled_loss, scaled_t = dft_loss(values * scale, labels, num_bins)
        assert scaled_loss == base_loss
        assert scaled_t == base_t * scale

    def test_general_affine_on_coarse_grid(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 20, size=200).astype(np.float64)
        labels = rng.integers(0, 2, size=200)
        base_loss, _ = dft_loss(values, labels, num_bins=10)
        affine_loss, _ = dft_loss(1.7 * values + 0.3, labels, num_bins=10)
        assert affine_loss == pytest.approx(base_loss, abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 80))
    @settings(max_examples=60)
    def test_never_exceeds_prior_entropy(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        loss, _ = dft_loss(values, labels, num_bins=16)
        assert loss <= prior_entropy(labels) + 1e-12


class TestRankFeatures:
    def _three_column_features(self):
        rng = np.random.default_rng(3)
        n = 200
        labels = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
        separator = labels + rng.uniform(0, 0.3, size=n)
        constant = np.full(n, 7.0)
        noise = rng.normal(size=n)
        return np.column_stack([noise, separator, constant]), labels

    def test_separator_ranks_first(self):
        features, labels = self._three_column_features()
        ranking = rank_features(features, labels, num_bins=16)
        assert ranking.order[0] == 1
        assert ranking.losses[1] < min(ranking.losses[0], ranking.losses[2])

    def test_constant_column_gets_prior_entropy(self):
        features, labels = self._three_column_features()
        ranking = rank_features(features, labels, num_bins=16)
        assert ranking.losses[2] == prior_entropy(labels)

    def test_permutation_consistency(self):
        features, labels = self._three_column_features()
        perm = np.array([2, 0, 1])
        base = rank_features(features, labels, num_bins=8)
        permuted = rank_features(features[:, perm], labels, num_bins=8)
        np.testing.assert_array_equal(permuted.losses, base.losses[perm])

    def test_duplicate_columns_tie_by_index(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=100)
        labels = rng.integers(0, 2, size=100)
        labels[0] = 1 - labels[0] if labels.sum() in (0, 100) else labels[0]
        features = np.column_stack([col, col, col])
        ranking = rank_features(features, labels, num_bins=8)
        np.testing.assert_array_equal(ranking.order, [0, 1, 2])

    def test_matches_per_column_calls(self):
        features, labels = self._three_column_features()
        ranking = rank_features(features, labels, num_bins=8)
        for j in range(features.shape[1]):
            loss, threshold = dft_loss(features[:, j], labels, num_bins=8)
            assert ranking.losses[j] == loss
            assert ranking.thresholds[j] == threshold

    def test_ranking_csv(self, tmp_path):
        features, labels = self._three_column_features()
        ranking = rank_features(features, labels, num_bins=8)
        path = tmp_path / "ranking.csv"
        write_ranking_csv(ranking, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "column_index,loss,threshold"
        assert len(lines) == 4
        assert lines[1].startswith("1,")  # separator column first


class TestSelectFeatures:
    def _ranking_of(self, losses):
        losses = np.asarray(losses, dtype=np.float64)
        return lgsqe.DftRanking(
            losses=losses,
            thresholds=np.zeros_like(losses),
            order=np.argsort(losses, kind="stable"),
            num_bins=8,
        )

    def test_top_k_prefix(self):
        ranking = self._ranking_of(np.linspace(0.7, 0.1, 1000))
        selection = select_features(ranking, "top_k", k=800)
        assert len(selection) == 800
        assert selection.indices[0] == 999  # smallest loss is the last column

    def test_top_k_identity(self):
        ranking = self._ranking_of([0.3, 0.1, 0.2])
        selection = select_features(ranking, "top_k", k=3)
        np.testing.assert_array_equal(np.sort(selection.indices), [0, 1, 2])

    def test_k_out_of_range(self):
        ranking = self._ranking_of([0.3, 0.1, 0.2])
        with pytest.raises(ValueError):
            select_features(ranking, "top_k", k=4)
        with pytest.raises(ValueError):
            select_features(ranking, "top_k", k=0)

    def test_elbow_on_l_shaped_curve(self):
        losses = np.concatenate([np.full(50, 0.1), np.full(450, 0.69)])
        ranking = self._ranking_of(losses)
        selection = select_features(ranking, "elbow")
        # independent chord-distance evaluation
        sorted_losses = losses[ranking.order]
        x = np.arange(500, dtype=float)
        dx, dy = 499.0, sorted_losses[-1] - sorted_losses[0]
        dist = np.abs(dx * (sorted_losses - sorted_losses[0]) - dy * x) / np.hypot(dx, dy)
        oracle_elbow = int(np.argmax(dist))
        assert selection.elbow_index == oracle_elbow
        assert abs(selection.elbow_index - 50) <= 1
        assert len(selection) == selection.elbow_index + 1

    def test_elbow_internal_helper_matches(self):
        rng = np.random.default_rng(5)
        losses = np.sort(rng.uniform(0, 0.7, size=64))
        assert 0 <= _elbow_index(losses) < 64
