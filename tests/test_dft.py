import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe import dft
from lgsqe.dft import _elbow_index, dft_loss, rank_features, select_features, write_ranking_csv

from conftest import traced_peak


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


def sorted_search_oracle(values, labels, num_bins):
    """One column by sorting: each cut's left counts from a binary search in the sorted values."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    n = values.size
    n1 = int(labels.sum())
    f_min = values.min()
    f_max = values.max()
    if f_min == f_max:
        return prior_entropy(labels), float(f_min)

    cuts = f_min + np.arange(1, num_bins) * (f_max - f_min) / num_bins
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    ones_prefix = np.concatenate([[0], np.cumsum(labels[order])])

    n_left = np.searchsorted(sorted_vals, cuts, side="left")  # count of values < cut
    ones_left = ones_prefix[n_left]
    zeros_left = n_left - ones_left
    n_right = n - n_left
    ones_right = n1 - ones_left
    zeros_right = n_right - ones_right

    def side_entropy(zeros, ones, total):
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = zeros / total
            p1 = ones / total
            t0 = np.where(zeros > 0, p0 * np.log(p0), 0.0)
            t1 = np.where(ones > 0, p1 * np.log(p1), 0.0)
        return -(t0 + t1)

    weighted = (n_left / n) * side_entropy(zeros_left, ones_left, n_left) + (
        n_right / n
    ) * side_entropy(zeros_right, ones_right, n_right)
    best = int(np.argmin(weighted))
    return float(weighted[best]), float(cuts[best])


def oracle_ranking(features, labels, num_bins):
    """(losses, thresholds, order) from the sorted-search oracle, column by column."""
    scored = [sorted_search_oracle(features[:, j], labels, num_bins) for j in range(features.shape[1])]
    losses = np.array([loss for loss, _ in scored])
    thresholds = np.array([threshold for _, threshold in scored])
    return losses, thresholds, np.argsort(losses, kind="stable")


def awkward_columns(rng, n, d, num_bins):
    """Columns of the kinds where counting cuts could drift from searching sorted values."""
    columns = []
    for kind in rng.integers(0, 6, size=d):
        if kind == 0:  # integer-valued with many ties
            col = rng.integers(-3, 4, size=n).astype(np.float64)
        elif kind == 1:  # every value on a cut point or an end of the range
            lo, hi = np.sort(rng.normal(size=2) * rng.uniform(0.1, 100))
            grid = np.concatenate([[lo, hi], lo + np.arange(1, num_bins) * (hi - lo) / num_bins])
            col = rng.choice(grid, size=n)
            col[:2] = lo, hi
        elif kind == 2:  # constant
            col = np.full(n, rng.normal())
        elif kind == 3:  # a span of a few units in the last place
            col = 1.0 + rng.integers(0, 5, size=n) * np.finfo(np.float64).eps
        else:  # spans near 1e-300 and 1e300
            col = rng.normal(size=n) * (1e-300 if kind == 4 else 1e300)
        columns.append(col)
    return np.column_stack(columns)


def both_classes(rng, n):
    labels = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    return labels


def assert_same_ranking(ranking, losses, thresholds, order):
    assert ranking.losses.tobytes() == losses.tobytes()
    assert ranking.thresholds.tobytes() == thresholds.tobytes()
    assert ranking.order.tobytes() == order.tobytes()


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

    def test_non_binary_labels_rejected(self):
        # a label 2 would otherwise count twice as a positive (a loss of -0.304 here)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            dft_loss(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 0, 2, 1]), num_bins=4)

    def test_bool_labels_count_as_binary(self):
        values = np.array([0.0, 1.0, 2.0, 3.0, 0.5])
        labels = np.array([0, 1, 0, 1, 1])
        assert dft_loss(values, labels.astype(bool), 4) == dft_loss(values, labels, 4)

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

    def test_non_binary_labels_rejected(self):
        features, labels = self._three_column_features()
        labels = labels.copy()
        labels[0] = 2
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            rank_features(features, labels)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        d=st.integers(1, 12),
        num_bins=st.integers(2, 64),
        label_type=st.sampled_from([np.int64, np.float64, bool]),
    )
    @settings(max_examples=100)
    def test_equals_sorted_search_oracle_bytes(self, seed, n, d, num_bins, label_type):
        rng = np.random.default_rng(seed)
        features = awkward_columns(rng, n, d, num_bins)
        labels = both_classes(rng, n).astype(label_type)
        ranking = rank_features(features, labels, num_bins)
        assert_same_ranking(ranking, *oracle_ranking(features, labels, num_bins))

    def test_block_seams_do_not_change_bytes(self, monkeypatch):
        rng = np.random.default_rng(6)
        n, d = 40, 23
        features = awkward_columns(rng, n, d, 16)
        labels = both_classes(rng, n)
        whole = rank_features(features, labels, 16)
        monkeypatch.setattr(dft, "BLOCK_VALUES", 3 * n + 7)  # blocks of 3 columns, the last of 2
        split = rank_features(features, labels, 16)
        assert_same_ranking(split, whole.losses, whole.thresholds, whole.order)

    def test_column_blocks_equal_one_matrix(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, d = 40, 23
        features = awkward_columns(rng, n, d, 16)
        labels = both_classes(rng, n)
        whole = rank_features(features, labels, 16)
        cuts = [0, 1, 6, 6, 15, d]  # blocks of 1, 5, 0, 9 and 8 columns
        blocks = (np.ascontiguousarray(features[:, lo:hi]) for lo, hi in zip(cuts, cuts[1:]))
        assert_same_ranking(rank_features(blocks, labels, 16), whole.losses, whole.thresholds, whole.order)
        monkeypatch.setattr(dft, "BLOCK_VALUES", 3 * n + 7)  # and each block counted 3 columns at a time
        blocks = (features[:, lo:hi] for lo, hi in zip(cuts, cuts[1:]))
        assert_same_ranking(rank_features(blocks, labels, 16), whole.losses, whole.thresholds, whole.order)

    def test_ranking_csv(self, tmp_path):
        features, labels = self._three_column_features()
        ranking = rank_features(features, labels, num_bins=8)
        path = tmp_path / "ranking.csv"
        write_ranking_csv(ranking, path)
        assert b"\r" not in path.read_bytes()
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
        )

    def test_top_k_prefix(self):
        ranking = self._ranking_of(np.linspace(0.7, 0.1, 1000))
        selection = select_features(ranking, "top_k", k=800)
        assert selection.size == 800
        assert selection[0] == 999  # smallest loss is the last column

    def test_top_k_identity(self):
        ranking = self._ranking_of([0.3, 0.1, 0.2])
        selection = select_features(ranking, "top_k", k=3)
        np.testing.assert_array_equal(np.sort(selection), [0, 1, 2])

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
        assert abs(oracle_elbow - 50) <= 1
        assert selection.size == oracle_elbow + 1
        np.testing.assert_array_equal(selection, ranking.order[: oracle_elbow + 1])

    def test_elbow_internal_helper_matches(self):
        rng = np.random.default_rng(5)
        losses = np.sort(rng.uniform(0, 0.7, size=64))
        assert 0 <= _elbow_index(losses) < 64


class TestBoundedMemory:
    """Quadrupling the column count grows the peak only by what is kept per column."""

    N, BINS = 400, 32

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dft, "BLOCK_VALUES", 4 * self.N)

    def rank_peak(self, d):
        rng = np.random.default_rng(d)
        features = rng.normal(size=(self.N, d))
        labels = both_classes(rng, self.N)
        _, peak = traced_peak(lambda: rank_features(features, labels, self.BINS))
        return peak

    def test_rank_features(self):
        small, large = 50, 200
        # Kept per column: one row of per-bin counts per class, and the loss,
        # threshold and order entries. A samples x columns temporary would add
        # N * 8 bytes per column, over ten times this.
        per_column = (2 * (self.BINS + 1) + 3) * 8
        assert self.rank_peak(large) - self.rank_peak(small) <= (large - small) * per_column + 16_384
