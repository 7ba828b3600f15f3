"""Discriminant feature ranking by minimum weighted binary-partition entropy.

Each representation dimension is scored independently: its value range is cut
at ``num_bins - 1`` uniformly spaced interior points, and the score is the
smallest weighted entropy (natural log) of the class labels on the two sides,
minimized over the cut points. Lower is more discriminant. Dimensions are
sorted by ascending score; a subset is picked either as an explicit top-k
prefix or at the elbow of the sorted score curve.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


def _label_entropy(labels: np.ndarray) -> float:
    n = labels.size
    n1 = int(labels.sum())
    n0 = n - n1
    out = 0.0
    for c in (n0, n1):
        if c > 0:
            p = c / n
            out -= p * np.log(p)
    return out


def dft_loss(values: np.ndarray, labels: np.ndarray, num_bins: int = 32) -> tuple[float, float]:
    """Score one dimension; returns (loss, best partition point).

    Ties in the minimum are broken toward the smallest partition point. A
    side with no samples contributes zero weighted entropy. A constant
    dimension scores the entropy of the full label set.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError("values and labels must be 1-D arrays of equal length")
    if not np.isfinite(values).all():
        raise ValueError("values contain non-finite entries")
    if num_bins < 2:
        raise ValueError(f"num_bins must be >= 2, got {num_bins}")
    n = values.size
    n1 = int(labels.sum())
    if n1 == 0 or n1 == n:
        raise ValueError("both classes must be present")

    f_min = values.min()
    f_max = values.max()
    if f_min == f_max:
        return _label_entropy(labels), float(f_min)

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


@dataclass(frozen=True, eq=False)
class DftRanking:
    """Per-dimension losses/partition points plus the ascending-loss order."""

    losses: np.ndarray
    thresholds: np.ndarray
    order: np.ndarray
    num_bins: int

    @property
    def dimension(self) -> int:
        return self.losses.size


def rank_features(features: np.ndarray, labels: np.ndarray, num_bins: int = 32) -> DftRanking:
    """Score every column independently and sort ascending (stable in index)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.size:
        raise ValueError("features must be (samples, dims) with one label per row")
    n1 = int(labels.sum())
    if n1 == 0 or n1 == labels.size:
        raise ValueError("both classes must be present")
    dims = features.shape[1]
    losses = np.empty(dims)
    thresholds = np.empty(dims)
    for j in range(dims):
        losses[j], thresholds[j] = dft_loss(features[:, j], labels, num_bins)
    return DftRanking(
        losses=losses,
        thresholds=thresholds,
        order=np.argsort(losses, kind="stable"),
        num_bins=num_bins,
    )


@dataclass(frozen=True, eq=False)
class FeatureSelection:
    """Column indices kept for classification, ordered by ascending loss."""

    indices: np.ndarray
    mode: str  # "top_k" or "elbow"
    k: int | None = None
    elbow_index: int | None = None

    def __len__(self) -> int:
        return self.indices.size


def _elbow_index(sorted_losses: np.ndarray) -> int:
    """Index of maximum perpendicular distance to the endpoint chord."""
    d = sorted_losses.size
    x = np.arange(d, dtype=np.float64)
    y = sorted_losses
    dx, dy = d - 1.0, y[-1] - y[0]
    chord = np.hypot(dx, dy)
    dist = np.abs(dx * (y - y[0]) - dy * (x - x[0])) / chord
    return int(np.argmax(dist))


def select_features(ranking: DftRanking, mode: str = "top_k", k: int | None = None) -> FeatureSelection:
    """Pick a prefix of the ascending-loss ordering, by count or by elbow."""
    if mode == "top_k":
        if k is None or not 1 <= k <= ranking.dimension:
            raise ValueError(f"k must lie in [1, {ranking.dimension}], got {k}")
        return FeatureSelection(indices=ranking.order[:k].copy(), mode="top_k", k=k)
    if mode == "elbow":
        if ranking.dimension < 3:
            raise ValueError("elbow selection needs at least 3 dimensions")
        elbow = _elbow_index(ranking.losses[ranking.order])
        return FeatureSelection(indices=ranking.order[: elbow + 1].copy(), mode="elbow", elbow_index=elbow)
    raise ValueError(f"unknown selection mode {mode!r}")


def write_ranking_csv(ranking: DftRanking, path) -> None:
    """Dump (column_index, loss, threshold) rows in ascending-loss order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column_index", "loss", "threshold"])
        for j in ranking.order:
            writer.writerow([int(j), repr(float(ranking.losses[j])), repr(float(ranking.thresholds[j]))])
