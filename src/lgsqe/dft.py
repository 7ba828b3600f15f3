"""Discriminant feature ranking by minimum weighted binary-partition entropy.

Each representation dimension is scored independently: its value range is cut
at ``num_bins - 1`` uniformly spaced interior points, and the score is the
smallest weighted entropy (natural log) of the class labels on the two sides,
minimized over the cut points. Lower is more discriminant. Dimensions are
sorted by ascending score; a subset is picked either as an explicit top-k
prefix or at the elbow of the sorted score curve.

Every column is scored from integer counts, with no sort. The per-column
minimum and maximum give the cuts. Each value's bin is the number of cuts at
or below it: guessed from the value's offset in the range, then checked and
stepped against the cut values themselves, so rounding in the guess cannot
move a value across a cut. One ``np.bincount`` over (class, column, bin)
counts both classes per bin, and cumulative counts give, for every cut, how
many values (and how many positives) lie strictly below it: exactly what a
binary search for the cut in the sorted column gives, so the losses and
partition points are the same bits. Columns are counted in blocks of about
``BLOCK_VALUES`` values, so no temporary grows with samples x columns, and
the columns may come as an iterator of blocks that are never joined.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .datasets import write_csv

BLOCK_VALUES = 2**20  # values per column block, about 8 MB of float64


def _binary_labels(labels) -> np.ndarray:
    """Labels as 0/1 integers; every label must be 0 or 1 (or bool) and both must occur."""
    labels = np.asarray(labels)
    positive = labels == 1
    if not (positive | (labels == 0)).all():
        raise ValueError("labels must be 0 or 1")
    n1 = int(positive.sum())
    if n1 == 0 or n1 == labels.size:
        raise ValueError("both classes must be present")
    return positive.astype(np.intp)


def _side_entropy(zeros, ones, total):
    with np.errstate(divide="ignore", invalid="ignore"):
        p0 = zeros / total
        p1 = ones / total
        t0 = np.where(zeros > 0, p0 * np.log(p0), 0.0)
        t1 = np.where(ones > 0, p1 * np.log(p1), 0.0)
    return -(t0 + t1)


def _score_block(block: np.ndarray, y: np.ndarray, num_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(loss, partition point) of each column of an (n, w) float64 block."""
    n, w = block.shape
    n1 = int(y.sum())
    f_min = block.min(axis=0)
    f_max = block.max(axis=0)
    if not (np.isfinite(f_min).all() and np.isfinite(f_max).all()):  # min and max propagate NaN
        raise ValueError("values contain non-finite entries")
    span = f_max - f_min
    cuts = f_min[:, None] + np.arange(1, num_bins) * span[:, None] / num_bins

    # A value's bin k is the number of cuts at or below it, so that
    # edges[c, k] <= v < edges[c, k + 1] with edges[c] = (-inf, cuts[c], inf):
    # v < cuts[c, j - 1] exactly when k < j. Guess k from the value's offset,
    # then step it against the cuts themselves until no value moves.
    stride = num_bins + 1
    edges = np.empty((w, stride))
    edges[:, 0], edges[:, 1:-1], edges[:, -1] = -np.inf, cuts, np.inf
    lower = edges.ravel()
    upper = lower[1:]
    with np.errstate(all="ignore"):
        guess = (block - f_min) * (num_bins / span)  # NaN in a constant column
    np.minimum(np.fmax(guess, 0.0, out=guess), num_bins - 1, out=guess)
    at = guess.astype(np.intp)  # flat index of edges[c, k]
    at += np.arange(w) * stride
    while True:
        up = np.take(upper, at) <= block
        down = np.take(lower, at) > block
        if not (up.any() or down.any()):
            break
        at += up
        at -= down

    at += (y * (w * stride))[:, None]
    counts = np.bincount(at.ravel(), minlength=2 * w * stride).reshape(2, w, stride)
    below = counts.cumsum(axis=2)[:, :, : num_bins - 1]  # per class, values strictly below each cut
    ones_left = below[1]
    n_left = below[0] + ones_left
    zeros_left = n_left - ones_left
    n_right = n - n_left
    ones_right = n1 - ones_left
    zeros_right = n_right - ones_right
    weighted = (n_left / n) * _side_entropy(zeros_left, ones_left, n_left) + (
        n_right / n
    ) * _side_entropy(zeros_right, ones_right, n_right)
    best = weighted.argmin(axis=1)  # ties go to the smallest partition point
    rows = np.arange(w)
    constant = f_min == f_max
    losses = np.where(constant, _side_entropy(n - n1, n1, n), weighted[rows, best])
    return losses, np.where(constant, f_min, cuts[rows, best])


def dft_loss(values: np.ndarray, labels: np.ndarray, num_bins: int = 32) -> tuple[float, float]:
    """Score one dimension; returns (loss, best partition point).

    This is ``rank_features`` on a one-column matrix.
    Ties in the minimum are broken toward the smallest partition point. A
    side with no samples contributes zero weighted entropy. A constant
    dimension scores the entropy of the full label set. Labels must be 0 or
    1 (or bool), and both must occur.
    """
    values = np.asarray(values)
    labels = np.asarray(labels)
    if values.shape != labels.shape or values.ndim != 1:
        raise ValueError("values and labels must be 1-D arrays of equal length")
    ranking = rank_features(values[:, None], labels, num_bins)
    return float(ranking.losses[0]), float(ranking.thresholds[0])


@dataclass(frozen=True, eq=False)
class DftRanking:
    """Per-dimension losses/partition points plus the ascending-loss order."""

    losses: np.ndarray
    thresholds: np.ndarray
    order: np.ndarray

    @property
    def dimension(self) -> int:
        return self.losses.size


def rank_features(features: np.ndarray | Iterator[np.ndarray], labels: np.ndarray, num_bins: int = 32) -> DftRanking:
    """Score every column independently and sort ascending (stable in index).

    ``features`` is a (samples, dims) array, or an iterator over its columns
    as consecutive (samples, w) arrays, each read once and then let go. Columns
    are scored in blocks of about ``BLOCK_VALUES`` values. A value's
    bin is the number of cuts at or below it; one bincount over (class,
    column, bin) and a cumulative sum then give, for every cut, the values
    and the positives strictly below it. Those are the counts a binary search
    for the cut in the sorted column gives, so every loss, partition point
    and the order have the same bits as sorting each column would give.
    """
    labels = np.asarray(labels)
    if num_bins < 2:
        raise ValueError(f"num_bins must be >= 2, got {num_bins}")
    y = _binary_labels(labels)
    scored = [np.empty((2, 0))]  # (losses, thresholds) of each block of columns
    for block in features if isinstance(features, Iterator) else [np.asarray(features)]:
        if block.ndim != 2 or labels.shape != block.shape[:1]:
            raise ValueError("features must be (samples, dims) with one label per row")
        width = max(1, BLOCK_VALUES // block.shape[0])
        for start in range(0, block.shape[1], width):
            scored.append(_score_block(np.asarray(block[:, start : start + width], dtype=np.float64), y, num_bins))
    losses, thresholds = np.concatenate(scored, axis=1)
    return DftRanking(losses=losses, thresholds=thresholds, order=np.argsort(losses, kind="stable"))


def _elbow_index(sorted_losses: np.ndarray) -> int:
    """Index of maximum perpendicular distance to the endpoint chord."""
    d = sorted_losses.size
    x = np.arange(d, dtype=np.float64)
    y = sorted_losses
    dx, dy = d - 1.0, y[-1] - y[0]
    chord = np.hypot(dx, dy)
    dist = np.abs(dx * (y - y[0]) - dy * (x - x[0])) / chord
    return int(np.argmax(dist))


def select_features(ranking: DftRanking, mode: str = "top_k", k: int | None = None) -> np.ndarray:
    """The indices of the columns kept for classification, a prefix of the
    ascending-loss ordering picked by count or by elbow (which it ends at)."""
    if mode == "top_k":
        if k is None or not 1 <= k <= ranking.dimension:
            raise ValueError(f"k must lie in [1, {ranking.dimension}], got {k}")
        return ranking.order[:k].copy()
    if mode == "elbow":
        if ranking.dimension < 3:
            raise ValueError("elbow selection needs at least 3 dimensions")
        return ranking.order[: _elbow_index(ranking.losses[ranking.order]) + 1].copy()
    raise ValueError(f"unknown selection mode {mode!r}")


def write_ranking_csv(ranking: DftRanking, path) -> None:
    """Dump (column_index, loss, threshold) rows in ascending-loss order."""
    rows = ((int(j), repr(float(ranking.losses[j])), repr(float(ranking.thresholds[j]))) for j in ranking.order)
    write_csv(path, ("column_index", "loss", "threshold"), rows)
