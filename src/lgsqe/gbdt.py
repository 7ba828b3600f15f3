"""Gradient-boosted regression trees with a logistic objective, from scratch.

Boosting follows the second-order scheme: per round, gradients g = p - y and
hessians h = p(1 - p) are computed from the current margin, a binary tree is
grown by histogram split search, and leaf weights are -G/(H + lambda).
Split gain is

    0.5 * [G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda) - (G_L+G_R)^2/(H_L+H_R + lambda)]

Each feature column is quantized once per fit into at most MAX_BINS = 256
uint8 bins with cuts at rank quantiles; a column with at most 256 distinct
values gets one bin per value, and on such columns the search picks the same
splits as exact greedy (up to partitions whose gains tie in exact arithmetic,
which the two searches, summing in different orders, may round apart).
Histograms are bin-major: a row's value in feature f with code c counts at
``c * d + f``, so a node's (g, h, count) histogram is a (MAX_BINS, 3, d) array
from one ``np.bincount`` each. Only the smaller child is counted, the larger
one is its parent minus it (as in XGBoost ``hist`` and LightGBM), subtracted
in place; a round that grows on all rows counts its root without gathering
rows and reuses the counts taken once per fit. Trees grow depth first from an
explicit stack, so the histograms alive are the current node's and those of
right children still to grow. The split search takes the prefix sums over bins
as one vector add per bin across every feature and scores only the candidate
bins, with each feature's parent term computed once. A split's threshold is
the midpoint between the largest value going left and the smallest going
right, or the latter if the midpoint rounds onto the former. Gain ties break
toward the lowest feature index, then the lowest threshold, so fits are fully
deterministic. Everything runs on plain numpy ops (sorts, gathers, bincounts,
elementwise adds) whose results do not depend on BLAS thread counts, which
keeps refits byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dft import _binary_labels
from .errors import FormatError, GeometryError, integer_array

_PROB_EPS = 1e-15
MAX_BINS = 256  # uint8 codes
QUANTIZE_VALUES = 2**18  # values per column block of _quantize


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


@dataclass(frozen=True)
class GbdtParams:
    """Boosting parameters; each is also the config key ``gbdt_<name>``.

    Field metadata holds the CLI help text and, where it is not
    ``--<name-with-dashes>``, the flag.
    """

    n_rounds: int = field(default=200, metadata={"help": "boosting rounds", "flag": "--rounds"})
    max_depth: int = field(default=4, metadata={"help": "tree depth limit"})
    learning_rate: float = field(default=0.1, metadata={"help": "boosting learning rate"})
    reg_lambda: float = field(default=1.0, metadata={"help": "L2 leaf regularization"})
    min_samples_leaf: int = field(default=5, metadata={"help": "minimum samples per leaf"})
    subsample: float = field(default=1.0, metadata={"help": "per-round row subsample fraction"})

    def validate(self):
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0 < self.learning_rate < np.inf:  # also false for NaN
            raise ValueError("learning_rate must be positive and finite")
        if not 0 <= self.reg_lambda < np.inf:
            raise ValueError("reg_lambda must be >= 0 and finite")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must lie in (0, 1]")


def _quantize(x: np.ndarray) -> np.ndarray:
    """Code each column into at most MAX_BINS uint8 bins, monotone in value.

    A column with at most MAX_BINS distinct values gets one bin per value;
    otherwise a value's bin is its first rank scaled to MAX_BINS, so cuts sit
    at rank quantiles and equal values always share a bin. Columns are coded
    in blocks of about QUANTIZE_VALUES values, so the sort's temporaries keep
    one size however many columns there are.
    """
    n, d = x.shape
    codes = np.empty((n, d), dtype=np.uint8)
    step = max(1, QUANTIZE_VALUES // n)
    for lo in range(0, d, step):
        cols = np.ascontiguousarray(x[:, lo : lo + step].T)
        order = np.argsort(cols, axis=1)  # equal values get equal codes in any order
        ranked = np.take_along_axis(cols, order, axis=1)
        starts = np.ones(cols.shape, dtype=bool)
        starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        dense = np.cumsum(starts, axis=1, dtype=np.int32) - 1
        first = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
        ranked_codes = np.where(dense[:, -1:] < MAX_BINS, dense, first * MAX_BINS // n)
        block = np.empty(cols.shape, dtype=np.uint8)
        np.put_along_axis(block, order, ranked_codes.astype(np.uint8), axis=1)
        codes[:, lo : lo + step] = block.T
    return codes


class _TreeBuilder:
    """Grows trees from (g, h, count) histograms over quantized features onto
    forest-wide node lists, in preorder: a split's left child is the next node."""

    def __init__(self, x, flat, params: GbdtParams):
        self.x = x
        self.flat = flat  # (n, d) bin-major index code * d + feature
        self.params = params
        self.feature, self.threshold, self.right, self.value, self.roots = [], [], [], [], []
        # The root's counts whenever a round grows on all rows (no subsample): counted once per fit.
        self.all_counts = np.bincount(flat.ravel(), minlength=MAX_BINS * x.shape[1])
        self.cum = np.empty((MAX_BINS, 3, x.shape[1]))  # every split search's prefix sums

    def grow(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray) -> int:
        """Append one tree grown over ascending row indices; return its root."""
        self.g, self.h = g, h
        self.roots.append(len(self.value))
        # Depth first, so nodes append in preorder. The stack holds the nodes
        # still to grow: rows, histogram, depth and the node whose right child
        # it is (-1 for the root and left children).
        stack = [(rows, self._histogram(rows) if self._can_split(rows.size, 0) else None, 0, -1)]
        while stack:
            stack += self._grow_node(*stack.pop())
        return self.roots[-1]

    def _can_split(self, n_rows: int, depth: int) -> bool:
        return depth < self.params.max_depth and n_rows >= 2 * self.params.min_samples_leaf

    def _histogram(self, rows: np.ndarray) -> np.ndarray:
        """(MAX_BINS, 3, d) sums of g, h and row counts per bin and feature."""
        n, d = self.flat.shape
        size = MAX_BINS * d
        if rows.size == n:  # the rows ascend without repeats, so they are all rows, in order
            idx, g, h, counts = self.flat.ravel(), self.g, self.h, self.all_counts
        else:
            idx, g, h = self.flat[rows].ravel(), self.g[rows], self.h[rows]
            counts = np.bincount(idx, minlength=size)
        hist = np.empty((MAX_BINS, 3, d))
        hist[:, 0] = np.bincount(idx, weights=np.repeat(g, d), minlength=size).reshape(MAX_BINS, d)
        hist[:, 1] = np.bincount(idx, weights=np.repeat(h, d), minlength=size).reshape(MAX_BINS, d)
        hist[:, 2] = counts.reshape(MAX_BINS, d)
        return hist

    def _grow_node(self, rows: np.ndarray, hist: np.ndarray | None, depth: int, parent: int) -> tuple:
        """Append a node; return its children to grow, right first. hist is
        None iff the node cannot split; a split reuses it for a child's."""
        node = len(self.value)
        if parent >= 0:
            self.right[parent] = node
        split = None if hist is None else _best_split(hist, self.params, self.cum)
        if split is None:
            denom = float(self.h[rows].sum()) + self.params.reg_lambda
            self._append(-1, 0.0, -float(self.g[rows].sum()) / denom if denom > 0 else 0.0)
            return ()

        feat, bin_ = split
        goes_left = self.flat[rows, feat] <= bin_ * self.flat.shape[1] + feat
        left_rows, right_rows = rows[goes_left], rows[~goes_left]
        need_left = self._can_split(left_rows.size, depth + 1)
        need_right = self._can_split(right_rows.size, depth + 1)
        left_hist = right_hist = None
        if need_left or need_right:  # then the larger child can split
            if left_rows.size <= right_rows.size:
                left_hist = self._histogram(left_rows)
                right_hist = np.subtract(hist, left_hist, out=hist)
            else:
                right_hist = self._histogram(right_rows)
                left_hist = np.subtract(hist, right_hist, out=hist)

        values = self.x[rows, feat]
        max_left, min_right = float(values[goes_left].max()), float(values[~goes_left].min())
        mid = (max_left + min_right) / 2.0  # rounds onto max_left when the two are adjacent doubles
        self._append(feat, mid if max_left < mid <= min_right else min_right, 0.0)
        return (
            (right_rows, right_hist if need_right else None, depth + 1, node),
            (left_rows, left_hist if need_left else None, depth + 1, -1),
        )

    def _append(self, feature: int, threshold: float, value: float) -> None:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.right.append(-1)
        self.value.append(value)


def _best_split(hist: np.ndarray, params: GbdtParams, cum: np.ndarray) -> tuple[int, int] | None:
    """(feature, last left bin) of the best split in a (MAX_BINS, 3, d)
    histogram, or None if none gains; ``cum`` is scratch of hist's shape."""
    lam = params.reg_lambda
    min_leaf = params.min_samples_leaf
    d = hist.shape[2]
    # Per-feature prefix sums over bins, one add per bin across every feature.
    cum[0] = hist[0]
    for prev, h, out in zip(cum, hist[1:], cum[1:]):
        np.add(prev, h, out=out)
    g_tot, h_tot, n_tot = cum[-1]
    n_cum = cum[:, 2]
    # One candidate per distinct partition: the last non-empty bin going
    # left, in bin-major order (bin * d + feature).
    cand = np.flatnonzero((hist[:, 2] > 0) & (n_cum >= min_leaf) & (n_cum <= n_tot[0] - min_leaf))
    if cand.size == 0:
        return None
    bins = cand // d
    feat = cand - bins * d
    at = cand + bins * (2 * d)  # (bin, 0, feature) in cum
    gl = cum.ravel()[at]
    at += d
    hl = cum.ravel()[at]
    gr = g_tot[feat]
    gr -= gl
    hr = h_tot[feat]
    hr -= hl
    with np.errstate(divide="ignore", invalid="ignore"):
        parent = g_tot**2 / (h_tot + lam)
        # gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent), in place
        gain = np.square(gl, out=gl)
        gain /= np.add(hl, lam, out=hl)
        np.square(gr, out=gr)
        gr /= np.add(hr, lam, out=hr)
        gain += gr
        gain -= parent[feat]
        gain *= 0.5
    gain[~np.isfinite(gain)] = -np.inf
    best = gain.max()
    if best <= 0.0:
        return None
    # Ties break toward the lowest feature, then the lowest bin: among the
    # tied candidates, which ascend by bin, the first of the lowest feature.
    tied = np.flatnonzero(gain == best)
    first = tied[np.argmin(feat[tied])]
    return int(feat[first]), int(bins[first])


def _descend(x, rows, node, feature, threshold, right) -> np.ndarray:
    """Advance each node to the leaf its row of x (``rows``, broadcast against
    ``node``) reaches: ``x < threshold`` goes to the next node, else to ``right``."""
    # One flat gather per level, in x's own memory order so that x is not copied (the fit's x is F-ordered).
    flat, offset, step = (x.ravel(), rows * x.shape[1], 1) if x.flags.c_contiguous else (x.ravel("F"), rows, len(x))
    while True:
        feat = feature[node]
        split = feat >= 0
        if not split.any():
            return node
        goes_left = flat[offset + feat * step] < threshold[node]  # a leaf's -1 reads a value it ignores
        node = np.where(split, np.where(goes_left, node + 1, right[node]), node)


# The packed forest: node arrays and each tree's first node, with their dtypes.
_NODE_ARRAYS = dict(feature=np.int64, threshold=np.float64, right=np.int64, value=np.float64, roots=np.int64)


@dataclass(eq=False)
class BoostedEnsemble:
    """Fitted boosting model mapping feature rows to soft scores in (0, 1).

    The trees are packed into node arrays, each tree in preorder from its
    ``roots`` entry. Node i is a leaf iff ``feature[i] == -1``; a split sends
    ``x[feature[i]] < threshold[i]`` to ``i + 1``, anything else to ``right[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    learning_rate: float
    base_score: float
    n_features: int
    train_loss: list[float] = field(default_factory=list)

    def leaves(self, features: np.ndarray) -> np.ndarray:
        """(n, n_trees) index of the leaf each row reaches in each tree."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise GeometryError(f"expected {self.n_features} feature columns, got shape {features.shape}")
        rows = np.arange(features.shape[0])[:, None]
        start = np.broadcast_to(self.roots, (rows.size, self.roots.size))
        return _descend(features, rows, start, self.feature, self.threshold, self.right)

    def predict_margin(self, features: np.ndarray) -> np.ndarray:
        steps = self.learning_rate * self.value[self.leaves(features)]
        # cumsum adds tree by tree from base_score, in the fit's order, so margins match it bit for bit.
        return np.cumsum(np.insert(steps, 0, self.base_score, axis=1), axis=1)[:, -1]

    def predict_score(self, features: np.ndarray) -> np.ndarray:
        """Soft score d: probability of the positive (generated) class."""
        return np.clip(_sigmoid(self.predict_margin(features)), _PROB_EPS, 1.0 - _PROB_EPS)

    def to_dict(self) -> dict:
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "BoostedEnsemble":
        """Inverse of ``to_dict``: each field read by name, the node arrays as their ``_NODE_ARRAYS`` dtype."""
        values = {f.name: doc[f.name] for f in fields(cls)}
        for name, dtype in _NODE_ARRAYS.items():
            value = values[name]
            values[name] = integer_array(value, f"ensemble {name}") if dtype is np.int64 else np.asarray(value, dtype)
        return cls(**values)

    def __post_init__(self):
        """Check that children follow their parent inside its tree, so every descent ends at a leaf."""
        for name in ("learning_rate", "base_score"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FormatError(f"ensemble {name} must be a number, got {value!r}")
        n = self.value.size
        if self.roots.ndim != 1 or {a.shape for a in (self.feature, self.threshold, self.right, self.value)} != {(n,)}:
            raise FormatError("ensemble node arrays must be flat and of equal length")
        bounds = np.append(self.roots, n)
        if bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
            raise FormatError("ensemble roots must start at 0 and ascend inside the node arrays")
        if np.any(self.feature < -1) or np.any(self.feature >= self.n_features):
            raise FormatError(f"ensemble node features must be -1 (a leaf) or lie in [0, {self.n_features})")
        split_ok = (self.right > np.arange(n) + 1) & (self.right < np.repeat(bounds[1:], np.diff(bounds)))
        if not np.where(self.feature >= 0, split_ok, self.right == -1).all():
            raise FormatError("an ensemble right child must follow the left subtree inside its tree (-1 at a leaf)")


def fit_ensemble(
    features: np.ndarray, labels: np.ndarray, params: GbdtParams | None = None, seed: int = 0
) -> BoostedEnsemble:
    """Train on binary labels (0 or 1, or bool); 1 is the positive (generated) class.

    ``seed`` drives only the per-round row subsample.
    """
    params = params or GbdtParams()
    params.validate()
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or labels.ndim != 1 or x.shape[0] != labels.size:
        raise ValueError("features must be (samples, dims) with one label per row")
    y = _binary_labels(labels).astype(np.float64)  # both classes occur, so there are at least 2 samples
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    n1 = y.sum()

    base = float(np.log(n1 / (y.size - n1)))
    margin = np.full(y.size, base)
    flat = _quantize(x).astype(np.intp)
    flat *= x.shape[1]
    flat += np.arange(x.shape[1])  # bin-major: code * d + feature
    all_rows = np.arange(y.size)
    rng = np.random.default_rng(seed)

    forest = _TreeBuilder(x, flat, params)
    losses: list[float] = []
    p = _sigmoid(margin)
    for _ in range(params.n_rounds):
        g = p - y
        h = p * (1.0 - p)
        if params.subsample < 1.0:
            picked = rng.choice(y.size, size=max(2, int(params.subsample * y.size)), replace=False)
            rows = np.sort(picked)
        else:
            rows = all_rows
        root = forest.grow(rows, g, h)  # then every row descends the new tree, indexed from its root
        feature, threshold, right, value = (np.asarray(getattr(forest, k)[root:]) for k in list(_NODE_ARRAYS)[:4])
        leaf = _descend(x, all_rows, np.zeros_like(all_rows), feature, threshold, right - root)
        margin = margin + params.learning_rate * value[leaf]
        p = _sigmoid(margin)  # this round's loss and the next round's gradients
        losses.append(_log_loss(y, p))

    return BoostedEnsemble(
        **{name: np.asarray(getattr(forest, name), dtype=dtype) for name, dtype in _NODE_ARRAYS.items()},
        learning_rate=params.learning_rate,
        base_score=base,
        n_features=x.shape[1],
        train_loss=losses,
    )
