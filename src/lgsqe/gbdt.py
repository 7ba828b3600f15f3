"""Gradient-boosted oblivious regression trees with a logistic objective, from scratch.

Boosting follows the second-order scheme: per round, gradients g = p - y and
hessians h = p(1 - p) are computed from the current margin, one tree is
grown by histogram split search, and leaf weights are -G/(H + lambda).
Split gain is

    0.5 * [G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda) - (G_L+G_R)^2/(H_L+H_R + lambda)]

The trees are oblivious (as in CatBoost): every node of a level splits on one
shared (feature, threshold), the one whose gain summed over the level's nodes
is largest. Each feature column is quantized once per fit into at most
MAX_BINS = 64 bins with cuts at rank quantiles; a column with at most 64
distinct values gets one bin per value. A node's histogram is a
(statistic, bin, feature) array of g, h and row-count sums, so a level holds
nodes x 64 x 3 x d doubles for d features. Each level counts only the smaller
child of every node, from one ``np.bincount`` per statistic over the bin-major
index ``code * d + feature``; the larger child is its parent minus it (as in
XGBoost ``hist`` and LightGBM), subtracted in place. A round that grows on
all rows counts its root without gathering rows and reuses the counts taken
once per fit. A split must leave each child of each node empty or holding at
least ``min_samples_leaf`` sampled rows, and a node it does not divide gains
0. Gain ties break toward the lowest feature index, then the lowest bin, so
fits are fully deterministic. A split's threshold is the midpoint between the
largest value of the column, over all rows, that falls in a bin going left
and the smallest going right, or the latter if the midpoint rounds onto the
former. A tree stops at ``max_depth`` or at the first level where no split
gains; a node that no sampled row reaches becomes a leaf of value 0. Each
tree is packed in preorder into the forest's node arrays, which can hold any
binary tree, so prediction does not rely on the trees being oblivious.
Everything runs on plain numpy ops (sorts, gathers, bincounts, elementwise
adds) whose results do not depend on BLAS thread counts, which keeps refits
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dft import _binary_labels
from .errors import FormatError, GeometryError, integer_array

_PROB_EPS = 1e-15
MAX_BINS = 64  # uint8 codes
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
    min_samples_leaf: int = field(
        default=5, metadata={"help": "each child of each split node holds no sampled row or at least this many"}
    )
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


def _histogram(flat: np.ndarray, rows: np.ndarray, g: np.ndarray, h: np.ndarray, all_counts: np.ndarray):
    """(3, MAX_BINS, d) sums of g, h and row counts per bin and feature over ascending ``rows``;
    ``flat`` is the (n, d) bin-major index, ``all_counts`` its counts over all rows."""
    n, d = flat.shape
    size = MAX_BINS * d
    if rows.size == n:  # the rows ascend without repeats, so they are all rows, in order
        idx, counts = flat.ravel(), all_counts
    else:
        idx, g, h = flat[rows].ravel(), g[rows], h[rows]
        counts = np.bincount(idx, minlength=size)
    sums = [np.bincount(idx, weights=np.repeat(w, d), minlength=size) for w in (g, h)]
    return np.stack(sums + [counts]).reshape(3, MAX_BINS, d)


def _grow_tree(forest: dict, x, flat, all_counts, rows: np.ndarray, g, h, params: GbdtParams) -> int:
    """Append one oblivious tree, grown over ascending row indices, to the
    ``forest`` node lists in preorder; return its root."""
    d = flat.shape[1]
    levels = [{0: rows}]  # per depth, the rows of each node that sampled rows reach, keyed by path bits
    hists = [_histogram(flat, rows, g, h, all_counts)]  # the last level's, in key order
    splits = []  # per depth, the shared (feature, threshold)
    while len(splits) < params.max_depth:
        split = _best_split(hists, params)
        if split is None:
            break
        feat, bin_ = split
        goes_left = flat[:, feat] <= bin_ * d + feat
        values = x[:, feat]
        max_left, min_right = float(values[goes_left].max()), float(values[~goes_left].min())
        mid = (max_left + min_right) / 2.0  # rounds onto max_left when the two are adjacent doubles
        splits.append((feat, mid if max_left < mid <= min_right else min_right))
        deeper = len(splits) < params.max_depth
        children, hists_next = {}, []
        for (path, node_rows), hist in zip(levels[-1].items(), hists):
            left = goes_left[node_rows]
            sides, side_hists = [node_rows[left], node_rows[~left]], [None, None]
            if deeper:  # count the smaller child; the larger is the parent minus it
                small = int(sides[1].size < sides[0].size)
                side_hists[small] = _histogram(flat, sides[small], g, h, all_counts)
                side_hists[1 - small] = np.subtract(hist, side_hists[small], out=hist)
            for bit in (0, 1):
                if sides[bit].size:
                    children[2 * path + bit] = sides[bit]
                    hists_next.append(side_hists[bit])
        levels.append(children)
        hists = hists_next

    root = len(forest["value"])
    forest["roots"].append(root)
    stack = [(0, 0, -1)]  # (depth, path, the node whose right child it is)
    while stack:
        depth, path, parent = stack.pop()
        node = len(forest["value"])
        if parent >= 0:
            forest["right"][parent] = node
        node_rows = levels[depth].get(path)  # None if no sampled row reaches the node
        feat, threshold, value = -1, 0.0, 0.0
        if node_rows is not None and depth < len(splits):
            feat, threshold = splits[depth]
            stack += [(depth + 1, 2 * path + 1, node), (depth + 1, 2 * path, -1)]
        elif node_rows is not None:
            denom = float(h[node_rows].sum()) + params.reg_lambda
            value = -float(g[node_rows].sum()) / denom if denom > 0 else 0.0
        for name, item in (("feature", feat), ("threshold", threshold), ("right", -1), ("value", value)):
            forest[name].append(item)
    return root


def _best_split(hists: list[np.ndarray], params: GbdtParams) -> tuple[int, int] | None:
    """(feature, last left bin) of the split with the largest gain summed over
    a level's nodes, given their (3, MAX_BINS, d) histograms, or None if none
    gains. A candidate bin holds a row of the level, so it is the lowest of
    the bins that part the level alike."""
    lam, min_leaf = params.reg_lambda, params.min_samples_leaf
    total = np.zeros(hists[0].shape[1:])  # twice the level's gain per (last left bin, feature)
    valid = np.zeros(total.shape, dtype=bool)
    allowed = np.ones(total.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for hist in hists:
            valid |= hist[2] > 0
            g, h, n = np.cumsum(hist, axis=1)  # each statistic left of the split
            smaller = np.minimum(n, n[-1] - n)  # the rows of the smaller child
            allowed &= (smaller == 0) | (smaller >= min_leaf)
            gain = g**2 / (h + lam) + (g[-1] - g) ** 2 / (h[-1] - h + lam) - g[-1] ** 2 / (h[-1] + lam)
            total += np.where(smaller > 0, gain, 0.0)  # a node the split does not divide gains 0
    valid &= allowed & np.isfinite(total)
    total[~valid] = -np.inf
    # Feature-major, so ties break toward the lowest feature, then the lowest bin.
    feat, bin_ = divmod(int(np.argmax(total.T)), MAX_BINS)
    return (feat, bin_) if total[bin_, feat] > 0.0 else None


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

    forest = {name: [] for name in _NODE_ARRAYS}
    all_counts = np.bincount(flat.ravel(), minlength=MAX_BINS * x.shape[1])  # a whole-sample root's counts
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
        root = _grow_tree(forest, x, flat, all_counts, rows, g, h, params)  # then every row descends the new tree
        feature, threshold, right, value = (np.asarray(forest[k][root:]) for k in list(_NODE_ARRAYS)[:4])
        leaf = _descend(x, all_rows, np.zeros_like(all_rows), feature, threshold, right - root)
        margin = margin + params.learning_rate * value[leaf]
        p = _sigmoid(margin)  # this round's loss and the next round's gradients
        losses.append(_log_loss(y, p))

    return BoostedEnsemble(
        **{name: np.asarray(forest[name], dtype=dtype) for name, dtype in _NODE_ARRAYS.items()},
        learning_rate=params.learning_rate,
        base_score=base,
        n_features=x.shape[1],
        train_loss=losses,
    )
