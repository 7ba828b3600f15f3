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
former. A tree stops at ``max_depth`` (at most MAX_DEPTH) or at the first
level where no split gains. It is stored as its levels: D = ``max_depth``
(feature, threshold) pairs and 2**D leaf values. A row's leaf is the sum over
levels l of 2**(D-1-l) times its bit, 0 if ``x[feature] < threshold`` and 1
if not, so one gather of the rows per level finds their leaves in every tree
at once. A level below a tree's last split has feature -1 and bit 0, so each
leaf of a tree that stops at depth k repeats 2**(D-k) times; a leaf that no
sampled row reaches holds 0. The fit updates its margins by the same predictor.
Everything runs on plain numpy ops (sorts, gathers, bincounts, elementwise
adds) whose results do not depend on BLAS thread counts, which keeps refits
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dft import _binary_labels
from .errors import FormatError, GeometryError, json_array

_PROB_EPS = 1e-15
MAX_BINS = 64  # uint8 codes
QUANTIZE_VALUES = 2**18  # values per column block of _quantize
MAX_DEPTH = 12  # a tree stores 2**max_depth leaf values


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
    max_depth: int = field(default=4, metadata={"help": f"tree depth limit, 1 to {MAX_DEPTH}"})
    learning_rate: float = field(default=0.1, metadata={"help": "boosting learning rate"})
    reg_lambda: float = field(default=1.0, metadata={"help": "L2 leaf regularization"})
    min_samples_leaf: int = field(
        default=5, metadata={"help": "each child of each split node holds no sampled row or at least this many"}
    )
    subsample: float = field(default=1.0, metadata={"help": "per-round row subsample fraction"})

    def validate(self):
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must lie in [1, {MAX_DEPTH}], got {self.max_depth}")
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


def _grow_tree(tree, x, flat, all_counts, rows: np.ndarray, g, h, params: GbdtParams) -> None:
    """Grow one oblivious tree over ascending row indices into ``tree``, its (feature, threshold, value) rows of
    the level arrays, which hold -1, 0 and 0."""
    feature, threshold, value = tree
    d = flat.shape[1]
    nodes = {0: rows}  # the rows of each node of the level that sampled rows reach, keyed by path bits
    hists = [_histogram(flat, rows, g, h, all_counts)]  # the level's, in key order
    depth = 0
    while depth < params.max_depth:
        split = _best_split(hists, params)
        if split is None:
            break
        feat, bin_ = split
        goes_left = flat[:, feat] <= bin_ * d + feat
        values = x[:, feat]
        max_left, min_right = float(values[goes_left].max()), float(values[~goes_left].min())
        mid = (max_left + min_right) / 2.0  # rounds onto max_left when the two are adjacent doubles
        feature[depth], threshold[depth] = feat, mid if max_left < mid <= min_right else min_right
        depth += 1
        deeper = depth < params.max_depth
        children, hists_next = {}, []
        for (path, node_rows), hist in zip(nodes.items(), hists):
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
        nodes, hists = children, hists_next
    repeat = 1 << (params.max_depth - depth)  # the leaves a path ends in when the tree stops above max_depth
    for path, node_rows in nodes.items():
        denom = float(h[node_rows].sum()) + params.reg_lambda
        value[path * repeat : (path + 1) * repeat] = -float(g[node_rows].sum()) / denom if denom > 0 else 0.0


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


def _leaves(x: np.ndarray, feature: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """(n, trees) index of the leaf each row of x reaches in each tree of the level arrays, one gather per level."""
    leaf = np.zeros((len(x), len(feature)), dtype=np.intp)
    for feat, thresh in zip(feature.T, threshold.T):
        leaf <<= 1
        split = feat >= 0
        if split.any():  # else x may have no column to read
            leaf += split & ~(x[:, np.maximum(feat, 0)] < thresh)  # a NaN goes right, as it fails x < threshold
    return leaf


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(eq=False)
class BoostedEnsemble:
    """Fitted boosting model mapping feature rows to soft scores in (0, 1).

    Tree t is row t of the level arrays: ``feature`` and ``threshold`` of shape (trees, D) and ``value`` of shape
    (trees, 2**D). Level l adds 2**(D-1-l) to a row's leaf unless ``x[feature[t, l]] < threshold[t, l]``, and
    nothing where ``feature[t, l]`` is -1; the row scores ``value[t, leaf]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    learning_rate: float
    base_score: float
    n_features: int
    train_loss: list[float] = field(default_factory=list)

    def leaves(self, features: np.ndarray) -> np.ndarray:
        """(n, n_trees) index in [0, 2**D) of the leaf each row reaches in each tree."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise GeometryError(f"expected {self.n_features} feature columns, got shape {features.shape}")
        return _leaves(features, self.feature, self.threshold)

    def predict_margin(self, features: np.ndarray) -> np.ndarray:
        steps = self.learning_rate * self.value[np.arange(len(self.value)), self.leaves(features)]
        # cumsum adds tree by tree from base_score, in the fit's order, so margins match it bit for bit.
        return np.cumsum(np.insert(steps, 0, self.base_score, axis=1), axis=1)[:, -1]

    def predict_score(self, features: np.ndarray) -> np.ndarray:
        """Soft score d: probability of the positive (generated) class."""
        return np.clip(_sigmoid(self.predict_margin(features)), _PROB_EPS, 1.0 - _PROB_EPS)

    def to_dict(self) -> dict:
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "BoostedEnsemble":
        """Inverse of ``to_dict``: each field read by name, the level arrays as lists of rows of their dtype."""
        values = {f.name: doc[f.name] for f in fields(cls)}
        for name, dtype in (("feature", np.int64), ("threshold", np.float64), ("value", np.float64)):
            values[name] = json_array(values[name], f"ensemble {name}", ndim=2, dtype=dtype)
        return cls(**values)

    def __post_init__(self):
        """Check the field types and the level arrays' shapes and features, so prediction reads inside every array."""
        for name in ("learning_rate", "base_score"):
            value = getattr(self, name)
            if not _is_number(value):
                raise FormatError(f"ensemble {name} must be a number, got {value!r}")
        if not isinstance(self.train_loss, list) or not all(map(_is_number, self.train_loss)):
            raise FormatError("ensemble train_loss must be a list of numbers")
        if type(self.n_features) is not int or self.n_features < 0:
            raise FormatError(f"ensemble n_features must be an integer >= 0, got {self.n_features!r}")
        trees, depth = self.feature.shape
        if self.threshold.shape != (trees, depth) or len(self.value) != trees or self.value.size != trees << depth:
            raise FormatError("ensemble feature, threshold and value must be of shapes (T, D), (T, D) and (T, 2**D)")
        if np.any(self.feature < -1) or np.any(self.feature >= self.n_features):
            raise FormatError(f"ensemble features must be -1 (no split) or lie in [0, {self.n_features})")


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

    feature = np.full((params.n_rounds, params.max_depth), -1, dtype=np.int64)
    threshold = np.zeros(feature.shape)
    value = np.zeros((params.n_rounds, 1 << params.max_depth))
    all_counts = np.bincount(flat.ravel(), minlength=MAX_BINS * x.shape[1])  # a whole-sample root's counts
    losses: list[float] = []
    p = _sigmoid(margin)
    for t in range(params.n_rounds):
        g = p - y
        h = p * (1.0 - p)
        if params.subsample < 1.0:
            picked = rng.choice(y.size, size=max(2, int(params.subsample * y.size)), replace=False)
            rows = np.sort(picked)
        else:
            rows = all_rows
        _grow_tree((feature[t], threshold[t], value[t]), x, flat, all_counts, rows, g, h, params)
        leaf = _leaves(x, feature[t : t + 1], threshold[t : t + 1])[:, 0]  # every row, sampled or not
        margin = margin + params.learning_rate * value[t, leaf]
        p = _sigmoid(margin)  # this round's loss and the next round's gradients
        losses.append(_log_loss(y, p))

    return BoostedEnsemble(
        feature=feature,
        threshold=threshold,
        value=value,
        learning_rate=params.learning_rate,
        base_score=base,
        n_features=x.shape[1],
        train_loss=losses,
    )
