"""Scoring aggregation: confusion metrics, PR-AUC, histograms, filtering.

The positive class is "generated" (label 1); a sample with soft score
d >= t is predicted generated. Smaller scores indicate more realistic
samples, so quality filtering keeps the ascending-score prefix.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import write_csv
from .dft import _binary_labels
from .errors import GeometryError

REPORT_VERSION = "1.0.0"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")


def check_bins(bins: int) -> None:
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")


def check_keep_fraction(keep_fraction: float) -> None:
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")


def confusion(scores: np.ndarray, labels: np.ndarray, threshold: float) -> ConfusionCounts:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise GeometryError("scores and labels must have identical shape")
    check_threshold(threshold)
    predicted = scores >= threshold
    actual = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def accuracy(counts: ConfusionCounts) -> float:
    return (counts.tp + counts.tn) / counts.total


def precision(counts: ConfusionCounts) -> float | None:
    """TP/(TP+FP); None when nothing was predicted positive."""
    denom = counts.tp + counts.fp
    return counts.tp / denom if denom else None


def recall(counts: ConfusionCounts) -> float | None:
    """TP/(TP+FN); None when no positives exist."""
    denom = counts.tp + counts.fn
    return counts.tp / denom if denom else None


def _pr_points(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision arrays swept over descending thresholds.

    Thresholds are the distinct score values plus {0, 1}. Points with an
    undefined precision are dropped; the first valid precision is extended
    flat to recall zero so the trapezoid covers [0, max recall].
    """
    # Sorted without repeats, as np.unique would give them; a plain np.unique imports numpy.ma in numpy 2.x.
    thresholds = np.sort(np.concatenate([scores, [0.0, 1.0]]))
    thresholds = thresholds[np.concatenate([[True], thresholds[1:] != thresholds[:-1]])][::-1]
    order = np.argsort(scores, kind="stable")
    positives_below = np.concatenate([[0], np.cumsum(labels[order] == 1)])
    below = np.searchsorted(scores[order], thresholds, side="left")  # scores < t
    predicted = scores.size - below
    tp = positives_below[-1] - positives_below[below]
    valid = predicted > 0
    recall, precision = tp[valid] / positives_below[-1], tp[valid] / predicted[valid]
    return np.concatenate([recall[:1] * 0.0, recall]), np.concatenate([precision[:1], precision])


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Trapezoidal area under the precision-recall curve; labels as in ``roc_auc``."""
    r, p = _pr_points(np.asarray(scores, dtype=np.float64), _binary_labels(labels))
    # cumsum adds the trapezoids one by one from 0.0, in recall order, as a running sum would.
    return float(np.cumsum(np.concatenate([[0.0], (r[1:] - r[:-1]) * (p[1:] + p[:-1]) / 2.0]))[-1])


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic ROC-AUC (emitted for diagnostics, distinct from PR-AUC).

    Labels must be 0 or 1 (or bool), and both must occur.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = _binary_labels(labels) == 1
    pos = scores[positive]
    neg = scores[~positive]
    merged = np.concatenate([neg, pos])
    _, inverse, counts = np.unique(merged, return_inverse=True, return_counts=True)
    group_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    midranks = (group_starts + (counts + 1) / 2.0)[inverse]
    u = midranks[neg.size :].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def score_histogram(scores: np.ndarray, provenance: np.ndarray, bins: int = 50) -> dict:
    """Uniform [0, 1] histogram with separate real/generated counts."""
    check_bins(bins)
    scores = np.asarray(scores, dtype=np.float64)
    provenance = np.asarray(provenance)
    edges = np.linspace(0.0, 1.0, bins + 1)
    real_counts, _ = np.histogram(scores[provenance == 0], bins=edges)
    gen_counts, _ = np.histogram(scores[provenance == 1], bins=edges)
    return {
        "bin_edges": edges.tolist(),
        "real": real_counts.tolist(),
        "generated": gen_counts.tolist(),
    }


def filter_samples(sample_ids: np.ndarray, scores: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Keep the floor(keep_fraction * n) ids with the smallest scores.

    Ties break by sample id; output is ordered by ascending score.
    """
    check_keep_fraction(keep_fraction)
    sample_ids = np.asarray(sample_ids)
    scores = np.asarray(scores, dtype=np.float64)
    if sample_ids.shape != scores.shape:
        raise GeometryError("sample_ids and scores must have identical shape")
    keep = int(keep_fraction * sample_ids.size)
    order = np.lexsort((sample_ids, scores))
    return sample_ids[order[:keep]]


@dataclass(eq=False)
class EvaluationReport:
    """Model-level metrics plus score histograms and run metadata."""

    counts: ConfusionCounts
    accuracy: float
    precision: float | None
    recall: float | None
    pr_auc: float
    roc_auc: float
    threshold: float
    histogram: dict
    metadata: dict = field(default_factory=dict)
    version: str = REPORT_VERSION

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["format_version"] = doc.pop("version")
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "EvaluationReport":
        """Inverse of to_dict."""
        doc = dict(doc)
        return cls(counts=ConfusionCounts(**doc.pop("counts")), version=doc.pop("format_version"), **doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def aggregate_report(
    scores: np.ndarray,
    labels: np.ndarray,
    threshold: float = 0.5,
    bins: int = 50,
    metadata: dict | None = None,
) -> EvaluationReport:
    """Assemble all metrics into one report; labels double as provenance.
    ``ValueError`` unless both classes occur, before any metric is computed."""
    _binary_labels(labels)
    counts = confusion(scores, labels, threshold)
    return EvaluationReport(
        counts=counts,
        accuracy=accuracy(counts),
        precision=precision(counts),
        recall=recall(counts),
        pr_auc=pr_auc(scores, labels),
        roc_auc=roc_auc(scores, labels),
        threshold=threshold,
        histogram=score_histogram(scores, labels, bins),
        metadata=metadata or {},
    )


def write_scores_csv(path, sample_ids, provenance, scores) -> None:
    """Rows of (sample_id, provenance, score) with scores at 6 decimals."""
    rows = ((sid, prov, f"{score:.6f}") for sid, prov, score in zip(sample_ids, provenance, scores))
    write_csv(path, ("sample_id", "provenance", "score"), rows)


def histogram_svg(histogram: dict, width: int = 640, height: int = 320) -> str:
    """Minimal two-series bar chart of the score histogram."""
    edges = histogram["bin_edges"]
    series = [("real", histogram["real"], "#4878cf"), ("generated", histogram["generated"], "#d65f5f")]
    peak = max(max(counts) if counts else 0 for _, counts, _ in series) or 1
    margin, plot_w, plot_h = 40, width - 60, height - 60
    bar_w = plot_w / (len(edges) - 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{margin + plot_w}" y2="{margin + plot_h}" stroke="black"/>',
    ]
    for s_idx, (name, counts, color) in enumerate(series):
        for b_idx, count in enumerate(counts):
            bar_h = plot_h * count / peak
            x = margin + b_idx * bar_w + s_idx * bar_w / 2
            y = margin + plot_h - bar_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w / 2:.2f}" height="{bar_h:.2f}" '
                f'fill="{color}" fill-opacity="0.8"/>'
            )
        parts.append(
            f'<text x="{margin + plot_w - 100}" y="{margin / 2 + 12 * s_idx}" fill="{color}" '
            f'font-size="12">{name}</text>'
        )
    parts.append(f'<text x="{margin}" y="{height - 8}" font-size="12">soft score 0..1</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
