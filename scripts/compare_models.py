#!/usr/bin/env python3
"""Paired comparison of two model files on the same images.

Scores both models once on the real and the generated images, then draws
stratified bootstrap resamples: each keeps both classes at their counts,
drawing each class's images with replacement, and both models are measured
on the same resample. For PR-AUC, ROC-AUC and accuracy (at each model's own
threshold), the JSON gives A's and B's value on all images, the difference
B - A, its 95% percentile interval over the resamples, and the fraction of
resamples in which B is better. The resamples are seeded, so the JSON is
byte-reproducible.

    PYTHONPATH=src python scripts/compare_models.py A.json B.json real.lgt gen.lgt -o compare.json
"""

import argparse
import json

import numpy as np

from lgsqe import PipelineModel, load_images
from lgsqe.evaluate import accuracy, confusion, pr_auc, roc_auc

RESAMPLES = 1000
SEED = 0


def metrics(scores: np.ndarray, labels: np.ndarray, threshold: float) -> np.ndarray:
    """PR-AUC, ROC-AUC and accuracy, in that order."""
    return np.array([pr_auc(scores, labels), roc_auc(scores, labels), accuracy(confusion(scores, labels, threshold))])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model_a")
    parser.add_argument("model_b")
    parser.add_argument("real")
    parser.add_argument("generated")
    parser.add_argument("-o", "--out", required=True)
    args = parser.parse_args()

    real, generated = load_images(args.real), load_images(args.generated)
    labels = np.concatenate([np.zeros(real.count), np.ones(generated.count)])
    models = [PipelineModel.load(path) for path in (args.model_a, args.model_b)]
    scores = [np.concatenate([model.score_images(real), model.score_images(generated)]) for model in models]
    thresholds = [model.config.threshold for model in models]

    rng = np.random.default_rng(SEED)
    differences = np.empty((RESAMPLES, 3))
    for row in differences:
        picks = np.concatenate(
            [rng.integers(0, real.count, real.count), real.count + rng.integers(0, generated.count, generated.count)]
        )
        row[:] = metrics(scores[1][picks], labels, thresholds[1]) - metrics(scores[0][picks], labels, thresholds[0])

    full = [metrics(s, labels, t) for s, t in zip(scores, thresholds)]
    low, high = np.percentile(differences, [2.5, 97.5], axis=0)
    report = {
        "models": {"a": args.model_a, "b": args.model_b},
        "images": {"real": real.count, "generated": generated.count},
        "resamples": RESAMPLES,
        "seed": SEED,
        "metrics": {
            name: {
                "a": float(full[0][i]),
                "b": float(full[1][i]),
                "difference": float(full[1][i] - full[0][i]),
                "interval": [float(low[i]), float(high[i])],
                "b_wins": float(np.mean(differences[:, i] > 0)),
            }
            for i, name in enumerate(("pr_auc", "roc_auc", "accuracy"))
        },
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
