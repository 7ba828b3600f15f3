#!/usr/bin/env python3
"""Desk-scale experiment: how detection metrics react to sample quality.

Three sub-experiments on a seeded synthetic dataset:
  1. noise ladder    - test accuracy/PR-AUC as the degradation level grows
  2. filtering curve - accuracy and mean kept score as the keep fraction
                       shrinks on a mixed-quality pseudo-generator
  3. training sweep  - accuracy as a function of the real-sample fraction

Each writes one CSV into --out-dir and prints a summary line per row.
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from lgsqe import ImageSet, stroke_images
from lgsqe.datasets import write_csv
from lgsqe.evaluate import accuracy, confusion, filter_samples
from lgsqe.gbdt import GbdtParams
from lgsqe.pipeline import RunConfig, fit_and_evaluate
from lgsqe.synthetic import gaussian_degrade, mixed_quality_degrade


def noise_ladder(real, base, config, out_path):
    rows = []
    for sigma in (0.02, 0.05, 0.10, 0.20, 0.30):
        generated = gaussian_degrade(base, sigma, seed=int(sigma * 10_000))
        _, _, report = fit_and_evaluate(real, generated, config)
        rows.append((sigma, report.accuracy, report.pr_auc))
        print(f"[ladder] sigma={sigma:.2f}  accuracy={report.accuracy:.4f}  pr_auc={report.pr_auc:.4f}")
    write_csv(out_path, ("sigma", "accuracy", "pr_auc"), rows)


def filtering_curve(real, base, config, out_path):
    generated = mixed_quality_degrade(base, 0.08, seed=404)
    model, split, _ = fit_and_evaluate(real, generated, config)
    gen_scores = model.score_images(split.test_generated)
    real_scores = model.score_images(split.test_real)
    ids = np.arange(split.test_generated.count)
    rows = []
    for keep in (1.0, 0.8, 0.6, 0.4, 0.2):
        kept = filter_samples(ids, gen_scores, keep)
        m = kept.size
        scores = np.concatenate([gen_scores[kept], real_scores[:m]])
        labels = np.concatenate([np.ones(m), np.zeros(m)])
        acc = accuracy(confusion(scores, labels, 0.5))
        rows.append((keep, m, gen_scores[kept].mean(), acc))
        print(f"[filter] keep={keep:.1f}  kept={m}  mean_score={rows[-1][2]:.4f}  accuracy={acc:.4f}")
    write_csv(out_path, ("keep_fraction", "kept_count", "mean_kept_score", "accuracy"), rows)


def training_sweep(real, base, config, out_path):
    generated = gaussian_degrade(base, 0.15, seed=505)
    rows = []
    for fraction in (0.05, 0.1, 0.2, 0.5, 1.0):
        _, _, report = fit_and_evaluate(real, generated, replace(config, real_fraction=fraction))
        rows.append((fraction, report.accuracy))
        print(f"[sweep] real_fraction={fraction:.2f}  accuracy={report.accuracy:.4f}")
    write_csv(out_path, ("real_fraction", "accuracy"), rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--count", type=int, default=1200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-floor", type=float, default=0.04)
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    real = stroke_images(args.count, side=28, seed=args.seed + 1000, noise=args.noise_floor)
    base = ImageSet(
        stroke_images(args.count, side=28, seed=args.seed + 2000, noise=args.noise_floor).pixels,
        "real",
    )
    config = RunConfig(
        patch_size=5, stride=2, top_k=150,
        gbdt=GbdtParams(n_rounds=60, max_depth=3), seed=args.seed,
    )

    noise_ladder(real, base, config, out / "noise_ladder.csv")
    filtering_curve(real, base, config, out / "filtering_curve.csv")
    training_sweep(real, base, config, out / "training_sweep.csv")
    print(f"results written to {out}/")


if __name__ == "__main__":
    main()
