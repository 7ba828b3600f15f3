"""Acceptance suite: one test per release criterion, run with `pytest -v`.

Criteria 6-9 need an MNIST-scale image source. If the environment variable
``LGSQE_MNIST_DIR`` points at a directory containing ``train-images-idx3-ubyte``
those criteria run on real MNIST; otherwise they run on the seeded synthetic
stroke dataset at the same geometry and sample counts (offline default).
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lgsqe
from lgsqe.evaluate import accuracy, confusion, filter_samples
from lgsqe.gbdt import GbdtParams, fit_ensemble
from lgsqe.pipeline import RunConfig, fit_pipeline, holdout_split
from lgsqe.saab import PatchMatrix
from lgsqe.synthetic import gaussian_degrade, mixed_quality_degrade, stroke_images

from test_dft import exhaustive_dft_oracle
from test_evaluate import pr_auc_oracle
from test_saab import brute_force_eigenpairs

NOISE_FLOOR = 0.04


@pytest.fixture(scope="session")
def image_pools():
    """Two disjoint 2000-image pools (28x28 grayscale) and their source name."""
    mnist_dir = os.environ.get("LGSQE_MNIST_DIR")
    if mnist_dir:
        path = Path(mnist_dir) / "train-images-idx3-ubyte"
        if path.exists():
            images = lgsqe.load_idx(path)
            picks = np.sort(np.random.default_rng(0).permutation(images.count)[:4000])
            pool = images.subset(picks)
            return pool.subset(np.arange(2000)), pool.subset(np.arange(2000, 4000)), "mnist"
    a = stroke_images(2000, side=28, seed=1000, noise=NOISE_FLOOR)
    b = stroke_images(2000, side=28, seed=2000, noise=NOISE_FLOOR)
    return a, b, "synthetic-strokes"


@pytest.fixture(scope="session")
def degradation_runs(image_pools):
    """Fitted pipelines for noise levels 0.05/0.15/0.30 at 1200 images/side."""
    pool_a, pool_b, _ = image_pools
    real = pool_a.subset(np.arange(1200))
    base = lgsqe.ImageSet(pool_b.pixels[:1200], "real")
    config = RunConfig(patch_size=5, stride=2, top_k=150, gbdt=GbdtParams(n_rounds=60, max_depth=3))
    runs = {}
    for sigma in (0.05, 0.15, 0.30):
        generated = gaussian_degrade(base, sigma, seed=int(sigma * 1000))
        model, _ = fit_pipeline(real, generated, config)
        runs[sigma] = (model, real, generated)
    return runs


def test_c01_saab_oracle_equivalence():
    """Fitted kernels/eigenvalues match a dense eigensolver on the explicit
    residual covariance, to 1e-6 after the sign convention, in under 5 s."""
    started = time.perf_counter()
    geometries = [(2, 1), (3, 1), (4, 1), (5, 1), (3, 3)]
    for trial in range(10):
        side, channels = geometries[trial % len(geometries)]
        dim = side * side * channels
        rng = np.random.default_rng(trial)
        data = rng.normal(size=(200, dim))
        patches = PatchMatrix(data, 200, 1, side, 1, channels, side)
        model = lgsqe.fit_saab(patches, energy_threshold=1.0)
        oracle_vals, oracle_kernels = brute_force_eigenpairs(data)
        assert np.max(np.abs(model.eigenvalues - oracle_vals)) < 1e-6
        assert np.max(np.abs(model.ac_kernels - oracle_kernels)) < 1e-6
        projected = data @ model.ac_kernels.T
        oracle_projected = data @ oracle_kernels.T
        assert np.max(np.abs(projected - oracle_projected)) < 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"criterion 1: 10 oracle comparisons passed in {elapsed:.2f}s")


def test_c02_energy_preservation():
    """With every kernel kept, per-patch coefficient energy equals the
    energy of the DC + mean-centered decomposition (rel. error < 1e-6)."""
    rng = np.random.default_rng(7)
    train = rng.normal(size=(400, 25))
    model = lgsqe.fit_saab(PatchMatrix(train, 400, 1, 5, 1, 1, 5), energy_threshold=1.0)
    assert model.num_channels == 25
    patches = rng.normal(size=(1000, 25))
    coeffs = patches @ model.kernel_matrix().T
    centered = patches - patches.mean(axis=1, keepdims=True)
    decomposed = (centered**2).sum(axis=1) + coeffs[:, 0] ** 2
    relative = np.abs((coeffs**2).sum(axis=1) - decomposed) / decomposed
    assert relative.max() < 1e-6
    print(f"criterion 2: max relative energy error {relative.max():.2e} on 1000 patches")


def test_c03_dft_exhaustive_oracle():
    """dft_loss equals brute-force threshold search exactly on 100 random
    instances; an independent feature at n=10,000 scores ln 2 within 0.02."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        bins = int(rng.integers(2, 9))
        values = rng.normal(size=n) * rng.uniform(0.1, 40)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        loss, threshold = lgsqe.dft_loss(values, labels, bins)
        oracle_loss, oracle_threshold = exhaustive_dft_oracle(values, labels, bins)
        assert loss == oracle_loss and threshold == oracle_threshold
    n = 10_000
    values = rng.normal(size=n)
    labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    rng.shuffle(labels)
    loss, _ = lgsqe.dft_loss(values, labels, num_bins=32)
    assert abs(loss - np.log(2)) < 0.02
    print(f"criterion 3: 100 exact oracle matches; independent loss {loss:.4f} vs ln2 {np.log(2):.4f}")


def test_c04_gbdt_correctness():
    """Depth-1 leaf weights match hand-computed -G/(H+lambda) to 1e-12;
    training logistic loss is non-increasing over 200 rounds."""
    features = np.array([[0.0], [1.0], [2.0], [3.0]])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    ensemble = fit_ensemble(features, labels, GbdtParams(n_rounds=1, max_depth=1, min_samples_leaf=1))
    tree = ensemble  # one packed tree: the root is node 0, its left child node 1
    left, right = 1, tree.right[0]
    hand_left = -(0.5 + 0.5) / (0.25 + 0.25 + 1.0)
    assert abs(tree.value[left] - hand_left) < 1e-12
    assert abs(tree.value[right] + hand_left) < 1e-12

    rng = np.random.default_rng(13)
    wide = rng.normal(size=(2000, 12))
    noisy_labels = (wide[:, 0] + 0.6 * wide[:, 1] + 0.8 * rng.normal(size=2000) > 0).astype(float)
    long_fit = fit_ensemble(wide, noisy_labels, GbdtParams(n_rounds=200, max_depth=3))
    deltas = np.diff(long_fit.train_loss)
    assert np.all(deltas <= 1e-12)
    print(f"criterion 4: leaf weights exact; max loss delta {deltas.max():.2e} over 200 rounds")


def test_c05_metric_arithmetic():
    """Accuracy/precision/recall match their defining ratios exactly on 50
    random integer fixtures; PR-AUC matches brute force for all n <= 32."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 200, size=4))
        if tp + fp + tn + fn == 0:
            tp = 1
        counts = lgsqe.ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        assert lgsqe.accuracy(counts) == (tp + tn) / (tp + fp + tn + fn)
        expected_precision = tp / (tp + fp) if tp + fp else None
        expected_recall = tp / (tp + fn) if tp + fn else None
        assert lgsqe.precision(counts) == expected_precision
        assert lgsqe.recall(counts) == expected_recall

    cases = 0
    for n in range(2, 33):
        for trial in range(4):
            case_rng = np.random.default_rng(1000 * n + trial)
            if trial % 2:
                scores = case_rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)
            else:
                scores = case_rng.uniform(0.01, 0.99, size=n)
            labels = case_rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert lgsqe.pr_auc(scores, labels) == pytest.approx(pr_auc_oracle(scores, labels), abs=1e-12)
            cases += 1
    print(f"criterion 5: 50 exact ratio fixtures; {cases} PR-AUC brute-force matches")


def test_c06_chance_level_calibration(image_pools):
    """Two disjoint halves of one real distribution (2000/side) must be
    indistinguishable: held-out accuracy in [0.45, 0.55], within 10 min."""
    pool_a, pool_b, source = image_pools
    started = time.perf_counter()
    pseudo = lgsqe.ImageSet(pool_b.pixels, "generated")
    config = RunConfig(patch_size=5, stride=2, top_k=200, gbdt=GbdtParams(n_rounds=100, max_depth=3))
    model, _ = fit_pipeline(pool_a, pseudo, config)
    split = holdout_split(model, pool_a, pseudo)
    report = model.evaluate(split.test_real, split.test_generated)
    elapsed = time.perf_counter() - started
    assert 0.45 <= report.accuracy <= 0.55, f"chance-level accuracy {report.accuracy} out of band"
    assert elapsed < 600.0
    print(f"criterion 6: accuracy {report.accuracy:.4f} on {source} halves in {elapsed:.0f}s")


def test_c07_degradation_rank_order(degradation_runs):
    """Heavier noise must be easier to detect: accuracy non-decreasing in
    sigma within 0.02, with the strongest degradation at >= 0.9."""
    accuracies = {}
    for sigma, (model, real, generated) in sorted(degradation_runs.items()):
        split = holdout_split(model, real, generated)
        accuracies[sigma] = model.evaluate(split.test_real, split.test_generated).accuracy
    ordered = [accuracies[s] for s in (0.05, 0.15, 0.30)]
    assert ordered[0] <= ordered[1] + 0.02
    assert ordered[1] <= ordered[2] + 0.02
    assert ordered[2] >= 0.9
    print(f"criterion 7: accuracies {['%.4f' % a for a in ordered]} for sigma 0.05/0.15/0.30")


def test_c08_filtering_improves_quality(image_pools):
    """Keeping the lowest-score prefix must lower both the mean kept score
    (exactly) and the re-evaluated accuracy (within 0.02 per step)."""
    pool_a, pool_b, _ = image_pools
    real = pool_a.subset(np.arange(1200))
    generated = mixed_quality_degrade(lgsqe.ImageSet(pool_b.pixels[:1200], "real"), 0.08, seed=80)
    config = RunConfig(patch_size=5, stride=2, top_k=150, gbdt=GbdtParams(n_rounds=60, max_depth=3))
    model, _ = fit_pipeline(real, generated, config)
    split = holdout_split(model, real, generated)
    gen_scores = model.score_images(split.test_generated)
    real_scores = model.score_images(split.test_real)
    ids = np.arange(split.test_generated.count)

    means, accuracies = [], []
    for keep_fraction in (1.0, 0.8, 0.6, 0.4, 0.2):
        kept = filter_samples(ids, gen_scores, keep_fraction)
        means.append(gen_scores[kept].mean())
        m = kept.size
        eval_scores = np.concatenate([gen_scores[kept], real_scores[:m]])
        eval_labels = np.concatenate([np.ones(m), np.zeros(m)])
        accuracies.append(accuracy(confusion(eval_scores, eval_labels, 0.5)))
    assert np.all(np.diff(means) <= 1e-12)
    for previous, current in zip(accuracies[:-1], accuracies[1:]):
        assert current <= previous + 0.02
    print(f"criterion 8: mean kept score {['%.3f' % m for m in means]}; accuracy {['%.3f' % a for a in accuracies]}")


def test_c09_weak_supervision_convergence(image_pools):
    """Accuracy over real-sample fractions {.05,.1,.2,.5,1} must vary by at
    most 0.05 from the 0.2 fraction onward (sigma=0.15 degradation)."""
    pool_a, pool_b, _ = image_pools
    real = pool_a.subset(np.arange(1200))
    generated = gaussian_degrade(lgsqe.ImageSet(pool_b.pixels[:1200], "real"), 0.15, seed=150)
    config = RunConfig(patch_size=5, stride=2, top_k=120, gbdt=GbdtParams(n_rounds=50, max_depth=3))
    accuracies = []
    for fraction in (0.05, 0.1, 0.2, 0.5, 1.0):
        model, _ = fit_pipeline(real, generated, replace(config, real_fraction=fraction))
        split = holdout_split(model, real, generated)
        accuracies.append(model.evaluate(split.test_real, split.test_generated).accuracy)
    tail = accuracies[2:]
    assert max(tail) - min(tail) <= 0.05
    print(f"criterion 9: sweep accuracies {['%.4f' % a for a in accuracies]}, tail range {max(tail)-min(tail):.4f}")


def test_c10_determinism_and_persistence(tmp_path):
    """Fixed-seed CLI runs produce byte-identical model files and reports
    across repeat invocations and across 1-thread vs 4-thread execution."""
    real_path = tmp_path / "real.lgt"
    gen_path = tmp_path / "gen.lgt"
    real = stroke_images(300, side=16, seed=50, noise=NOISE_FLOOR)
    lgsqe.save_raw_tensor(real, real_path)
    lgsqe.save_raw_tensor(gaussian_degrade(stroke_images(300, side=16, seed=51, noise=NOISE_FLOOR), 0.2, seed=52), gen_path)

    def run(tag: str, threads: str) -> tuple[bytes, bytes]:
        env = {
            **os.environ,
            "OMP_NUM_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        model_path = tmp_path / f"model_{tag}.json"
        report_path = tmp_path / f"report_{tag}.json"
        base = [sys.executable, "-m", "lgsqe.cli"]
        fit = base + [
            "fit", str(real_path), str(gen_path), "-o", str(model_path),
            "--patch-size", "3", "--stride", "2", "--top-k", "25",
            "--rounds", "25", "--max-depth", "2", "--min-samples-leaf", "2",
        ]
        subprocess.run(fit, env=env, check=True, capture_output=True)
        evaluate = base + ["eval", str(model_path), str(real_path), str(gen_path), "-o", str(report_path)]
        subprocess.run(evaluate, env=env, check=True, capture_output=True)
        return model_path.read_bytes(), report_path.read_bytes()

    single_a = run("t1a", "1")
    single_b = run("t1b", "1")
    multi = run("t4", "4")
    assert single_a == single_b, "repeat invocation changed an artifact"
    assert single_a == multi, "thread count changed an artifact"
    print("criterion 10: model and report bytes identical across reruns and thread counts")


def test_c11_footprint(image_pools, tmp_path):
    """Default-parameter fit plus eval at MNIST scale stays under 5 minutes
    and the serialized model stays under 10 MB."""
    pool_a, pool_b, source = image_pools
    generated = gaussian_degrade(pool_b, 0.15, seed=151)
    started = time.perf_counter()
    model, _ = fit_pipeline(pool_a, generated, RunConfig())
    split = holdout_split(model, pool_a, generated)
    report = model.evaluate(split.test_real, split.test_generated)
    elapsed = time.perf_counter() - started
    model_path = tmp_path / "default_model.json"
    model.save(model_path)
    size_mb = model_path.stat().st_size / 1e6
    assert elapsed < 300.0
    assert size_mb < 10.0
    assert report.accuracy > 0.5  # sanity: the degradation is detectable
    assert model.training["selected_count"] == 400  # default top-k at this geometry
    assert 300 <= model.training["representation_width"] <= 30_000
    print(f"criterion 11: fit+eval {elapsed:.0f}s, model {size_mb:.2f} MB, accuracy {report.accuracy:.4f} ({source})")
