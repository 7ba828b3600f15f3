"""Seeded inputs of the benchmark workloads, written as LGT files.

Every workload has a fixed training pair, which does not depend on the
workload seed, and a seeded bulk: fresh real images plus mixed-quality
generated images that ``eval``, ``score`` and ``filter`` run over. The
program under test only ever sees the LGT files written here.

Images are structured, built from ``lgsqe.synthetic`` strokes, so the patch
PCA keeps a realistic number of kernels (K1) instead of the near-full rank
that i.i.d. noise would give. Bulk images are drawn from a cached pool of
clean strokes: a seeded dihedral transform, seeded colours (for 3 channels)
and a fresh noise floor make every bulk image distinct, so a program that
caches repeated inputs gains nothing.

Run as a script to write one workload's files:

    PYTHONPATH=src python3 perfbench/workloads.py --workload mnist-default --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lgsqe.datasets import GENERATED, REAL, ImageSet, load_raw_tensor, save_raw_tensor
from lgsqe.synthetic import gaussian_degrade, mixed_quality_degrade, stroke_images

NOISE_FLOOR = 0.04  # sensor-noise floor of the acceptance suite's stroke images
TRAIN_SIGMA = 0.15  # degradation of the generated training source (as in c11)
BULK_MAX_SIGMA = 0.08  # per-image sigma of the bulk generated set is U(0, 0.08)


@dataclass(frozen=True)
class Workload:
    """Sizes and fit flags of one workload; counts are per source (real, generated)."""

    name: str
    side: int
    channels: int
    fit_flags: tuple[str, ...]
    train_count: int
    bulk_count: int
    pool_count: int
    why: str

    def scaled(self, train_count: int, bulk_count: int, pool_count: int, rounds: int) -> "Workload":
        """A smaller copy for smoke tests; only the sizes and boosting rounds change."""
        flags = list(self.fit_flags)
        flags[flags.index("--rounds") + 1] = str(rounds)
        return replace(
            self, train_count=train_count, bulk_count=bulk_count, pool_count=pool_count, fit_flags=tuple(flags)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mnist-default",
            side=28,
            channels=1,
            fit_flags=("--rounds", "30"),
            train_count=2000,
            bulk_count=5000,
            pool_count=2000,
            why=(
                "training-heavy: c11's exact 2000+2000 28x28 training pair and deep trees, so exact-greedy "
                "GBDT split search dominates fit_s; the small model leaves setup_s to interpreter start and imports"
            ),
        ),
        Workload(
            name="cifar-geometry",
            side=32,
            channels=3,
            fit_flags=("--patch-size", "3", "--stride", "1", "--top-k", "800", "--rounds", "30"),
            train_count=400,
            bulk_count=600,
            pool_count=1000,
            why=(
                "representation-heavy: 900 patches x 27 dims per image and ~11.4k columns (800 used), so saab "
                "sets score, eval, filter and peak RSS; the 42 MB model load sets setup_s"
            ),
        ),
    )
}


def _rng(workload: Workload, seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(f"{workload.name}:{purpose}".encode())])


def _dihedral(images: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Apply one of the 8 square symmetries per image; codes are in [0, 8)."""
    out = np.empty_like(images)
    for code in range(8):
        pick = codes == code
        block = images[pick]
        if code & 4:
            block = np.swapaxes(block, 1, 2)
        out[pick] = np.rot90(block, k=code & 3, axes=(1, 2))
    return out


def _compose(pool: np.ndarray, count: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` noisy images from clean (n, side, side) strokes in ``pool``.

    One channel: a transformed stroke plus the noise floor, distributed as
    ``stroke_images(noise=NOISE_FLOOR)``. Three channels: a dim background
    colour plus two transformed strokes, each inked in its own colour, so the
    channels are correlated as in natural colour images.
    """
    strokes = min(channels, 2)
    picks = rng.integers(0, pool.shape[0], size=(strokes, count))
    codes = rng.integers(0, 8, size=(strokes, count))
    layers = [_dihedral(pool[picks[s]], codes[s])[..., None] for s in range(strokes)]
    if channels == 1:
        canvas = layers[0].astype(np.float64)
    else:
        canvas = rng.uniform(0.0, 0.25, size=(count, 1, 1, channels))
        for layer in layers:
            canvas = canvas + layer * rng.uniform(0.3, 0.75, size=(count, 1, 1, channels))
    canvas = canvas + rng.normal(0.0, NOISE_FLOOR, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0).astype(np.float32)


def _write_atomic(images: ImageSet, path: Path) -> None:
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    save_raw_tensor(images, tmp)
    os.replace(tmp, path)


def _cached(paths: tuple[Path, ...], make) -> tuple[ImageSet, ...]:
    """Load LGT files, or build them once with ``make()`` and write them."""
    if all(path.exists() for path in paths):
        return tuple(load_raw_tensor(path) for path in paths)
    sets = make()
    for images, path in zip(sets, paths):
        _write_atomic(images, path)
    return sets


def _clean_pool(workload: Workload, cache: Path, purpose: str, seed: int) -> np.ndarray:
    """Clean (noise-free) strokes, the slow part of generation, built once."""
    (pool,) = _cached((cache / f"pool-{purpose}.lgt",), lambda: (stroke_images(workload.pool_count, workload.side, seed),))
    return pool.pixels[..., 0]


def training_pair(workload: Workload, cache: Path) -> tuple[Path, Path]:
    """The fixed (real, generated) training files; built once per cache."""
    cache.mkdir(parents=True, exist_ok=True)
    paths = cache / "train_real.lgt", cache / "train_generated.lgt"
    n, side = workload.train_count, workload.side

    def make():
        if workload.channels == 1:
            # Bit-identical to acceptance test c11's pools: stroke seeds 1000
            # and 2000, noise floor 0.04, the second degraded with seed 151.
            real = stroke_images(n, side=side, seed=1000, noise=NOISE_FLOOR)
            base = stroke_images(n, side=side, seed=2000, noise=NOISE_FLOOR)
        else:
            pool = _clean_pool(workload, cache, "train", seed=1000)
            rng = _rng(workload, 0, "train")
            real = ImageSet(_compose(pool, n, workload.channels, rng), REAL)
            base = ImageSet(_compose(pool, n, workload.channels, rng), REAL)
        return real, gaussian_degrade(base, TRAIN_SIGMA, seed=151)

    _cached(paths, make)
    return paths


def write_bulk(workload: Workload, seed: int, cache: Path, out_dir: Path) -> tuple[Path, Path, Path]:
    """Seeded bulk files: fresh real, mixed-quality generated, and a one-image file."""
    pool = _clean_pool(workload, cache, "bulk", seed=3000)
    rng = _rng(workload, seed, "bulk")
    n = workload.bulk_count
    pixels = _compose(pool, 2 * n, workload.channels, rng)
    real = ImageSet(pixels[:n], REAL)
    generated = mixed_quality_degrade(ImageSet(pixels[n:], REAL), BULK_MAX_SIGMA, seed=int(rng.integers(2**63)))
    rows = np.concatenate([real.pixels, generated.pixels]).reshape(2 * n, -1)
    if np.unique(rows.view(np.dtype((np.void, rows.shape[1] * 4))), axis=0).shape[0] != 2 * n:
        raise RuntimeError(f"{workload.name} seed {seed}: bulk images are not pairwise distinct")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = out_dir / "bulk_real.lgt", out_dir / "bulk_generated.lgt", out_dir / "one.lgt"
    save_raw_tensor(real, paths[0])
    save_raw_tensor(generated, paths[1])
    save_raw_tensor(ImageSet(generated.pixels[:1], GENERATED), paths[2])
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cache = args.out / "cache"
    for path in (*training_pair(workload, cache), *write_bulk(workload, args.seed, cache, args.out)):
        print(path)


if __name__ == "__main__":
    main()
