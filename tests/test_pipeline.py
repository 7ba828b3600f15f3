import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lgsqe
from lgsqe import dft, saab
from lgsqe.errors import GeometryError, VersionError
from lgsqe.gbdt import GbdtParams
from lgsqe.pipeline import (
    RunConfig,
    derive_seed,
    fit_pipeline,
    holdout_split,
    imageset_fingerprint,
    matches_training_data,
    parse_config_file,
)

from conftest import random_image_set, traced_peak, unchunked_representation


def spy_on_extraction(monkeypatch) -> list[int]:
    """The image count of every ``saab.extract_patches`` call from here on."""
    counts, extract = [], saab.extract_patches

    def spy(images, *args, **kwargs):
        counts.append(images.count)
        return extract(images, *args, **kwargs)

    monkeypatch.setattr(saab, "extract_patches", spy)
    return counts


class TestSeeds:
    def test_stage_seeds_differ_and_are_stable(self):
        assert derive_seed(0, "split") == derive_seed(0, "split")
        assert derive_seed(0, "split") != derive_seed(0, "gbdt")
        assert derive_seed(0, "split") != derive_seed(1, "split")

    def test_fingerprint_tracks_content(self):
        a = random_image_set(4, seed=1)
        b = random_image_set(4, seed=2)
        assert imageset_fingerprint(a) == imageset_fingerprint(lgsqe.ImageSet(a.pixels, "real"))
        assert imageset_fingerprint(a) != imageset_fingerprint(b)

    def test_fingerprint_hashes_the_pixels_in_place(self):
        # The digest of shape, provenance and pixel bytes, taken without a bytes copy of the pixels.
        images = random_image_set(64, side=32, channels=3, seed=3)
        expected = hashlib.sha256(repr(images.pixels.shape).encode() + b"real" + images.pixels.astype("<f4").tobytes())
        digest, peak = traced_peak(lambda: imageset_fingerprint(images))
        assert digest == expected.hexdigest()
        assert peak < images.pixels.nbytes, peak


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(patch_size=3, stride=1, top_k=12, k1=7, gbdt=GbdtParams(n_rounds=3))
        clone = RunConfig.from_dict(config.to_dict())
        assert clone == config

    def test_config_file_round_trip(self, tmp_path):
        config = RunConfig(patch_size=3, stride=1, top_k=12, cw_k=4, select_mode="elbow")
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k}={'none' if v is None else v}\n" for k, v in config.to_dict().items()))
        assert RunConfig.from_dict({**RunConfig().to_dict(), **parse_config_file(path)}) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key=3\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_comments_and_none(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\npatch_size=3  # inline\nk1=none\n")
        parsed = parse_config_file(path)
        assert parsed == {"patch_size": 3, "k1": None}

    @pytest.mark.parametrize("line", ["patch_size=none", "top_k=1.5", "seed=x"])
    def test_bad_value_names_the_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# header\n{line}\n")
        with pytest.raises(ValueError, match=f"bad.cfg:2: {line.split('=')[0]} expects int"):
            parse_config_file(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(select_mode="best").validate()
        with pytest.raises(ValueError):
            RunConfig(test_fraction=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(energy_threshold=0.0).validate()
        with pytest.raises(ValueError, match="histogram_bins must be >= 2"):
            RunConfig(histogram_bins=1).validate()
        # Channel and feature counts are refused before any image is read.
        for bad in ({"k1": 0}, {"cw_k": 0}, {"cw_k": -2}):
            with pytest.raises(ValueError, match="k1 and cw_k must be >= 1 or unset"):
                RunConfig(**bad).validate()
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            RunConfig(top_k=0).validate()
        # An elbow-mode model ignores top_k, so its value still loads.
        RunConfig(top_k=0, select_mode="elbow", k1=1, cw_k=1).validate()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"bogus": 1}, "unknown config key 'bogus'"),
            ({"top_k": True}, "config.top_k must be int, got True"),
            ({"threshold": "0.5"}, "config.threshold must be float, got '0.5'"),
            ({"test_fraction": 1.5}, r"test_fraction must lie in \(0, 1\)"),
        ],
        ids=["unknown-key", "bool-top-k", "string-threshold", "test-fraction-above-1"],
    )
    def test_from_dict_checks_and_validates(self, doc, message):
        # The one reader of a flat config dict, for model files and the command line alike.
        with pytest.raises(ValueError, match=message):
            RunConfig.from_dict(doc)


class TestPipelineModel:
    def test_save_load_save_byte_identical(self, small_pipeline, tmp_path):
        model, _, _ = small_pipeline
        first = tmp_path / "model.json"
        second = tmp_path / "model2.json"
        model.save(first)
        lgsqe.PipelineModel.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_golden_file_resaves_to_its_bytes(self):
        """A committed format-8.0.0 file loads and serializes to its own bytes,
        which pins every record's codec. It stores two spatial columns and one
        spectral column, and was written by ``fit_pipeline`` on
        ``random_image_set(24, side=16, channels=3, seed=7)`` against
        ``gaussian_degrade(random_image_set(24, side=16, channels=3, seed=8), 0.3, seed=9)``
        with ``RunConfig(patch_size=3, stride=1, k1=4, cw_k=3, top_k=40, seed=1,
        gbdt=GbdtParams(n_rounds=5, max_depth=2))``."""
        path = Path(__file__).parent / "golden" / "model-16x16x3.json"
        assert lgsqe.PipelineModel.load(path).to_json().encode() == path.read_bytes()

    def test_refit_byte_identical(self, small_pipeline):
        model, real, generated = small_pipeline
        refit, _ = fit_pipeline(real, generated, model.config)
        assert refit.to_json() == model.to_json()

    def test_version_gating(self, small_pipeline, tmp_path):
        model, _, _ = small_pipeline
        doc = model.to_dict()
        doc["format_version"] = "9.0.0"
        with pytest.raises(VersionError):
            lgsqe.PipelineModel.from_dict(doc)

    def test_consistency_check_on_load(self, small_pipeline):
        model, _, _ = small_pipeline
        doc = json.loads(model.to_json())
        doc["selection"]["indices"][0] = 10**6
        with pytest.raises(GeometryError):
            lgsqe.PipelineModel.from_dict(doc)

    def test_indices_and_ensemble_disagree(self, small_pipeline):
        model, _, _ = small_pipeline
        doc = json.loads(model.to_json())
        doc["selection"]["indices"].pop()
        with pytest.raises(GeometryError, match="ensemble expects"):
            lgsqe.PipelineModel.from_dict(doc)

    def test_spectral_column_of_a_dropped_sub_model(self, small_pipeline):
        # A spectral column without a stored kernel row: the model stores no whole c/w kernel matrix to take one from.
        model, _, _ = small_pipeline
        doc = json.loads(model.to_json())
        spectral, spatial = model.saab.spatial_width + 1, model.indices < model.saab.spatial_width
        assert spectral not in model.indices
        doc["selection"]["indices"][int(np.flatnonzero(spatial)[0])] = spectral  # one more spectral index than kernel rows
        with pytest.raises(GeometryError, match="spectral kernels"):
            lgsqe.PipelineModel.from_dict(doc)

    def test_only_selected_kernel_rows_kept(self, small_pipeline, tmp_path):
        model, real, generated = small_pipeline
        indices = model.indices
        spectral = indices[indices >= model.saab.spatial_width] - model.saab.spatial_width
        assert spectral.size
        model.save(tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        assert "cw_models" not in doc["saab"] and "provenance" not in doc["selection"]
        assert doc["format_version"] == "8.0.0" and doc["saab"]["cw_widths"] == list(model.saab.cw_widths)
        loaded = lgsqe.PipelineModel.load(tmp_path / "model.json")
        assert loaded.indices.tobytes() == indices.tobytes() and loaded.saab.cw_widths == model.saab.cw_widths
        assert loaded.spectral_kernels.tobytes() == model.spectral_kernels.tobytes()
        # The columns are the selected ones of the full representation, and so are the scores.
        split = holdout_split(model, real, generated)
        pixels, _ = split.train_union()
        config = model.config
        hop, _, cw = lgsqe.fit_representation(
            lgsqe.ImageSet(pixels), config.patch_size, config.stride, energy_threshold=config.energy_threshold
        )
        assert hop.cw_widths == model.saab.cw_widths and model.training["representation_width"] == hop.width
        assert model.spectral_kernels.shape == (spectral.size, model.saab.pooled_side**2)
        assert model.spectral_kernels.tobytes() == np.concatenate(cw)[spectral].tobytes()
        # The stored rows reproduce the full training representation's columns bit for bit.
        train = unchunked_representation(hop, cw, lgsqe.ImageSet(pixels))
        rebuilt = lgsqe.build_representation(lgsqe.ImageSet(pixels), loaded.saab, indices, loaded.spectral_kernels)
        assert rebuilt.tobytes() == train[:, indices].tobytes()
        features = unchunked_representation(hop, cw, split.test_real)
        np.testing.assert_array_equal(
            loaded.score_images(split.test_real),
            model.ensemble.predict_score(features[:, model.indices]),
        )

    @pytest.mark.filterwarnings("ignore:only .* patches for dimension")
    @pytest.mark.parametrize("side,channels", [(16, 1), (32, 3)], ids=["16x16x1", "32x32x3"])
    def test_one_image_alone_equals_its_batch(self, side, channels):
        real = random_image_set(60, side=side, channels=channels, seed=side)
        generated = lgsqe.gaussian_degrade(random_image_set(60, side=side, channels=channels, seed=side + 1), 0.1, seed=3)
        config = RunConfig(patch_size=3, stride=1, top_k=300, gbdt=GbdtParams(n_rounds=5, max_depth=3))
        model, _ = fit_pipeline(real, generated, config)
        indices = model.indices
        assert np.any(indices >= model.saab.spatial_width)  # a spectral column is stored
        feature = model.ensemble.feature
        np.testing.assert_array_equal(np.unique(feature[feature >= 0]), np.arange(model.ensemble.n_features))
        batch = random_image_set(600, side=side, channels=channels, seed=side + 2)
        features = lgsqe.build_representation(batch, model.saab, indices, model.spectral_kernels)
        scores = model.score_images(batch)
        # The unpruned forest: the same trees, splitting on the full representation from whole-set calls.
        pixels, _ = holdout_split(model, real, generated).train_union()
        hop, _, cw = lgsqe.fit_representation(lgsqe.ImageSet(pixels), config.patch_size, config.stride)
        full = unchunked_representation(hop, cw, batch)
        assert features.tobytes() == full[:, indices].tobytes()
        unpruned = replace(
            model.ensemble,
            feature=np.where(feature >= 0, indices[feature], -1),
            n_features=full.shape[1],
        )
        assert unpruned.predict_score(full).tobytes() == scores.tobytes()
        for i in range(batch.count):
            alone = batch.subset(np.array([i]))
            row = lgsqe.build_representation(alone, model.saab, indices, model.spectral_kernels)
            assert row.tobytes() == features[i].tobytes()
            assert model.score_images(alone).tobytes() == scores[i].tobytes()

    def test_zero_split_forest(self, tmp_path, monkeypatch):
        # 32 + 32 training rows cannot make two leaves of 60: every tree is one leaf.
        real = random_image_set(40, side=16, seed=5)
        generated = random_image_set(40, side=16, seed=6, provenance="generated")
        config = RunConfig(patch_size=3, top_k=20, gbdt=GbdtParams(n_rounds=3, min_samples_leaf=60))
        model, _ = fit_pipeline(real, generated, config)
        assert model.ensemble.n_features == 0 and model.indices.size == 0
        assert model.spectral_kernels.shape == (0, model.saab.pooled_side**2)
        assert model.training["selected_count"] == 20
        model.save(tmp_path / "a.json")
        lgsqe.PipelineModel.load(tmp_path / "a.json").save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        expected = np.clip(1.0 / (1.0 + np.exp(-model.ensemble.base_score)), 1e-15, 1.0 - 1e-15)
        extracted = spy_on_extraction(monkeypatch)
        np.testing.assert_array_equal(model.score_images(real), np.full(real.count, expected))
        assert extracted == []  # no stored column, so no patch is extracted

    def test_holdout_split_reproducible(self, small_pipeline):
        model, real, generated = small_pipeline
        a = holdout_split(model, real, generated)
        b = holdout_split(model, real, generated)
        np.testing.assert_array_equal(a.test_real_idx, b.test_real_idx)
        assert not set(a.test_real_idx) & set(a.train_real_idx)

    def test_matches_training_data(self, small_pipeline):
        model, real, generated = small_pipeline
        assert matches_training_data(model, real, generated)
        other = random_image_set(8, side=16, seed=99)
        assert not matches_training_data(model, other, generated)

    def test_scores_in_unit_interval(self, small_pipeline):
        model, real, _ = small_pipeline
        scores = model.score_images(real)
        assert scores.shape == (real.count,)
        assert np.all(scores > 0) and np.all(scores < 1)

    def test_training_record_fields(self, small_pipeline):
        model, _, _ = small_pipeline
        training = model.training
        assert type(training["representation_width"]) is int
        assert training["selected_count"] == model.config.top_k >= model.indices.size
        assert 0.0 <= training["train_accuracy"] <= 1.0

    def test_geometry_mismatch_rejected(self, small_pipeline, monkeypatch):
        model, real, generated = small_pipeline
        wrong = random_image_set(10, side=12, seed=3)
        with pytest.raises(GeometryError):
            fit_pipeline(real, wrong, model.config)
        extracted = spy_on_extraction(monkeypatch)
        for images in (wrong, random_image_set(10, side=16, channels=3, seed=3)):
            with pytest.raises(GeometryError, match="model fitted for 16x16x1 images"):
                model.score_images(images)
        assert extracted == []  # refused before any patch is extracted
        model.score_images(generated)
        assert extracted == [generated.count]

    def test_channels_validated(self, small_pipeline):
        _, real, generated = small_pipeline
        config = RunConfig(patch_size=3, channels=3, top_k=5, gbdt=GbdtParams(n_rounds=2))
        with pytest.raises(GeometryError):
            fit_pipeline(real, generated, config)

    @pytest.mark.parametrize(
        "counts, message",
        [({"k1": 1000}, "k1 1000 exceeds 25, the size of a 5x5x1 patch"),
         ({"cw_k": 1000}, "cw_k 1000 exceeds 1, the size of a 1x1 pooled map")],
        ids=["k1", "cw_k"],
    )
    def test_channel_count_above_its_bound_refused_first(self, monkeypatch, counts, message):
        # Constant images have zero variance, where the energy rule keeps only the DC channel.
        real = lgsqe.ImageSet(np.full((20, 8, 8, 1), 0.5, dtype=np.float32))
        generated = lgsqe.ImageSet(np.full((20, 8, 8, 1), 0.25, dtype=np.float32), "generated")
        extracted = spy_on_extraction(monkeypatch)
        with pytest.raises(GeometryError, match=re.escape(message)):
            fit_pipeline(real, generated, RunConfig(**counts))
        assert extracted == []


# The CPU flag each OpenBLAS kernel needs; forcing a kernel whose instructions the CPU lacks crashes the process.
CORETYPE_FLAGS = {"SandyBridge": "avx", "Haswell": "avx2", "Zen": "avx2", "SkylakeX": "avx512f"}

only_x86_linux = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
    reason="OpenBLAS kernels are forced by their x86-64 names and chosen from /proc/cpuinfo",
)


def blas_kernels() -> list[str | None]:
    """OpenBLAS's own kernel choice (``None``), then each kernel the CPU can run."""
    with open("/proc/cpuinfo") as fh:
        flags = set(next(line for line in fh if line.startswith("flags")).split(":", 1)[1].split())
    return [None] + [name for name, flag in CORETYPE_FLAGS.items() if flag in flags]


def run_blas_script(script, args, threads, kernel) -> list[str]:
    """The whitespace-split output of ``script`` run on ``args`` in a new
    interpreter with ``threads`` BLAS threads under OpenBLAS kernel ``kernel``."""
    env = {**os.environ, **{f"{lib}_NUM_THREADS": threads for lib in ("OPENBLAS", "OMP", "MKL")}}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(lgsqe.__path__[0]), env.get("PYTHONPATH", "")])
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    run = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return run.stdout.split()


SCORE_SCRIPT = """
import hashlib, sys
import numpy as np
import lgsqe

model = lgsqe.PipelineModel.load(sys.argv[1])
batch = lgsqe.load_images(sys.argv[2])
columns = (model.saab, model.indices, model.spectral_kernels)
features, scores = lgsqe.build_representation(batch, *columns), model.score_images(batch)
first = batch.subset(np.array([0]))
print(lgsqe.build_representation(first, *columns).tobytes() == features[:1].tobytes())
print(model.score_images(first).tobytes() == scores[:1].tobytes())
print(hashlib.sha256(features.tobytes() + scores.tobytes()).hexdigest())
"""


@only_x86_linux
@pytest.mark.filterwarnings("ignore:only .* patches for dimension")
def test_scores_do_not_depend_on_blas_threads_or_kernel(tmp_path):
    """Scoring makes no BLAS call: with 1 and 2 OpenBLAS threads, under
    OpenBLAS's own kernel and under each kernel the CPU can run, a 32x32x3
    patch-3 model gives 600 images the same representation and score bytes,
    and image 0 scored alone gives the bytes of row 0 of the batch."""
    real = random_image_set(60, side=32, channels=3, seed=32)
    generated = lgsqe.gaussian_degrade(random_image_set(60, side=32, channels=3, seed=33), 0.1, seed=3)
    config = RunConfig(patch_size=3, stride=1, top_k=300, gbdt=GbdtParams(n_rounds=5, max_depth=3))
    model, _ = fit_pipeline(real, generated, config)
    assert np.any(model.indices >= model.saab.spatial_width)  # a spectral column is stored
    model.save(tmp_path / "model.json")
    lgsqe.save_raw_tensor(random_image_set(600, side=32, channels=3, seed=34), tmp_path / "batch.lgt")
    paths = (tmp_path / "model.json", tmp_path / "batch.lgt")
    runs = {
        (threads, kernel): run_blas_script(SCORE_SCRIPT, paths, threads, kernel)
        for threads in ("1", "2")
        for kernel in blas_kernels()
    }
    digest = runs["1", None][2]
    assert all(out == ["True", "True", digest] for out in runs.values()), runs


FIT_SCRIPT = """
import hashlib, sys
import lgsqe

for real, generated in zip(sys.argv[1::2], sys.argv[2::2]):
    config = lgsqe.RunConfig(patch_size=3, stride=1, top_k=200, gbdt=lgsqe.GbdtParams(n_rounds=3, max_depth=3))
    model, _ = lgsqe.fit_pipeline(lgsqe.load_images(real), lgsqe.load_images(generated), config)
    print(hashlib.sha256(model.to_json().encode()).hexdigest())
"""


@only_x86_linux
def test_fits_do_not_depend_on_blas_threads(tmp_path):
    """The fit runs its BLAS and LAPACK calls on one OpenBLAS thread: at 1 and
    2 threads under OpenBLAS's own kernel and under each kernel the CPU can
    run, and at 4 under its own, 28x28 and 32x32x3 patch-3 pairs give one
    model file per kernel. Their c/w ``eigh`` (169 and 225 values per map)
    differs between 1 and 2 threads when OpenBLAS runs it threaded."""
    paths = []
    for side, channels in ((28, 1), (32, 3)):
        real = random_image_set(40, side=side, channels=channels, seed=side)
        degraded = random_image_set(40, side=side, channels=channels, seed=side + 1)
        generated = lgsqe.gaussian_degrade(degraded, 0.1, seed=3)
        for name, images in (("real", real), ("generated", generated)):
            paths.append(tmp_path / f"{name}{side}.lgt")
            lgsqe.save_raw_tensor(images, paths[-1])
    runs = {
        (kernel, threads): run_blas_script(FIT_SCRIPT, paths, threads, kernel)
        for kernel in blas_kernels()
        for threads in (("1", "2", "4") if kernel is None else ("1", "2"))  # 4 threads once, to bound the wall time
    }
    differ = [(kernel, threads) for (kernel, threads), out in runs.items() if out != runs[kernel, "1"]]
    assert all(len(out) == 2 for out in runs.values()) and not differ, differ


class TestBoundedMemory:
    @pytest.mark.filterwarnings("ignore:only .* patches for dimension")
    def test_fit_keeps_no_full_representation(self, monkeypatch):
        """Quadrupling the image count grows the fit's peak only by what it keeps
        per training image: the pooled responses and copies of the pixels (the
        split's and the training union's). The full representation, about
        twice as wide as the pooled responses here, is never built."""
        monkeypatch.setattr(saab, "CHUNK_ROWS", 4 * 14 * 14 + 14)  # four 16x16 images per chunk
        monkeypatch.setattr(dft, "BLOCK_VALUES", 2**12)  # the ranking's temporaries keep one size
        config = RunConfig(patch_size=3, stride=1, top_k=20, gbdt=GbdtParams(n_rounds=3, max_depth=2))

        def fit(count):
            real = random_image_set(count, side=16, channels=3, seed=count)
            generated = random_image_set(count, side=16, channels=3, seed=count + 1, provenance="generated")
            (model, _), peak = traced_peak(lambda: fit_pipeline(real, generated, config))
            pooled = model.saab.pooled_side**2 * model.saab.num_channels * 8
            assert model.training["representation_width"] * 8 > 1.8 * pooled  # the spectral columns
            return peak, 2 * model.training["train_counts"]["real"] * (pooled + 3 * real.pixels[0].nbytes)

        small_peak, small_kept = fit(60)
        large_peak, large_kept = fit(240)
        assert large_peak - small_peak <= 1.1 * (large_kept - small_kept)


class TestConfigShapes:
    def test_grayscale_defaults(self):
        config = RunConfig()
        assert (config.patch_size, config.stride, config.top_k) == (5, 2, 400)
        assert config.threshold == 0.5
        assert config.energy_threshold == 0.99
        assert config.num_bins == 32
        assert config.gbdt == GbdtParams()

    def test_color_config_path(self):
        # 32x32x3 sources with the color-image settings (F=3, S=1, k=800)
        real = random_image_set(60, side=32, channels=3, seed=41)
        generated = random_image_set(60, side=32, channels=3, seed=42, provenance="generated")
        config = RunConfig(
            patch_size=3, stride=1, top_k=800,
            gbdt=GbdtParams(n_rounds=2, max_depth=2, min_samples_leaf=2),
        )
        model, _ = fit_pipeline(real, generated, config)
        width = model.training["representation_width"]
        assert model.training["selected_count"] == 800
        assert 350 <= width <= 35_000  # order-of-magnitude band for this geometry
        patches_grid = (32 - 3) // 1 + 1
        assert patches_grid == 30
        pooled = patches_grid // 2
        assert width >= pooled * pooled * model.saab.num_channels


class TestEvaluateEndToEnd:
    def test_degraded_set_detected(self, small_pipeline):
        model, real, generated = small_pipeline
        split = holdout_split(model, real, generated)
        report = model.evaluate(split.test_real, split.test_generated)
        assert report.accuracy > 0.7
        gen_scores = model.score_images(split.test_generated)
        real_scores = model.score_images(split.test_real)
        assert gen_scores.mean() > real_scores.mean()

    def test_metadata_recorded(self, small_pipeline):
        model, real, generated = small_pipeline
        split = holdout_split(model, real, generated)
        report = model.evaluate(split.test_real, split.test_generated, metadata={"note": "x"})
        assert report.metadata["note"] == "x"
        assert report.metadata["config"]["patch_size"] == model.config.patch_size
        assert report.metadata["entropy_base"] == "e"

    def test_settings_come_from_the_config(self, small_pipeline):
        # Another threshold and bin count: a model with a replaced config, whose report records them.
        model, real, generated = small_pipeline
        split = holdout_split(model, real, generated)
        config = replace(model.config, threshold=0.3, histogram_bins=7)
        report = replace(model, config=config).evaluate(split.test_real, split.test_generated)
        scores = np.concatenate([model.score_images(split.test_real), model.score_images(split.test_generated)])
        labels = np.repeat([0, 1], [split.test_real.count, split.test_generated.count])
        expected = lgsqe.aggregate_report(scores, labels, 0.3, 7, metadata={"entropy_base": "e"}).to_dict()
        doc = report.to_dict()
        assert doc["metadata"].pop("config") == config.to_dict()
        assert doc == expected and len(doc["histogram"]["real"]) == 7 and doc["threshold"] == 0.3
