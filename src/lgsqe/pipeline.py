"""End-to-end pipeline: configuration, fitting, scoring, persistence.

A fitted pipeline bundles the first hop, the indices of the representation
columns the boosted classifier splits on, and the classifier into one
self-describing JSON document with a semantic format version.
Serialization is canonical (sorted keys, repr-exact floats), so save -> load
-> save is byte-identical and fixed-seed refits produce byte-identical files.

One master seed is expanded into per-stage seeds by hashing the stage name
(SHA-256 of ``"<seed>:<stage>"``), so adding a stage never perturbs the
randomness of earlier ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import Field, asdict, dataclass, field, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .datasets import REAL, ImageSet, LabeledSplit, make_labeled_split
from .dft import rank_features, select_features
from .errors import FormatError, GeometryError, VersionError, integer_array
from .evaluate import EvaluationReport, accuracy, aggregate_report, confusion
from .gbdt import BoostedEnsemble, GbdtParams, fit_ensemble
from .saab import (
    SaabModel,
    build_representation,
    fit_representation,
    kernel_rows,
    representation_blocks,
    select_columns,
    split_columns,
)

MODEL_VERSION = "7.0.0"


def derive_seed(master: int, stage: str) -> int:
    """Stable per-stage seed from the master seed and the stage name."""
    digest = hashlib.sha256(f"{master}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def imageset_fingerprint(images: ImageSet) -> str:
    """SHA-256 over shape, provenance and raw pixel bytes."""
    h = hashlib.sha256()
    h.update(repr(images.pixels.shape).encode())
    h.update(images.provenance.encode())
    h.update(np.ascontiguousarray(images.pixels, dtype="<f4"))
    return h.hexdigest()


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the pipeline; defaults match the 28x28 grayscale setup.

    The fields are the config schema: the flat config keys (``gbdt`` expands
    to ``gbdt_<name>``), their types, and the CLI flags all derive from them.
    Field metadata holds the flag's help text and, where the flag is not
    ``--<name-with-dashes>``, the flag itself.
    """

    patch_size: int = field(default=5, metadata={"help": "patch side length F"})
    stride: int = field(default=2, metadata={"help": "patch stride S"})
    channels: int | None = field(
        default=None, metadata={"help": "expected channel count C (validated against the data)"}
    )
    energy_threshold: float = field(default=0.99, metadata={"help": "cumulative-energy fraction for kept kernels"})
    k1: int | None = field(
        default=None, metadata={"help": "explicit first-hop channel count (overrides the energy rule)"}
    )
    cw_k: int | None = field(default=None, metadata={"help": "explicit per-channel spectral component count"})
    num_bins: int = field(default=32, metadata={"help": "number of uniform bins for the feature test"})
    select_mode: str = field(
        default="top_k",
        metadata={
            "help": "select features at the loss-curve elbow instead of top-k",
            "flag": "--elbow",
            "const": "elbow",
        },
    )
    top_k: int = field(default=400, metadata={"help": "how many discriminant features to keep"})
    threshold: float = field(default=0.5, metadata={"help": "decision threshold t on the soft score"})
    histogram_bins: int = field(default=50, metadata={"help": "score histogram bin count"})
    test_fraction: float = field(default=0.2, metadata={"help": "held-out fraction per source"})
    real_fraction: float = field(default=1.0, metadata={"help": "fraction of real training samples used"})
    seed: int = field(default=0, metadata={"help": "master seed"})
    gbdt: GbdtParams = field(default_factory=GbdtParams)

    def validate(self):
        if self.patch_size < 1 or self.stride < 1:
            raise ValueError("patch_size and stride must be >= 1")
        if self.channels not in (None, 1, 3):
            raise ValueError("channels must be 1, 3 or unset")
        if not 0.0 < self.energy_threshold <= 1.0:
            raise ValueError("energy_threshold must lie in (0, 1]")
        if (self.k1 is not None and self.k1 < 1) or (self.cw_k is not None and self.cw_k < 1):
            raise ValueError("k1 and cw_k must be >= 1 or unset")
        if self.select_mode not in ("top_k", "elbow"):
            raise ValueError(f"unknown selection mode {self.select_mode!r}")
        if self.select_mode == "top_k" and self.top_k < 1:
            raise ValueError("top_k must be >= 1")  # the elbow ignores it
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.histogram_bins < 2:
            raise ValueError("histogram_bins must be >= 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if not 0.0 < self.real_fraction <= 1.0:
            raise ValueError("real_fraction must lie in (0, 1]")
        self.gbdt.validate()

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc.update({f"gbdt_{k}": v for k, v in doc.pop("gbdt").items()})
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Inverse of to_dict, validated; missing keys take their defaults. Every key must be known and its value of
        the key's type (a float key also takes an int, and no key a bool)."""
        for key, value in doc.items():
            if key not in CONFIG_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            types = CONFIG_FIELDS[key][1]
            if type(value) not in types and not (type(value) is int and float in types):
                raise ValueError(f"config.{key} must be {types[0].__name__}, got {value!r}")
        gbdt_kwargs = {k[5:]: v for k, v in doc.items() if k.startswith("gbdt_")}
        plain = {k: v for k, v in doc.items() if not k.startswith("gbdt_")}
        config = cls(gbdt=GbdtParams(**gbdt_kwargs), **plain)
        config.validate()
        return config


def _config_fields() -> dict[str, tuple[Field, tuple[type, ...]]]:
    out = {}
    for prefix, cls in (("", RunConfig), ("gbdt_", GbdtParams)):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name != "gbdt":
                out[prefix + f.name] = (f, get_args(hints[f.name]) or (hints[f.name],))
    return out


# Flat config key -> (dataclass field, accepted types), in RunConfig.to_dict
# order. The first type is the value type; optional fields also accept None.
CONFIG_FIELDS = _config_fields()


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; 'none' clears a field."""
    out: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            types = CONFIG_FIELDS[key][1]
            if value.lower() == "none" and type(None) in types:
                out[key] = None
                continue
            try:
                out[key] = types[0](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} expects {types[0].__name__}, got {value!r}") from None
    return out


def _finite_float(text: str) -> float:
    """A JSON number as a float, refusing what Python's json reads as non-finite (``NaN``, ``Infinity``, ``1e999``)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _training(doc) -> dict:
    """The training record read from JSON; evaluation reads its fingerprints."""
    prints = doc.get("fingerprints") if isinstance(doc, dict) else None
    if not isinstance(prints, dict) or not all(isinstance(prints.get(key), str) for key in ("real", "generated")):
        raise FormatError("training must be an object whose fingerprints hold the strings real and generated")
    return doc


@dataclass(eq=False)
class PipelineModel:
    """A fully fitted pipeline plus the record of how it was trained.

    ``indices`` (``selection.indices`` in the file) holds the representation
    index of each stored column (see the ``saab`` module for how an index
    decodes): the selected columns that some tree splits on. Scoring computes
    only those. ``saab`` is the first hop; ``spectral_kernels`` holds, per
    spectral index in ``indices`` order, its row of its channel's c/w matrix.
    """

    saab: SaabModel
    indices: np.ndarray
    spectral_kernels: np.ndarray
    ensemble: BoostedEnsemble
    config: RunConfig
    training: dict
    version: str = MODEL_VERSION

    def score_images(self, images: ImageSet) -> np.ndarray:
        """Soft score per image; near 0 means realistic, near 1 detectable."""
        features = build_representation(images, self.saab, self.indices, self.spectral_kernels)
        return self.ensemble.predict_score(features)

    def evaluate(
        self,
        real: ImageSet,
        generated: ImageSet,
        threshold: float | None = None,
        bins: int | None = None,
        metadata: dict | None = None,
    ) -> EvaluationReport:
        scores = np.concatenate([self.score_images(real), self.score_images(generated)])
        labels = np.concatenate([np.zeros(real.count, dtype=np.int8), np.ones(generated.count, dtype=np.int8)])
        meta = {"config": self.config.to_dict(), "entropy_base": "e"}
        meta.update(metadata or {})
        return aggregate_report(
            scores,
            labels,
            threshold if threshold is not None else self.config.threshold,
            bins if bins is not None else self.config.histogram_bins,
            metadata=meta,
        )

    def to_dict(self) -> dict:
        return {
            "format_version": self.version,
            "config": self.config.to_dict(),
            "saab": self.saab.to_dict(),
            "selection": {
                "indices": [int(i) for i in self.indices],
                "spectral_kernels": self.spectral_kernels.tolist(),
            },
            "ensemble": self.ensemble.to_dict(),
            "training": self.training,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineModel":
        version = doc.get("format_version", "")
        if version.split(".")[0] != MODEL_VERSION.split(".")[0]:
            raise VersionError(f"unsupported model format version {version!r}")
        config = RunConfig.from_dict(doc["config"])
        saab = SaabModel.from_dict(doc["saab"])
        kernels = np.asarray(doc["selection"]["spectral_kernels"], dtype=np.float64)
        model = cls(
            saab=saab,
            indices=integer_array(doc["selection"]["indices"], "selection.indices"),
            spectral_kernels=kernels.reshape(-1, saab.pooled_side**2),
            ensemble=BoostedEnsemble.from_dict(doc["ensemble"]),
            config=config,
            training=_training(doc["training"]),
            version=version,
        )
        model._check_consistency()
        return model

    def _check_consistency(self):
        if self.ensemble.n_features != self.indices.size:
            raise GeometryError(
                f"ensemble expects {self.ensemble.n_features} features, selection has {self.indices.size}"
            )
        split_columns(self.saab, self.indices, self.spectral_kernels)
        width = self.training.get("representation_width")
        if width != self.saab.width:
            raise FormatError(f"training.representation_width {width!r} differs from the saab width {self.saab.width}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "PipelineModel":
        """Read a model file; a malformed one (a non-finite number too) raises one ``FormatError`` naming the file."""
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh, parse_float=_finite_float, parse_constant=_finite_float))
            except KeyError as exc:
                raise FormatError(f"{path}: missing key {exc}") from None
            except (
                FormatError, GeometryError, ValueError, TypeError, AttributeError, IndexError, OverflowError
            ) as exc:
                raise FormatError(f"{path}: malformed model: {exc}") from None


def fit_pipeline(real: ImageSet, generated: ImageSet, config: RunConfig) -> tuple["PipelineModel", dict]:
    """Split, learn the representation, rank/select features, train the
    classifier, then keep only the selected columns that some tree splits on.

    Returns the model and a dict holding ``timings``, the per-stage wall-clock
    seconds, and ``ranking``, the ``DftRanking`` of every representation
    column. Neither enters the model file, so artifacts stay byte-reproducible.
    """
    config.validate()
    if real.side != generated.side or real.channels != generated.channels:
        raise GeometryError("real and generated sources must share geometry")
    if config.channels is not None and real.channels != config.channels:
        raise GeometryError(f"config expects {config.channels} channels, data has {real.channels}")
    if (real.side - config.patch_size) // config.stride + 1 < 2:  # the pooled side would be 0
        raise GeometryError(
            f"patch size {config.patch_size} at stride {config.stride} leaves {real.side}x{real.side} images "
            "a patch grid smaller than the 2x2 that pooling needs"
        )

    timings: dict[str, float] = {}
    tick = time.perf_counter()
    split = checked_split(real, generated, config)
    train_pixels, train_labels = split.train_union()
    timings["split"] = time.perf_counter() - tick

    tick = time.perf_counter()
    saab, pooled, cw = fit_representation(
        ImageSet(train_pixels, REAL),
        patch_size=config.patch_size,
        stride=config.stride,
        energy_threshold=config.energy_threshold,
        explicit_channels=config.k1,
        cw_explicit_channels=config.cw_k,
    )
    del train_pixels
    timings["representation"] = time.perf_counter() - tick

    tick = time.perf_counter()
    ranking = rank_features(representation_blocks(pooled, cw), train_labels, num_bins=config.num_bins)
    selected = select_features(ranking, config.select_mode, config.top_k)  # the elbow ignores top_k
    timings["dft"] = time.perf_counter() - tick

    tick = time.perf_counter()
    train = select_columns(pooled, saab, selected, kernel_rows(saab, cw, selected))
    del pooled
    ensemble = fit_ensemble(train, train_labels, config.gbdt, seed=derive_seed(config.seed, "gbdt"))
    timings["gbdt"] = time.perf_counter() - tick

    train_accuracy = accuracy(confusion(ensemble.predict_score(train), train_labels, config.threshold))
    # Number the split-on columns compactly: every split still compares the same value with the same threshold.
    splits = ensemble.feature >= 0
    used, compact = np.unique(ensemble.feature[splits], return_inverse=True)
    feature = ensemble.feature.copy()
    feature[splits] = compact
    ensemble = replace(ensemble, feature=feature, n_features=used.size)
    indices = selected[used]
    training = {
        "fingerprints": {"real": imageset_fingerprint(real), "generated": imageset_fingerprint(generated)},
        "representation_width": saab.width,
        "selected_count": int(selected.size),
        "train_counts": {"real": split.train_real_idx.size, "generated": split.train_generated_idx.size},
        "train_accuracy": train_accuracy,
    }
    model = PipelineModel(
        saab=saab,
        indices=indices,
        spectral_kernels=kernel_rows(saab, cw, indices),
        ensemble=ensemble,
        config=config,
        training=training,
    )
    return model, {"timings": timings, "ranking": ranking}


def checked_split(
    real: ImageSet, generated: ImageSet, config: RunConfig, parts: tuple[str, ...] = ("train",)
) -> LabeledSplit:
    """The deterministic train/test split of ``config``; ``ValueError``, naming
    the counts, unless each of ``parts`` holds an image of each source."""
    split = make_labeled_split(
        real,
        generated,
        test_fraction=config.test_fraction,
        real_fraction=config.real_fraction,
        seed=derive_seed(config.seed, "split"),
    )
    for part in parts:
        counts = [getattr(split, f"{part}_{name}_idx").size for name in ("real", "generated")]
        if 0 in counts:
            raise ValueError(
                f"the {part} split holds {counts[0]} real and {counts[1]} generated images, and needs one of each "
                f"(test_fraction {config.test_fraction:g}, real_fraction {config.real_fraction:g})"
            )
    return split


def holdout_split(model: PipelineModel, real: ImageSet, generated: ImageSet) -> LabeledSplit:
    """Recompute the deterministic train/test split the model was fitted on."""
    return checked_split(real, generated, model.config, parts=())


def fit_and_evaluate(real: ImageSet, generated: ImageSet, config: RunConfig):
    """Fit, then evaluate on the held-out part of the fit's own split: (model, split, report)."""
    model, _ = fit_pipeline(real, generated, config)
    split = holdout_split(model, real, generated)
    return model, split, model.evaluate(split.test_real, split.test_generated)


def matches_training_data(model: PipelineModel, real: ImageSet, generated: ImageSet) -> bool:
    prints = model.training["fingerprints"]
    return (
        imageset_fingerprint(real) == prints["real"]
        and imageset_fingerprint(generated) == prints["generated"]
    )
