"""Image dataset ingestion and labeled train/test splitting.

Three on-disk formats are supported:

* MNIST-style IDX image files (big-endian, magic ``0x00000803``).
* CIFAR-10 binary batches (3073-byte records: 1 label byte + 3072
  channel-planar pixel bytes).
* LGT raw tensors, this project's own dump format for generated samples:
  ASCII magic ``LGT1``, little-endian u32 ``count, height, width, channels``,
  one u8 provenance flag (0 real / 1 generated), then ``count*h*w*c``
  little-endian float32 values in [0, 1].

All loaders normalize pixels into [0, 1] and return immutable ``ImageSet``s.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GeometryError, LengthError, VersionError

IDX_IMAGE_MAGIC = 0x00000803
CIFAR_RECORD_BYTES = 3073
LGT_MAGIC = b"LGT1"

REAL = "real"
GENERATED = "generated"


@dataclass(frozen=True, eq=False)
class ImageSet:
    """A batch of square images as a (count, N, N, C) float32 tensor in [0, 1]."""

    pixels: np.ndarray
    provenance: str = REAL

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.ndim != 4:
            raise GeometryError(f"expected rank-4 pixel tensor, got rank {px.ndim}")
        n, h, w, c = px.shape
        if h != w:
            raise GeometryError(f"images must be square, got {h}x{w}")
        if h == 0:
            raise GeometryError("image side must be at least 1, got 0")
        if c not in (1, 3):
            raise GeometryError(f"channel count must be 1 or 3, got {c}")
        # min and max propagate NaN, and NaN fails both comparisons.
        if px.size and not (px.min() >= 0.0 and px.max() <= 1.0):
            raise ValueError("pixel values must be finite and lie in [0, 1]")
        if self.provenance not in (REAL, GENERATED):
            raise ValueError(f"provenance must be 'real' or 'generated', got {self.provenance!r}")
        px = np.ascontiguousarray(px)
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def count(self) -> int:
        return self.pixels.shape[0]

    @property
    def side(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[3]

    def subset(self, indices: np.ndarray) -> "ImageSet":
        return ImageSet(self.pixels[np.asarray(indices)], self.provenance)


def load_idx(path) -> ImageSet:
    """Parse an IDX unsigned-byte image file (the MNIST container format)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise LengthError(f"{path}: file too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise LengthError(f"{path}: expected {expected} bytes for {count} {rows}x{cols} images, got {len(raw)}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols, 1)
    return _image_set(path, data.astype(np.float32) / 255.0, REAL)


def load_cifar_bin(path, provenance: str = REAL) -> ImageSet:
    """Parse a CIFAR-10 binary batch. Class labels are read and discarded."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise LengthError(
            f"{path}: length {len(raw)} is not a multiple of the {CIFAR_RECORD_BYTES}-byte record size"
        )
    count = len(raw) // CIFAR_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(count, CIFAR_RECORD_BYTES)
    planes = records[:, 1:].reshape(count, 3, 32, 32)  # channel-planar R,G,B
    pixels = np.transpose(planes, (0, 2, 3, 1)).astype(np.float32) / 255.0
    return _image_set(path, pixels.reshape(count, 32, 32, 3), provenance)


def load_raw_tensor(path) -> ImageSet:
    """Parse an LGT raw tensor dump (see module docstring for the layout)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:3] != LGT_MAGIC[:3]:
        raise FormatError(f"{path}: missing LGT magic")
    if raw[:4] != LGT_MAGIC:
        raise VersionError(f"{path}: unsupported LGT version {raw[3:4]!r}")
    if len(raw) < 21:
        raise LengthError(f"{path}: file too short for an LGT header")
    count, height, width, channels = struct.unpack("<IIII", raw[4:20])
    flag = raw[20]
    if flag not in (0, 1):
        raise FormatError(f"{path}: provenance flag must be 0 or 1, got {flag}")
    expected = 21 + count * height * width * channels * 4
    if len(raw) != expected:
        raise LengthError(f"{path}: header declares {expected} bytes, file has {len(raw)}")
    values = np.frombuffer(raw, dtype="<f4", offset=21)
    return _image_set(path, values.reshape(count, height, width, channels), GENERATED if flag else REAL)


def _image_set(path, pixels: np.ndarray, provenance: str) -> ImageSet:
    """The ImageSet of a loaded file; when the tensor is rejected, the error names the file."""
    try:
        return ImageSet(pixels, provenance)
    except (GeometryError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_raw_tensor(images: ImageSet, path) -> None:
    """Write an ImageSet as an LGT file; reloading is bit-identical."""
    n, h, w, c = images.pixels.shape
    with open(path, "wb") as fh:
        fh.write(LGT_MAGIC)
        fh.write(struct.pack("<IIII", n, h, w, c))
        fh.write(bytes([1 if images.provenance == GENERATED else 0]))
        fh.write(np.ascontiguousarray(images.pixels, dtype="<f4").tobytes())


def write_csv(path, header, rows) -> None:
    """Write the header, then the rows, as lines of comma-joined ``str`` values ending in LF."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _looks_like_cifar(path) -> bool:
    """At least one whole 3073-byte record, each starting with a CIFAR-10 label byte 0-9."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw or len(raw) % CIFAR_RECORD_BYTES:
        return False
    return max(raw[::CIFAR_RECORD_BYTES]) <= 9


def load_images(path, fmt: str = "auto", provenance: str | None = None) -> ImageSet:
    """Load by explicit format name or by sniffing magic bytes / record size."""
    if fmt == "auto":
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head == LGT_MAGIC:
            fmt = "lgt"
        elif len(head) == 4 and struct.unpack(">I", head)[0] == IDX_IMAGE_MAGIC:
            fmt = "idx"
        elif _looks_like_cifar(path):
            fmt = "cifar"
        else:
            raise FormatError(f"{path}: unknown image format (not LGT, IDX or CIFAR-10)")
    if fmt == "idx":
        loaded = load_idx(path)
    elif fmt == "cifar":
        loaded = load_cifar_bin(path)
    elif fmt == "lgt":
        loaded = load_raw_tensor(path)
    else:
        raise ValueError(f"unknown image format {fmt!r}")
    if provenance is not None and provenance != loaded.provenance:
        loaded = ImageSet(loaded.pixels, provenance)
    return loaded


@dataclass(frozen=True, eq=False)
class LabeledSplit:
    """Disjoint train/test partitions of a real and a generated ImageSet.

    Real samples carry label 0, generated samples label 1. ``real_fraction``
    subsamples only the real training portion; test sets are never shrunk.
    """

    train_real: ImageSet
    train_generated: ImageSet
    test_real: ImageSet
    test_generated: ImageSet
    train_real_idx: np.ndarray
    train_generated_idx: np.ndarray
    test_real_idx: np.ndarray
    test_generated_idx: np.ndarray
    seed: int
    test_fraction: float
    real_fraction: float = 1.0

    def train_union(self) -> tuple[np.ndarray, np.ndarray]:
        """The training pixels, real then generated, and their labels."""
        real, generated = self.train_real, self.train_generated
        labels = np.concatenate([np.zeros(real.count, dtype=np.int8), np.ones(generated.count, dtype=np.int8)])
        return np.concatenate([real.pixels, generated.pixels], axis=0), labels


def make_labeled_split(
    real: ImageSet,
    generated: ImageSet,
    test_fraction: float = 0.2,
    real_fraction: float = 1.0,
    seed: int = 0,
) -> LabeledSplit:
    """Deterministically partition both sources into train/test index sets.

    Shrinking ``real_fraction`` keeps a prefix of the shuffled real training
    indices, so splits at different fractions are nested for a fixed seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if not 0.0 < real_fraction <= 1.0:
        raise ValueError(f"real_fraction must lie in (0, 1], got {real_fraction}")
    if real.count == 0 or generated.count == 0:
        raise ValueError("both the real and the generated source must be non-empty")

    rng = np.random.default_rng(seed)
    perm_real = rng.permutation(real.count)
    perm_gen = rng.permutation(generated.count)

    n_test_real = int(real.count * test_fraction)
    n_test_gen = int(generated.count * test_fraction)
    test_real_idx = np.sort(perm_real[:n_test_real])
    test_gen_idx = np.sort(perm_gen[:n_test_gen])
    train_real_full = perm_real[n_test_real:]
    train_gen_idx = np.sort(perm_gen[n_test_gen:])

    n_train_real = int(real_fraction * train_real_full.size)
    train_real_idx = np.sort(train_real_full[:n_train_real])

    return LabeledSplit(
        train_real=real.subset(train_real_idx),
        train_generated=generated.subset(train_gen_idx),
        test_real=real.subset(test_real_idx),
        test_generated=generated.subset(test_gen_idx),
        train_real_idx=train_real_idx,
        train_generated_idx=train_gen_idx,
        test_real_idx=test_real_idx,
        test_generated_idx=test_gen_idx,
        seed=seed,
        test_fraction=test_fraction,
        real_fraction=real_fraction,
    )
