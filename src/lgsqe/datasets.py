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
Each file is read once. IDX and CIFAR-10 bytes are decoded into one float32
buffer, so loading peaks at about 1.25x the decoded pixels (the read bytes
plus that buffer); LGT pixels are a view on the read bytes.
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
    return load_images(path, "idx")


def load_cifar_bin(path, provenance: str = REAL) -> ImageSet:
    """Parse a CIFAR-10 binary batch. Class labels are read and discarded."""
    return load_images(path, "cifar", provenance)


def load_raw_tensor(path) -> ImageSet:
    """Parse an LGT raw tensor dump (see module docstring for the layout)."""
    return load_images(path, "lgt")


def _unit_pixels(data: np.ndarray) -> np.ndarray:
    """Bytes 0-255 as float32 in [0, 1], decoded into one C-order buffer and divided in place."""
    pixels = np.ascontiguousarray(data, dtype=np.float32)
    pixels /= 255.0
    return pixels


def _parse_idx(raw: bytes, path) -> tuple[np.ndarray, str]:
    if len(raw) < 16:
        raise LengthError(f"{path}: file too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise LengthError(f"{path}: expected {expected} bytes for {count} {rows}x{cols} images, got {len(raw)}")
    return _unit_pixels(np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows, cols, 1)), REAL


def _parse_cifar(raw: bytes, path) -> tuple[np.ndarray, str]:
    if len(raw) % CIFAR_RECORD_BYTES != 0:
        raise LengthError(
            f"{path}: length {len(raw)} is not a multiple of the {CIFAR_RECORD_BYTES}-byte record size"
        )
    count = len(raw) // CIFAR_RECORD_BYTES
    records = np.frombuffer(raw, dtype=np.uint8).reshape(count, CIFAR_RECORD_BYTES)
    planes = records[:, 1:].reshape(count, 3, 32, 32)  # channel-planar R,G,B
    return _unit_pixels(np.transpose(planes, (0, 2, 3, 1))), REAL


def _parse_lgt(raw: bytes, path) -> tuple[np.ndarray, str]:
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
    values = np.frombuffer(raw, dtype="<f4", offset=21)  # a view on the read bytes
    return values.reshape(count, height, width, channels), GENERATED if flag else REAL


def save_raw_tensor(images: ImageSet, path) -> None:
    """Write an ImageSet as an LGT file; reloading is bit-identical."""
    n, h, w, c = images.pixels.shape
    with open(path, "wb") as fh:
        fh.write(LGT_MAGIC)
        fh.write(struct.pack("<IIII", n, h, w, c))
        fh.write(bytes([1 if images.provenance == GENERATED else 0]))
        fh.write(np.ascontiguousarray(images.pixels, dtype="<f4"))


def write_csv(path, header, rows) -> None:
    """Write the header, then the rows, as lines of comma-joined ``str`` values ending in LF."""
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in (header, *rows))


def load_images(path, fmt: str = "auto", provenance: str | None = None) -> ImageSet:
    """Load by explicit format name or by sniffing the read bytes: LGT magic, IDX magic, then whole
    3073-byte records that each start with a CIFAR-10 label byte 0-9. The file is read once.

    ``provenance`` overrides the stored one (always ``"real"`` for IDX and CIFAR-10)."""
    parsers = {"idx": _parse_idx, "cifar": _parse_cifar, "lgt": _parse_lgt}
    if fmt != "auto" and fmt not in parsers:
        raise ValueError(f"unknown image format {fmt!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == "auto":
        if raw[:4] == LGT_MAGIC:
            fmt = "lgt"
        elif raw[:4] == struct.pack(">I", IDX_IMAGE_MAGIC):
            fmt = "idx"
        elif raw and len(raw) % CIFAR_RECORD_BYTES == 0 and max(raw[::CIFAR_RECORD_BYTES]) <= 9:
            fmt = "cifar"
        else:
            raise FormatError(f"{path}: unknown image format (not LGT, IDX or CIFAR-10)")
    pixels, stored = parsers[fmt](raw, path)
    try:
        return ImageSet(pixels, stored if provenance is None else provenance)
    except (GeometryError, ValueError) as exc:  # a rejected tensor or provenance names the file
        raise type(exc)(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class LabeledSplit:
    """Disjoint train/test index sets into a real and a generated ImageSet.

    Real samples carry label 0, generated samples label 1. Only the indices
    are stored; test sets are gathered on read. The real fraction subsamples
    only the real training indices; test sets are never shrunk.
    """

    real: ImageSet
    generated: ImageSet
    train_real_idx: np.ndarray
    train_generated_idx: np.ndarray
    test_real_idx: np.ndarray
    test_generated_idx: np.ndarray

    def __post_init__(self):
        """Check every index here, so train_union gathers with ``mode="clip"``, which buffers no output."""
        for name, source in (("real", self.real), ("generated", self.generated)):
            for part in ("train", "test"):
                idx = getattr(self, f"{part}_{name}_idx")
                if idx.size and not (idx.min() >= 0 and idx.max() < source.count):
                    raise IndexError(f"{part}_{name}_idx must lie in [0, {source.count})")

    @property
    def test_real(self) -> ImageSet:
        return self.real.subset(self.test_real_idx)

    @property
    def test_generated(self) -> ImageSet:
        return self.generated.subset(self.test_generated_idx)

    def train_union(self) -> tuple[np.ndarray, np.ndarray]:
        """The training pixels, real then generated, gathered into one array, and their labels."""
        n_real, n_gen = self.train_real_idx.size, self.train_generated_idx.size
        pixels = np.empty((n_real + n_gen, *self.real.pixels.shape[1:]), dtype=np.float32)
        np.take(self.real.pixels, self.train_real_idx, axis=0, out=pixels[:n_real], mode="clip")
        np.take(self.generated.pixels, self.train_generated_idx, axis=0, out=pixels[n_real:], mode="clip")
        return pixels, np.concatenate([np.zeros(n_real, dtype=np.int8), np.ones(n_gen, dtype=np.int8)])


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
    The counts are ``int`` of float products, which can fall one short of the
    decimal product (``filter_samples`` takes the decimal one). They stay so,
    because ``eval`` recomputes a stored model's holdout split from them and
    must find the same test images as the fit did.
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

    return LabeledSplit(real, generated, train_real_idx, train_gen_idx, test_real_idx, test_gen_idx)
