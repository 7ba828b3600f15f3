import builtins
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe.errors import FormatError, GeometryError, LengthError, LgsqeError, VersionError

from conftest import damaged_file, image_file_bytes, random_image_set, traced_peak


def write_idx(path, images: np.ndarray) -> None:
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        raw = np.arange(18, dtype=np.uint8).reshape(2, 3, 3)
        path = tmp_path / "two.idx"
        write_idx(path, raw)
        loaded = lgsqe.load_idx(path)
        assert loaded.count == 2
        assert loaded.channels == 1
        np.testing.assert_array_equal(loaded.pixels[..., 0], raw.astype(np.float32) / 255.0)
        assert loaded.pixels.min() >= 0.0 and loaded.pixels.max() <= 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0, 2, 3, 3) + bytes(18))
        with pytest.raises(FormatError):
            lgsqe.load_idx(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + bytes(17))
        with pytest.raises(LengthError):
            lgsqe.load_idx(path)

    def test_non_square_names_the_file(self, tmp_path):
        path = tmp_path / "wide.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 1, 3, 4) + bytes(12))
        with pytest.raises(GeometryError, match="wide.idx: images must be square"):
            lgsqe.load_idx(path)


class TestCifar:
    def test_two_record_fixture(self, tmp_path):
        raw = (np.arange(2 * 3073) % 256).astype(np.uint8)
        path = tmp_path / "batch.bin"
        path.write_bytes(raw.tobytes())
        loaded = lgsqe.load_cifar_bin(path)
        assert loaded.count == 2
        assert loaded.side == 32 and loaded.channels == 3
        # independent index arithmetic: channel-planar record layout
        for img, row, col, ch in [(0, 0, 0, 0), (0, 5, 7, 1), (1, 31, 31, 2), (1, 12, 3, 0)]:
            byte = raw[img * 3073 + 1 + ch * 1024 + row * 32 + col]
            assert loaded.pixels[img, row, col, ch] == np.float32(byte / 255.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert lgsqe.load_cifar_bin(path).count == 0

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))
        with pytest.raises(LengthError):
            lgsqe.load_cifar_bin(path)


class TestLgt:
    @given(
        count=st.integers(0, 6),
        side=st.integers(2, 9),
        channels=st.sampled_from([1, 3]),
        generated=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30)
    def test_round_trip_bit_identical(self, tmp_path_factory, count, side, channels, generated, seed):
        tmp = tmp_path_factory.mktemp("lgt")
        rng = np.random.default_rng(seed)
        pixels = rng.random((count, side, side, channels), dtype=np.float32)
        original = lgsqe.ImageSet(pixels, "generated" if generated else "real")
        path = tmp / "dump.lgt"
        lgsqe.save_raw_tensor(original, path)
        reloaded = lgsqe.load_raw_tensor(path)
        assert reloaded.provenance == original.provenance
        assert reloaded.pixels.tobytes() == original.pixels.tobytes()

    def test_header_fields(self, tmp_path):
        images = random_image_set(100, side=28, seed=1, provenance="generated")
        path = tmp_path / "g.lgt"
        lgsqe.save_raw_tensor(images, path)
        raw = path.read_bytes()
        assert raw[:4] == b"LGT1"
        assert struct.unpack("<IIII", raw[4:20]) == (100, 28, 28, 1)
        assert raw[20] == 1
        assert lgsqe.load_raw_tensor(path).count == 100

    def test_zero_count(self, tmp_path):
        path = tmp_path / "empty.lgt"
        path.write_bytes(b"LGT1" + struct.pack("<IIII", 0, 28, 28, 1) + bytes([1]))
        loaded = lgsqe.load_raw_tensor(path)
        assert loaded.count == 0 and loaded.provenance == "generated"

    def test_payload_mismatch(self, tmp_path):
        path = tmp_path / "bad.lgt"
        path.write_bytes(b"LGT1" + struct.pack("<IIII", 2, 2, 2, 1) + bytes([0]) + bytes(4))
        with pytest.raises(LengthError):
            lgsqe.load_raw_tensor(path)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((1, 0, 0, 1), "image side must be at least 1"),
            ((1, 2, 3, 1), "must be square"),
            ((1, 2, 2, 2), "channel count"),
        ],
    )
    def test_bad_geometry_names_the_file(self, tmp_path, shape, message):
        path = tmp_path / "odd.lgt"
        path.write_bytes(b"LGT1" + struct.pack("<IIII", *shape) + bytes([0]) + bytes(4 * int(np.prod(shape))))
        with pytest.raises(GeometryError, match=f"odd.lgt: .*{message}"):
            lgsqe.load_raw_tensor(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.lgt"
        path.write_bytes(b"LGT2" + struct.pack("<IIII", 0, 2, 2, 1) + bytes([0]))
        with pytest.raises(VersionError):
            lgsqe.load_raw_tensor(path)

    def test_not_lgt(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x00\x00\x00" + bytes(32))
        with pytest.raises(FormatError):
            lgsqe.load_raw_tensor(path)


class TestAutoDetect:
    def test_sniffs_all_three(self, tmp_path):
        idx_path = tmp_path / "a.idx"
        write_idx(idx_path, np.zeros((1, 4, 4), dtype=np.uint8))
        cifar_path = tmp_path / "b.bin"
        cifar_path.write_bytes(bytes(3073))
        lgt_path = tmp_path / "c.lgt"
        lgsqe.save_raw_tensor(random_image_set(1, side=4), lgt_path)
        assert lgsqe.load_images(idx_path).side == 4
        assert lgsqe.load_images(cifar_path).side == 32
        assert lgsqe.load_images(lgt_path).side == 4

    def test_unknown_magic_rejected(self, tmp_path):
        fake_png = tmp_path / "image.png"
        fake_png.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(3073 - 8))
        with pytest.raises(FormatError):
            lgsqe.load_images(fake_png)

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        with pytest.raises(FormatError, match="empty.bin: unknown image format"):
            lgsqe.load_images(empty)


class TestOneRead:
    @pytest.mark.parametrize("fmt", ["idx", "cifar", "lgt"])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_file_opened_once(self, tmp_path, monkeypatch, fmt, explicit):
        path = tmp_path / f"two.{fmt}"
        path.write_bytes(image_file_bytes()[fmt][0])
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert lgsqe.load_images(path, fmt=fmt if explicit else "auto").count == 2
        assert [str(f) for f in opened] == [str(path)]

    @pytest.mark.parametrize("fmt, bound", [("idx", 1.3), ("cifar", 1.3), ("lgt", 1.05)])
    def test_decode_peak(self, tmp_path, fmt, bound):
        # The read bytes plus one float32 buffer (1.25x the pixels for IDX and CIFAR); LGT pixels view the bytes.
        # Decoding through astype and a division, plus a C-order copy for CIFAR, would peak at 2.25x.
        rng = np.random.default_rng(0)
        path = tmp_path / f"big.{fmt}"
        if fmt == "idx":
            write_idx(path, rng.integers(0, 256, (2000, 28, 28), dtype=np.uint8))
        elif fmt == "cifar":
            records = rng.integers(0, 256, (500, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            path.write_bytes(records.tobytes())
        else:
            lgsqe.save_raw_tensor(random_image_set(2000, side=28), path)
        images, peak = traced_peak(lambda: lgsqe.load_images(path))
        assert peak <= bound * images.pixels.nbytes, (peak, images.pixels.nbytes)

    def test_save_copies_nothing(self, tmp_path):
        images = random_image_set(500, side=32, channels=3, seed=4)
        _, peak = traced_peak(lambda: lgsqe.save_raw_tensor(images, tmp_path / "out.lgt"))
        assert peak <= 0.05 * images.pixels.nbytes, (peak, images.pixels.nbytes)

    def test_byte_decoding_oracle(self, tmp_path):
        # Every byte value decodes to the float32 quotient byte / 255, bit for bit.
        table = np.arange(256, dtype=np.uint8).astype(np.float32) / 255.0
        idx_path = tmp_path / "all.idx"
        write_idx(idx_path, np.arange(256, dtype=np.uint8).reshape(1, 16, 16))
        assert lgsqe.load_idx(idx_path).pixels.tobytes() == table.tobytes()
        record = np.concatenate([[9], np.arange(3072) % 256]).astype(np.uint8)
        cifar_path = tmp_path / "all.bin"
        cifar_path.write_bytes(record.tobytes())
        expected = table[record[1:].reshape(3, 32, 32).transpose(1, 2, 0)]
        assert lgsqe.load_cifar_bin(cifar_path).pixels.tobytes() == expected.tobytes()

    def test_bad_provenance_names_the_file(self, tmp_path):
        path = tmp_path / "two.idx"
        path.write_bytes(image_file_bytes()["idx"][0])
        with pytest.raises(ValueError, match="two.idx: provenance must be"):
            lgsqe.load_images(path, provenance="fake")


class TestLoaderFuzz:
    """Damaged files either load as a valid ImageSet or fail with an error naming the file."""

    @given(fmt=st.sampled_from(["idx", "cifar", "lgt"]), explicit=st.booleans(), data=st.data())
    @settings(max_examples=300)
    def test_damaged_header(self, tmp_path_factory, fmt, explicit, data):
        path = tmp_path_factory.mktemp("fuzz") / f"damaged.{fmt}"
        path.write_bytes(damaged_file(data, fmt))
        try:
            images = lgsqe.load_images(path, fmt=fmt if explicit else "auto")
        except (LgsqeError, ValueError) as exc:
            assert str(path) in str(exc)
            return
        assert isinstance(images, lgsqe.ImageSet)
        assert images.side >= 1 and images.channels in (1, 3)
        assert images.pixels.size == 0 or 0.0 <= images.pixels.min() <= images.pixels.max() <= 1.0


INDEX_FIELDS = ["train_real_idx", "train_generated_idx", "test_real_idx", "test_generated_idx"]


class TestSplit:
    def test_counts_arithmetic(self):
        real = random_image_set(1000, seed=1)
        generated = random_image_set(1000, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, test_fraction=0.2, real_fraction=1.0, seed=0)
        assert split.train_real_idx.size == 800 and split.train_generated_idx.size == 800
        assert split.test_real.count == 200 and split.test_generated.count == 200

    def test_real_fraction_shrinks_only_real_train(self):
        real = random_image_set(1000, seed=1)
        generated = random_image_set(1000, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, test_fraction=0.2, real_fraction=0.2, seed=0)
        assert split.train_real_idx.size == 160
        assert split.train_generated_idx.size == 800
        assert split.test_real.count == 200 and split.test_generated.count == 200

    def test_same_seed_identical(self):
        real = random_image_set(50, seed=1)
        generated = random_image_set(60, seed=2, provenance="generated")
        a = lgsqe.make_labeled_split(real, generated, seed=3)
        b = lgsqe.make_labeled_split(real, generated, seed=3)
        np.testing.assert_array_equal(a.train_real_idx, b.train_real_idx)
        np.testing.assert_array_equal(a.test_generated_idx, b.test_generated_idx)

    def test_different_seed_differs(self):
        real = random_image_set(500, seed=1)
        generated = random_image_set(500, seed=2, provenance="generated")
        a = lgsqe.make_labeled_split(real, generated, seed=3)
        b = lgsqe.make_labeled_split(real, generated, seed=4)
        assert not np.array_equal(a.test_real_idx, b.test_real_idx)

    @given(
        n_real=st.integers(5, 60),
        n_gen=st.integers(5, 60),
        test_fraction=st.floats(0.1, 0.9),
        real_fraction=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_disjoint_and_bounded(self, n_real, n_gen, test_fraction, real_fraction, seed):
        real = random_image_set(n_real, seed=1)
        generated = random_image_set(n_gen, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, test_fraction, real_fraction, seed)
        assert not set(split.train_real_idx) & set(split.test_real_idx)
        assert not set(split.train_generated_idx) & set(split.test_generated_idx)
        assert split.train_generated_idx.size + split.test_generated.count == n_gen

    def test_union_labels(self):
        real = random_image_set(10, seed=1)
        generated = random_image_set(10, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, seed=0)
        _, labels = split.train_union()
        assert set(labels.tolist()) == {0, 1}
        assert labels.sum() == split.train_generated_idx.size

    def test_gathers_equal_subsets(self):
        real = random_image_set(40, side=6, channels=3, seed=1)
        generated = random_image_set(30, side=6, channels=3, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, test_fraction=0.3, real_fraction=0.5, seed=5)
        assert split.real is real and split.generated is generated
        for gathered, source, idx in (
            (split.test_real, real, split.test_real_idx),
            (split.test_generated, generated, split.test_generated_idx),
        ):
            assert gathered.provenance == source.provenance
            assert gathered.pixels.tobytes() == source.subset(idx).pixels.tobytes()
        pixels, labels = split.train_union()
        expected = np.concatenate(
            [real.subset(split.train_real_idx).pixels, generated.subset(split.train_generated_idx).pixels]
        )
        assert pixels.shape == expected.shape and pixels.tobytes() == expected.tobytes()
        counts = [split.train_real_idx.size, split.train_generated_idx.size]
        assert labels.tobytes() == np.repeat(np.int8([0, 1]), counts).tobytes()

    def test_split_allocates_no_pixels(self):
        # At a fixed image count only the index arrays are allocated, so the peak does not grow with the image
        # side; copying the subsets would cost the whole pixel tensor (3.1 MB per source at side 64).
        peaks = {}
        for side in (4, 64):
            real = random_image_set(200, side=side, seed=1)
            generated = random_image_set(200, side=side, seed=2, provenance="generated")
            _, peaks[side] = traced_peak(lambda: lgsqe.make_labeled_split(real, generated, seed=3))
        assert peaks[64] <= peaks[4] + 1024, peaks

    def test_union_allocates_only_itself(self):
        # Gathering straight into the union: np.take's default mode="raise" would buffer each half (1.5x in all).
        real = random_image_set(500, side=32, channels=3, seed=1)
        generated = random_image_set(500, side=32, channels=3, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, seed=3)
        (pixels, labels), peak = traced_peak(split.train_union)
        assert peak <= 1.05 * (pixels.nbytes + labels.nbytes), (peak, pixels.nbytes)

    @pytest.mark.parametrize("field", INDEX_FIELDS)
    @pytest.mark.parametrize("bad", [10, -1])
    def test_out_of_range_index_rejected(self, field, bad):
        real = random_image_set(10, seed=1)
        generated = random_image_set(10, seed=2, provenance="generated")
        split = lgsqe.make_labeled_split(real, generated, seed=0)
        indices = {name: getattr(split, name).copy() for name in INDEX_FIELDS}
        indices[field][0] = bad  # a clipped gather would read image 9 or 0 instead
        with pytest.raises(IndexError, match=field):
            lgsqe.LabeledSplit(real, generated, **indices)

    def test_empty_source_rejected(self):
        real = random_image_set(10, seed=1)
        empty = lgsqe.ImageSet(np.empty((0, 8, 8, 1), dtype=np.float32), "generated")
        with pytest.raises(ValueError):
            lgsqe.make_labeled_split(real, empty)

    def test_bad_fractions_rejected(self):
        real = random_image_set(10, seed=1)
        generated = random_image_set(10, seed=2, provenance="generated")
        with pytest.raises(ValueError):
            lgsqe.make_labeled_split(real, generated, test_fraction=1.0)
        with pytest.raises(ValueError):
            lgsqe.make_labeled_split(real, generated, real_fraction=0.0)


class TestImageSet:
    def test_rejects_out_of_range_pixels(self):
        with pytest.raises(ValueError):
            lgsqe.ImageSet(np.full((1, 4, 4, 1), 1.5, dtype=np.float32))

    def test_rejects_non_finite_pixels(self):
        for bad in (np.nan, np.inf, -np.inf):
            pixels = np.full((2, 4, 4, 1), 0.5, dtype=np.float32)
            pixels[1, 2, 3, 0] = bad
            with pytest.raises(ValueError):
                lgsqe.ImageSet(pixels)

    def test_rejects_zero_side(self):
        with pytest.raises(GeometryError):
            lgsqe.ImageSet(np.zeros((3, 0, 0, 1), dtype=np.float32))

    def test_rejects_non_square(self):
        with pytest.raises(Exception):
            lgsqe.ImageSet(np.zeros((1, 4, 5, 1), dtype=np.float32))

    def test_immutable(self):
        images = random_image_set(2)
        with pytest.raises(ValueError):
            images.pixels[0, 0, 0, 0] = 0.0
