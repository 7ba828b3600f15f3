import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe import saab
from lgsqe.errors import GeometryError
from lgsqe.saab import PatchMatrix, kernel_rows, representation_columns

from conftest import random_image_set, traced_peak, unchunked_representation


def patch_matrix_from_array(data: np.ndarray) -> PatchMatrix:
    """Wrap raw rows as 1x1-grid patches of a square side (tests only)."""
    dim = data.shape[1]
    side = int(round(np.sqrt(dim)))
    assert side * side == dim
    return PatchMatrix(np.asarray(data, dtype=np.float64), data.shape[0], 1, side, 1, 1, side)


def brute_force_eigenpairs(data: np.ndarray):
    """Independent oracle: explicit residual covariance + dense eigensolver."""
    n, dim = data.shape
    dc = np.full(dim, 1.0 / np.sqrt(dim))
    residual = data - np.outer(data @ dc, dc)
    centered = residual - residual.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][: dim - 1]  # drop the null DC direction
    kernels = eigvecs[:, order].T.copy()
    for row in kernels:
        nz = np.nonzero(np.abs(row) > 1e-9)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return np.clip(eigvals[order], 0.0, None), kernels


class TestExtractPatches:
    def test_cifar_geometry(self):
        images = random_image_set(2, side=32, channels=3, seed=0)
        patches = lgsqe.extract_patches(images, 3, 1)
        assert patches.grid_n == 30
        assert patches.patch_dim == 27
        assert patches.data.shape == (2 * 30 * 30, 27)

    def test_full_image_patch(self):
        images = random_image_set(3, side=6, seed=1)
        patches = lgsqe.extract_patches(images, 6, 1)
        assert patches.grid_n == 1
        np.testing.assert_array_equal(patches.data, images.pixels.reshape(3, 36))

    def test_stride_floor_geometry(self):
        images = random_image_set(1, side=28, seed=2)
        patches = lgsqe.extract_patches(images, 5, 2)
        offsets = [o for o in range(0, 28 - 5 + 1, 2)]
        assert offsets == list(range(0, 23, 2)) and len(offsets) == 12
        assert patches.grid_n == 12
        assert patches.patch_dim == 25

    def test_row_order_and_content(self):
        images = random_image_set(2, side=9, channels=3, seed=3)
        patches = lgsqe.extract_patches(images, 4, 2)
        grid = patches.grid_n
        img, gy, gx = 1, 2, 0
        row = patches.data[img * grid * grid + gy * grid + gx]
        manual = images.pixels[img, gy * 2 : gy * 2 + 4, gx * 2 : gx * 2 + 4, :].reshape(-1)
        np.testing.assert_array_equal(row, manual)

    def test_patch_too_large(self):
        with pytest.raises(GeometryError):
            lgsqe.extract_patches(random_image_set(1, side=4), 5, 1)


class TestFitSaab:
    def test_constant_patches_zero_ac_energy(self):
        patches = patch_matrix_from_array(np.full((50, 9), 3.25))
        model = lgsqe.fit_saab(patches)
        assert np.all(model.eigenvalues < 1e-12)
        assert model.num_channels == 1  # zero variance keeps DC only

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(200, 16))
        model = lgsqe.fit_saab(patch_matrix_from_array(data), energy_threshold=1.0)
        oracle_vals, oracle_kernels = brute_force_eigenpairs(data)
        assert np.max(np.abs(model.eigenvalues - oracle_vals)) < 1e-6
        assert np.max(np.abs(model.ac_kernels - oracle_kernels)) < 1e-6

    def test_energy_one_keeps_everything(self):
        data = np.random.default_rng(0).normal(size=(100, 9))
        model = lgsqe.fit_saab(patch_matrix_from_array(data), energy_threshold=1.0)
        assert model.num_channels == 9

    def test_explicit_channel_count(self):
        data = np.random.default_rng(0).normal(size=(100, 9))
        model = lgsqe.fit_saab(patch_matrix_from_array(data), explicit_channels=4)
        assert model.num_channels == 4

    def test_orthonormal_basis(self):
        data = np.random.default_rng(1).normal(size=(120, 16))
        model = lgsqe.fit_saab(patch_matrix_from_array(data), energy_threshold=1.0)
        basis = model.kernel_matrix()
        np.testing.assert_allclose(basis @ basis.T, np.eye(basis.shape[0]), atol=1e-6)

    def test_eigenvalues_nonincreasing(self):
        data = np.random.default_rng(2).normal(size=(150, 25))
        model = lgsqe.fit_saab(patch_matrix_from_array(data))
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)

    def test_deterministic_and_sign_fixed(self):
        data = np.random.default_rng(3).normal(size=(90, 9))
        a = lgsqe.fit_saab(patch_matrix_from_array(data), energy_threshold=1.0)
        b = lgsqe.fit_saab(patch_matrix_from_array(data), energy_threshold=1.0)
        np.testing.assert_array_equal(a.ac_kernels, b.ac_kernels)
        for row in a.ac_kernels:
            first = row[np.nonzero(np.abs(row) > 1e-9)[0][0]]
            assert first > 0

    def test_rank_deficient_warns(self):
        data = np.random.default_rng(4).normal(size=(5, 16))
        with pytest.warns(UserWarning):
            lgsqe.fit_saab(patch_matrix_from_array(data))


class TestApplySaab:
    def test_constant_image_responses(self, small_images):
        model = lgsqe.fit_saab(lgsqe.extract_patches(small_images, 4, 2), energy_threshold=1.0)
        value = 0.625
        constant = lgsqe.ImageSet(np.full((1, 16, 16, 1), value, dtype=np.float32), "real")
        responses = lgsqe.apply_saab(model, constant)
        k = model.patch_dim
        np.testing.assert_allclose(responses[..., 0], np.sqrt(k) * value, rtol=1e-6)
        np.testing.assert_allclose(responses[..., 1:], 0.0, atol=1e-9)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_energy_preservation_full_basis(self, seed):
        rng = np.random.default_rng(seed)
        train = rng.normal(size=(80, 9))
        model = lgsqe.fit_saab(patch_matrix_from_array(train), energy_threshold=1.0)
        x = rng.normal(size=(40, 9))
        coeffs = x @ model.kernel_matrix().T
        mean_centered = x - x.mean(axis=1, keepdims=True)
        decomposed = (mean_centered**2).sum(axis=1) + coeffs[:, 0] ** 2
        np.testing.assert_allclose((coeffs**2).sum(axis=1), decomposed, rtol=1e-6)
        np.testing.assert_allclose((coeffs**2).sum(axis=1), (x**2).sum(axis=1), rtol=1e-6)

    def test_identical_images_identical_responses(self, small_images):
        model = lgsqe.fit_saab(lgsqe.extract_patches(small_images, 3, 1))
        doubled = lgsqe.ImageSet(np.repeat(small_images.pixels[:1], 2, axis=0), "real")
        responses = lgsqe.apply_saab(model, doubled)
        np.testing.assert_array_equal(responses[0], responses[1])

    def test_geometry_mismatch(self, small_images):
        model = lgsqe.fit_saab(lgsqe.extract_patches(small_images, 3, 1))
        with pytest.raises(GeometryError):
            lgsqe.apply_saab(model, random_image_set(1, side=12))


class TestAbsMaxPool:
    def test_sign_preserved(self):
        window = np.array([[1.0, -5.0], [2.0, 3.0]]).reshape(1, 2, 2, 1)
        assert lgsqe.abs_max_pool(window)[0, 0, 0, 0] == -5.0

    def test_all_equal_window(self):
        window = np.full((1, 2, 2, 1), 0.7)
        assert lgsqe.abs_max_pool(window)[0, 0, 0, 0] == 0.7

    def test_halves_grid(self):
        responses = np.random.default_rng(0).normal(size=(2, 30, 30, 4))
        assert lgsqe.abs_max_pool(responses).shape == (2, 15, 15, 4)

    def test_odd_tail_dropped(self):
        responses = np.random.default_rng(1).normal(size=(1, 7, 7, 2))
        assert lgsqe.abs_max_pool(responses).shape == (1, 3, 3, 2)

    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(2, 9), channels=st.integers(1, 4))
    @settings(max_examples=40)
    def test_matches_naive_window_scan(self, seed, height, channels):
        rng = np.random.default_rng(seed)
        responses = rng.normal(size=(2, height, height, channels))
        pooled = lgsqe.abs_max_pool(responses)
        for n in range(2):
            for r in range(height // 2):
                for c in range(height // 2):
                    for ch in range(channels):
                        window = responses[n, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2, ch].ravel()
                        expected = window[np.argmax(np.abs(window))]
                        assert pooled[n, r, c, ch] == expected

    @given(seed=st.integers(0, 2**32 - 1), height=st.integers(2, 7), channels=st.integers(1, 3))
    @settings(max_examples=40)
    def test_ties_go_to_the_first_window_element(self, seed, height, channels):
        rng = np.random.default_rng(seed)
        magnitudes = rng.integers(0, 3, size=(2, height, height, channels)).astype(np.float64)
        responses = np.where(rng.random(magnitudes.shape) < 0.5, -magnitudes, magnitudes)  # zeros become -0.0 or 0.0
        pooled = lgsqe.abs_max_pool(responses)
        for n in range(2):
            for r in range(height // 2):
                for c in range(height // 2):
                    for ch in range(channels):
                        window = responses[n, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2, ch].ravel()
                        expected = window[np.argmax(np.abs(window))]
                        assert pooled[n, r, c, ch].tobytes() == expected.tobytes()


def dc_row(size):
    return np.full(size, 1.0 / np.sqrt(size))


class TestChannelWiseSaab:
    def test_identical_maps_keep_dc_only(self):
        pattern = np.random.default_rng(0).normal(size=(1, 6, 6, 3))
        pooled = np.repeat(pattern, 40, axis=0)
        kernels = lgsqe.fit_cw_saab(pooled)
        assert len(kernels) == 3
        for matrix in kernels:
            assert matrix.tobytes() == dc_row(36).tobytes()

    def test_per_channel_oracle(self):
        rng = np.random.default_rng(5)
        pooled = rng.normal(size=(120, 4, 4, 2))
        kernels = lgsqe.fit_cw_saab(pooled, energy_threshold=1.0)
        assert [matrix.shape for matrix in kernels] == [(16, 16)] * 2
        for ch, matrix in enumerate(kernels):
            rows = pooled[..., ch].reshape(120, 16)
            oracle_vals, oracle_kernels = brute_force_eigenpairs(rows)
            assert matrix[0].tobytes() == dc_row(16).tobytes()
            assert np.max(np.abs(matrix[1:] - oracle_kernels)) < 1e-6
            # An AC row's sample variance of the projections is its eigenvalue.
            assert np.max(np.abs((rows @ matrix[1:].T).var(axis=0, ddof=1) - oracle_vals)) < 1e-6

    def test_explicit_spectral_width(self):
        rng = np.random.default_rng(6)
        pooled = rng.normal(size=(300, 15, 15, 15))
        kernels = lgsqe.fit_cw_saab(pooled, explicit_channels=10)
        assert [matrix.shape for matrix in kernels] == [(10, 225)] * 15

    def test_channel_count_mismatch(self, small_images):
        # A spectral column of a channel the first hop does not have is refused.
        hop, _, cw = lgsqe.fit_representation(small_images, 3, 2)
        assert len(cw) == hop.num_channels
        with pytest.raises(GeometryError):
            lgsqe.build_representation(small_images, hop, [("spectral", len(cw), 0)], cw[0][:1])


def build_all(images, hop, cw):
    columns = representation_columns(hop, cw)
    return lgsqe.build_representation(images, hop, columns, kernel_rows(cw, columns))


class TestBuildRepresentation:
    def test_width_matches_provenance_arithmetic(self, small_images):
        hop, pooled, cw = lgsqe.fit_representation(small_images, 3, 2)
        columns = representation_columns(hop, cw)
        features = build_all(small_images, hop, cw)
        patches_grid = (16 - 3) // 2 + 1
        pooled_side = patches_grid // 2
        spatial = pooled_side * pooled_side * hop.num_channels
        spectral = sum(len(matrix) for matrix in cw)
        assert features.shape == (small_images.count, spatial + spectral) and len(columns) == spatial + spectral
        assert pooled.shape == (small_images.count, spatial)
        assert all(p[0] == "spatial" for p in columns[:spatial])
        assert all(p[0] == "spectral" for p in columns[spatial:])
        # The fit's blocks and the built columns are the oracle's, in the order of the columns.
        reference = unchunked_representation(hop, cw, small_images)
        np.testing.assert_array_equal(np.concatenate(list(saab.representation_blocks(pooled, cw)), axis=1), reference)
        np.testing.assert_array_equal(features, reference)

    def test_zero_images(self, small_images):
        hop, _, cw = lgsqe.fit_representation(small_images, 3, 2)
        empty = lgsqe.ImageSet(np.empty((0, 16, 16, 1), dtype=np.float32), "real")
        features = build_all(empty, hop, cw)
        assert features.shape == (0, len(representation_columns(hop, cw)))

    def test_deterministic(self, small_images):
        a, pooled_a, cw_a = lgsqe.fit_representation(small_images, 3, 2)
        b, pooled_b, cw_b = lgsqe.fit_representation(small_images, 3, 2)
        assert pooled_a.tobytes() == pooled_b.tobytes()
        fa = build_all(small_images, a, cw_a)
        fb = build_all(small_images, b, cw_b)
        np.testing.assert_array_equal(fa, fb)

    def test_finite_values_enforced(self, small_images):
        hop, pooled, cw = lgsqe.fit_representation(small_images, 3, 2)
        features = build_all(small_images, hop, cw)
        assert np.isfinite(features).all()
        columns = representation_columns(hop, cw)
        pooled[3, 0] = np.nan  # the first spatial column, and the map of channel 0
        for picked in (columns[:1], [col for col in columns if col[:2] == ("spectral", 0)][:1]):
            with pytest.raises(ValueError, match="non-finite"):
                saab.select_columns(pooled, hop, picked, kernel_rows(cw, picked))


class TestSelectedColumns:
    """The selected-column path against the full representation, bit for bit."""

    @pytest.fixture(scope="class", params=[(16, 1), (32, 3)], ids=["16x16x1", "32x32x3"])
    def fitted(self, request):
        side, channels = request.param
        hop, _, cw = lgsqe.fit_representation(random_image_set(240, side=side, channels=channels, seed=side), 3, 1)
        every = representation_columns(hop, cw)
        rng = np.random.default_rng(side)
        spectral_start = sum(col[0] == "spatial" for col in every)
        indices = np.concatenate([
            rng.choice(spectral_start, size=40, replace=False),
            rng.choice(np.arange(spectral_start, len(every)), size=20, replace=False),
        ])
        rng.shuffle(indices)
        columns = tuple(every[i] for i in indices)
        read = {col[1] for col in columns if col[0] == "spectral"}
        assert 1 < len(read) < hop.num_channels  # some channels' maps are read, some are not
        # The selected spectral columns' kernel rows, as a fitted pipeline keeps them.
        return hop, cw, kernel_rows(cw, columns), indices, columns, side, channels

    @pytest.mark.parametrize("count", [0, 1, 25])
    def test_equals_full_representation_columns(self, fitted, count):
        hop, cw, kernels, indices, columns, side, channels = fitted
        images = random_image_set(count, side=side, channels=channels, seed=100 + count)
        full = unchunked_representation(hop, cw, images)
        np.testing.assert_array_equal(build_all(images, hop, cw), full)
        selected = lgsqe.build_representation(images, hop, columns, kernels)
        assert selected.shape == (count, len(columns))
        np.testing.assert_array_equal(selected, full[:, indices])

    def test_column_of_a_dropped_sub_model_rejected(self, fitted):
        # A spectral column is computed only from its given kernel row: one row per spectral column.
        hop, cw, _, _, columns, side, channels = fitted
        image, size = random_image_set(1, side=side, channels=channels), hop.pooled_side**2
        with pytest.raises(GeometryError, match="spectral kernels"):
            lgsqe.build_representation(image, hop, [("spectral", 0, 0)], np.empty((0, size)))
        with pytest.raises(GeometryError, match="spectral kernels"):
            lgsqe.build_representation(image, hop, [("spectral", 0, 0)], cw[0][:1, :-1])
        spatial = [col for col in columns if col[0] == "spatial"]
        built = lgsqe.build_representation(image, hop, spatial, np.empty((0, size)))
        assert built.shape == (1, len(spatial))

    def test_stored_row_equals_the_full_sub_model(self, fitted):
        hop, cw, _, _, _, side, channels = fitted
        images = random_image_set(9, side=side, channels=channels, seed=7)
        pooled = lgsqe.abs_max_pool(lgsqe.apply_saab(hop, images))
        for ch, matrix in enumerate(cw):
            maps = np.ascontiguousarray(pooled[..., ch].reshape(images.count, hop.pooled_side**2))
            block = np.einsum("ij,kj->ik", maps, matrix)
            for comp in {0, len(matrix) // 2, len(matrix) - 1}:
                row = matrix[comp : comp + 1]
                column = lgsqe.build_representation(images, hop, [("spectral", ch, comp)], row)
                assert column.tobytes() == np.ascontiguousarray(block[:, comp : comp + 1]).tobytes()

    @pytest.mark.parametrize(
        "column", [("spatial", 99, 0, 0), ("spatial", 0, 0, -1), ("spectral", 0, 10**6), ("pooled", 0)]
    )
    def test_unknown_column_rejected(self, fitted, column):
        hop, _, _, _, _, side, channels = fitted
        kernels = np.zeros((int(column[0] == "spectral"), hop.pooled_side**2))
        with pytest.raises(GeometryError, match="no representation column"):
            lgsqe.build_representation(random_image_set(1, side=side, channels=channels), hop, [column], kernels)


def smooth_image_set(count, side, channels, seed):
    """Random images blurred along both axes, so the patch spectrum decays and
    its eigenvalues are well separated."""
    rng = np.random.default_rng(seed)
    noise = rng.random((count, side + 4, side + 4, channels))
    blurred = sum(noise[:, i : i + side, j : j + side] * w for i, j, w in [(0, 0, 1), (1, 2, 2), (4, 1, 1), (2, 4, 3)])
    return lgsqe.ImageSet((blurred / 7).astype(np.float32))


def chunk_images(side, images_per_chunk, patch_size=3, stride=1):
    """A CHUNK_ROWS value that puts ``images_per_chunk`` whole images in a chunk."""
    grid_n = (side - patch_size) // stride + 1
    return images_per_chunk * grid_n * grid_n + grid_n  # not a multiple of an image's rows


@pytest.mark.filterwarnings("ignore:only .* patches for dimension")  # c/w fits on few samples
class TestStreamedFirstHop:
    """The first hop runs in chunks of whole images; results must not show the seams."""

    @pytest.mark.parametrize("side,channels", [(16, 1), (32, 3)], ids=["16x16x1", "32x32x3"])
    def test_chunk_seams_bit_exact(self, monkeypatch, side, channels):
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(side, 3))
        images = random_image_set(11, side=side, channels=channels, seed=side + 1)
        assert [chunk.count for _, chunk in saab._image_chunks(images, 3, 1)] == [3, 3, 3, 2]
        hop, pooled, cw = lgsqe.fit_representation(images, 3, 1)
        trained = unchunked_representation(hop, cw, images)
        np.testing.assert_array_equal(np.concatenate(list(saab.representation_blocks(pooled, cw)), axis=1), trained)
        every = representation_columns(hop, cw)
        assert len(every) == trained.shape[1]
        indices = np.random.default_rng(side).choice(len(every), size=50, replace=False)
        columns = [every[i] for i in indices]
        # The fit's selected columns, read from its pooled matrix a few rows at a time.
        np.testing.assert_array_equal(saab.select_columns(pooled, hop, columns, kernel_rows(cw, columns)), trained[:, indices])

        fresh = random_image_set(10, side=side, channels=channels, seed=side + 2)
        reference = unchunked_representation(hop, cw, fresh)
        np.testing.assert_array_equal(build_all(fresh, hop, cw), reference)
        selected = lgsqe.build_representation(fresh, hop, columns, kernel_rows(cw, columns))
        np.testing.assert_array_equal(selected, reference[:, indices])

    @pytest.mark.parametrize("side,channels", [(16, 1), (32, 3)], ids=["16x16x1", "32x32x3"])
    def test_streamed_moments_match_dense_covariance(self, monkeypatch, side, channels):
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(side, 4))
        images = smooth_image_set(30, side, channels, seed=side)
        hop, _, _ = lgsqe.fit_representation(images, 3, 1, energy_threshold=1.0)
        data = lgsqe.extract_patches(images, 3, 1).data
        dim = data.shape[1]
        dc = np.full(dim, 1.0 / np.sqrt(dim))
        eigvals, eigvecs = np.linalg.eigh(np.cov(data - np.outer(data @ dc, dc), rowvar=False))
        order = np.argsort(eigvals)[::-1][: dim - 1]  # drop the null DC direction
        kernels = eigvecs[:, order].T * np.sign(eigvecs[0, order])[:, None]  # first entries are far from 0 here
        assert hop.num_channels == dim
        assert np.max(np.abs(hop.eigenvalues - eigvals[order])) <= 1e-10 * eigvals.max()
        assert np.max(np.abs(hop.ac_kernels - kernels)) <= 1e-10


@pytest.mark.filterwarnings("ignore:only .* patches for dimension")
class TestBoundedMemory:
    """Quadrupling the image count grows the peak only by what must be kept per image."""

    SIDE, CHANNELS, COUNT = 32, 3, 24

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(self.SIDE, 4))

    def images(self, count):
        return random_image_set(count, side=self.SIDE, channels=self.CHANNELS, seed=count)

    def test_fit(self):
        def fit(count):
            images = self.images(count)
            (hop, pooled, cw), peak = traced_peak(lambda: lgsqe.fit_representation(images, 3, 1))
            # A c/w kernel matrix keeps up to one row per image, at most the map size.
            return peak, pooled.nbytes + sum(matrix.nbytes for matrix in cw)

        small_peak, small_kept = fit(self.COUNT)
        large_peak, large_kept = fit(4 * self.COUNT)
        assert large_peak - small_peak <= 1.1 * (large_kept - small_kept)

    def test_build_selected_columns(self):
        hop, _, cw = lgsqe.fit_representation(self.images(64), 3, 1)
        every = representation_columns(hop, cw)
        spectral = [col for col in every if col[0] == "spectral" and col[1] == 5][:10]
        columns = [col for col in every if col[0] == "spatial"][::7] + spectral
        kernels = kernel_rows(cw, columns)
        map_size = hop.pooled_side**2
        # Kept whole: the result, and the read channel's map and its selected coefficients.
        per_image = (len(columns) + map_size + len(spectral)) * 8

        def build(count):
            images = self.images(count)
            _, peak = traced_peak(lambda: lgsqe.build_representation(images, hop, columns, kernels))
            return peak

        assert build(4 * self.COUNT) - build(self.COUNT) <= 1.1 * 3 * self.COUNT * per_image


THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
import lgsqe
from lgsqe.saab import _project

pixels, kernels, maps = (np.load(path) for path in sys.argv[1:4])
hop, pooled, _ = lgsqe.fit_representation(lgsqe.ImageSet(pixels), 3, 1)
for part in (hop.ac_kernels, hop.eigenvalues, pooled, _project(maps, kernels)):
    print(hashlib.sha256(np.ascontiguousarray(part).tobytes()).hexdigest())
"""


@pytest.mark.filterwarnings("ignore:only .* patches for dimension")
def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    """First-hop kernels and eigenvalues, the pooled responses, and a c/w
    kernel matrix fitted here, at 32x32x3 with patch 3 and stride 1: the same
    bytes with 1 and 2 BLAS threads. (The c/w fit's eigh is left out.)"""
    images = random_image_set(160, side=32, channels=3, seed=5)
    hop, pooled, cw = lgsqe.fit_representation(images, 3, 1)
    channel = max(range(len(cw)), key=lambda ch: len(cw[ch]))
    maps = pooled.reshape(images.count, hop.pooled_side**2, hop.num_channels)[..., channel]
    paths = [tmp_path / name for name in ("pixels.npy", "kernels.npy", "maps.npy")]
    for path, array in zip(paths, (images.pixels, cw[channel], maps)):
        np.save(path, array)

    def digests(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(lgsqe.__path__[0]), env.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT, *map(str, paths)], env=env, capture_output=True, text=True, check=True
        )
        return run.stdout.split()

    one = digests("1")
    assert len(one) == 4
    assert one == digests("2")
