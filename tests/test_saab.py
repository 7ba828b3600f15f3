from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe.errors import GeometryError
from lgsqe.saab import PatchMatrix

from conftest import random_image_set


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


class TestChannelWiseSaab:
    def test_identical_maps_keep_dc_only(self):
        pattern = np.random.default_rng(0).normal(size=(1, 6, 6, 3))
        pooled = np.repeat(pattern, 40, axis=0)
        models = lgsqe.fit_cw_saab(pooled)
        assert all(m.num_channels == 1 for m in models)
        block = lgsqe.apply_cw_saab(models, pooled)
        assert block.shape == (40, 3)

    def test_per_channel_oracle(self):
        rng = np.random.default_rng(5)
        pooled = rng.normal(size=(120, 4, 4, 2))
        models = lgsqe.fit_cw_saab(pooled, energy_threshold=1.0)
        for ch, model in enumerate(models):
            rows = pooled[..., ch].reshape(120, 16)
            oracle_vals, oracle_kernels = brute_force_eigenpairs(rows)
            assert np.max(np.abs(model.eigenvalues - oracle_vals)) < 1e-6
            assert np.max(np.abs(model.ac_kernels - oracle_kernels)) < 1e-6

    def test_explicit_spectral_width(self):
        rng = np.random.default_rng(6)
        pooled = rng.normal(size=(300, 15, 15, 15))
        models = lgsqe.fit_cw_saab(pooled, explicit_channels=10)
        block = lgsqe.apply_cw_saab(models, pooled)
        assert block.shape[1] == 150

    def test_channel_count_mismatch(self):
        pooled = np.random.default_rng(7).normal(size=(10, 4, 4, 2))
        models = lgsqe.fit_cw_saab(pooled)
        with pytest.raises(GeometryError):
            lgsqe.apply_cw_saab(models, pooled[..., :1])


class TestBuildRepresentation:
    def test_width_matches_provenance_arithmetic(self, small_images):
        model = lgsqe.fit_representation(small_images, 3, 2)
        features = lgsqe.build_representation(small_images, model)
        patches_grid = (16 - 3) // 2 + 1
        pooled_side = patches_grid // 2
        spatial = pooled_side * pooled_side * model.num_channels
        spectral = sum(sub.num_channels for sub in model.cw_models)
        assert features.width == spatial + spectral
        assert all(p[0] == "spatial" for p in features.provenance[:spatial])
        assert all(p[0] == "spectral" for p in features.provenance[spatial:])

    def test_zero_images(self, small_images):
        model = lgsqe.fit_representation(small_images, 3, 2)
        empty = lgsqe.ImageSet(np.empty((0, 16, 16, 1), dtype=np.float32), "real")
        features = lgsqe.build_representation(empty, model)
        reference = lgsqe.build_representation(small_images, model)
        assert features.data.shape == (0, reference.width)

    def test_deterministic(self, small_images):
        a = lgsqe.fit_representation(small_images, 3, 2)
        b = lgsqe.fit_representation(small_images, 3, 2)
        fa = lgsqe.build_representation(small_images, a)
        fb = lgsqe.build_representation(small_images, b)
        np.testing.assert_array_equal(fa.data, fb.data)

    def test_finite_values_enforced(self, small_images):
        model = lgsqe.fit_representation(small_images, 3, 2)
        features = lgsqe.build_representation(small_images, model)
        assert np.isfinite(features.data).all()


class TestSelectedColumns:
    """The selected-column path against the full representation, bit for bit."""

    @pytest.fixture(scope="class", params=[(16, 1), (32, 3)], ids=["16x16x1", "32x32x3"])
    def fitted(self, request):
        side, channels = request.param
        model = lgsqe.fit_representation(random_image_set(240, side=side, channels=channels, seed=side), 3, 1)
        layout = lgsqe.representation_layout(model)
        rng = np.random.default_rng(side)
        spectral_start = sum(col[0] == "spatial" for col in layout)
        indices = np.concatenate([
            rng.choice(spectral_start, size=40, replace=False),
            rng.choice(np.arange(spectral_start, len(layout)), size=20, replace=False),
        ])
        rng.shuffle(indices)
        columns = tuple(layout[i] for i in indices)
        read = {col[1] for col in columns if col[0] == "spectral"}
        assert 1 < len(read) < model.num_channels  # some sub-models run, some are dropped
        dropped = replace(model, cw_models=tuple(s if ch in read else None for ch, s in enumerate(model.cw_models)))
        return model, dropped, indices, columns, side, channels

    @pytest.mark.parametrize("count", [0, 1, 25])
    def test_equals_full_representation_columns(self, fitted, count):
        model, dropped, indices, columns, side, channels = fitted
        images = random_image_set(count, side=side, channels=channels, seed=100 + count)
        pooled = lgsqe.abs_max_pool(lgsqe.apply_saab(model, images))
        spatial = pooled.reshape(count, int(np.prod(pooled.shape[1:])))
        full = np.concatenate([spatial, lgsqe.apply_cw_saab(model.cw_models, pooled)], axis=1)
        np.testing.assert_array_equal(lgsqe.build_representation(images, model).data, full)
        selected = lgsqe.build_representation(images, dropped, columns)
        assert selected.data.shape == (count, len(columns)) and selected.provenance == columns
        np.testing.assert_array_equal(selected.data, full[:, indices])

    def test_column_of_a_dropped_sub_model_rejected(self, fitted):
        model, dropped, _, _, side, channels = fitted
        gone = next(ch for ch, sub in enumerate(dropped.cw_models) if sub is None)
        image = random_image_set(1, side=side, channels=channels)
        with pytest.raises(GeometryError):
            lgsqe.build_representation(image, dropped, [("spectral", gone, 0)])

    @pytest.mark.parametrize(
        "column", [("spatial", 99, 0, 0), ("spatial", 0, 0, -1), ("spectral", 0, 10**6), ("pooled", 0)]
    )
    def test_unknown_column_rejected(self, fitted, column):
        model, _, _, _, side, channels = fitted
        with pytest.raises(GeometryError):
            lgsqe.build_representation(random_image_set(1, side=side, channels=channels), model, [column])
