import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgsqe
from lgsqe import saab
from lgsqe.errors import GeometryError
from lgsqe.saab import PatchMatrix, kernel_rows

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

    def test_dc_only_hop_round_trips(self):
        """A hop with no AC kernel and no c/w widths survives its JSON record;
        keys outside the fields are ignored and a missing one is a KeyError."""
        model = lgsqe.fit_saab(patch_matrix_from_array(np.full((50, 9), 3.25)))
        doc = json.loads(json.dumps(model.to_dict()))
        clone = saab.SaabModel.from_dict({**doc, "unknown": 1})
        assert clone.ac_kernels.shape == (0, 9) and clone.cw_widths == ()
        assert clone.eigenvalues.tobytes() == model.eigenvalues.tobytes()
        assert clone.to_dict() == doc
        del doc["stride"]
        with pytest.raises(KeyError, match="stride"):
            saab.SaabModel.from_dict(doc)

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

    def test_sign_fix_matches_per_row_rule(self):
        crafted = np.array(
            [
                [1e-12, -1e-10, -0.5, 0.7],  # leading near-zeros, then a negative entry: flipped
                [1e-12, -1e-10, 5e-10, 0.0],  # every entry tiny: kept
                [-0.3, 0.2, 0.1, 0.9],  # negative first entry: flipped
                [0.0, 2e-9, -0.8, 0.1],  # first entry above 1e-9 is positive: kept
            ]
        )
        rng = np.random.default_rng(5)
        noise = rng.normal(size=(40, 4)) * rng.choice([1e-12, 1.0], size=(40, 4))
        for rows in (crafted, noise):
            kernels = np.asfortranarray(rows)  # the layout of the transposed eigenvectors
            expected = rows.copy()
            for row in expected:  # the per-row rule
                nz = np.nonzero(np.abs(row) > 1e-9)[0]
                if nz.size and row[nz[0]] < 0:
                    row *= -1.0
            fixed = saab._fix_signs(kernels)
            assert fixed.flags.c_contiguous
            assert fixed.tobytes() == expected.tobytes()
            assert np.array_equal(kernels, rows)
        assert np.sign(saab._fix_signs(crafted)[:, 2]).tolist() == [1.0, 1.0, -1.0, -1.0]

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
        # The fitted hop records one c/w width per channel; an index past them is refused.
        hop, _, cw = lgsqe.fit_representation(small_images, 3, 2)
        assert hop.cw_widths == tuple(len(matrix) for matrix in cw) and len(cw) == hop.num_channels
        with pytest.raises(GeometryError):
            lgsqe.build_representation(small_images, hop, [hop.width], cw[0][:1])

    def test_cw_widths_checked(self, small_images):
        # One width per channel, each at least 1 and at most the map size (the most rows a kernel matrix can have).
        hop, _, _ = lgsqe.fit_representation(small_images, 3, 2)
        size = hop.pooled_side**2
        assert replace(hop, cw_widths=()).width == hop.spatial_width  # a hop fitted without c/w widths
        for widths in (hop.cw_widths[:-1], hop.cw_widths + (1,), (0,) + hop.cw_widths[1:], (size + 1,) + hop.cw_widths[1:]):
            with pytest.raises(GeometryError, match="cw_widths"):
                replace(hop, cw_widths=widths)

    def test_geometry_checked(self, small_images):
        # Positive integers only, and a patch no larger than the image: a zero stride divided by zero in pooled_side.
        hop = replace(lgsqe.fit_representation(small_images, 3, 2)[0], cw_widths=())
        bad = {"stride": 0, "input_side": -16, "patch_size": 17, "channels": True}
        for name, value in (*bad.items(), ("stride", 2.0)):
            with pytest.raises(GeometryError, match="saab geometry"):
                replace(hop, **{name: value})


def build_all(images, hop, cw):
    indices = np.arange(hop.width)
    return lgsqe.build_representation(images, hop, indices, kernel_rows(hop, cw, indices))


def assert_ranking_blocks(pooled, cw, reference):
    """The fit's ranking blocks are ``pooled``, then each channel's map times
    its transposed kernel matrix as one BLAS product on one thread, bit for
    bit; they match the einsum columns ``reference`` (which scoring and the
    trees read) to rounding."""
    blocks = list(saab.representation_blocks(pooled, cw))
    with saab._one_blas_thread():
        expected = [pooled] + [np.ascontiguousarray(pooled[:, ch :: len(cw)]) @ k.T for ch, k in enumerate(cw)]
    assert len(blocks) == len(expected)
    for got, want in zip(blocks, expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # A coefficient near 0 is a difference of terms near the largest ones, so its rounding is bounded in those units.
    scale = np.abs(reference).max(initial=0.0)
    np.testing.assert_allclose(np.concatenate(blocks, axis=1), reference, rtol=1e-12, atol=1e-12 * scale)


def spectral_indices(hop, channel):
    """The indices of a channel's c/w coefficients, in row order."""
    start = hop.spatial_width + sum(hop.cw_widths[:channel])
    return np.arange(start, start + hop.cw_widths[channel])


class TestBuildRepresentation:
    def test_width_matches_provenance_arithmetic(self, small_images):
        hop, pooled, cw = lgsqe.fit_representation(small_images, 3, 2)
        features = build_all(small_images, hop, cw)
        patches_grid = (16 - 3) // 2 + 1
        pooled_side = patches_grid // 2
        spatial = pooled_side * pooled_side * hop.num_channels
        spectral = sum(len(matrix) for matrix in cw)
        assert features.shape == (small_images.count, spatial + spectral) and hop.width == spatial + spectral
        assert pooled.shape == (small_images.count, spatial) and hop.spatial_width == spatial
        # The built columns are the oracle's, in index order, and the fit's ranking blocks agree with them.
        reference = unchunked_representation(hop, cw, small_images)
        assert_ranking_blocks(pooled, cw, reference)
        np.testing.assert_array_equal(features, reference)
        # The decode rule: a spatial index is a flat pooled position, a spectral one a row of the stacked c/w matrices.
        maps = lgsqe.abs_max_pool(lgsqe.apply_saab(hop, small_images))
        stacked, channel_of = np.concatenate(cw), np.repeat(np.arange(hop.num_channels), hop.cw_widths)
        for j in range(hop.width):
            if j < spatial:
                cell, ch = divmod(j, hop.num_channels)
                expected = maps[:, cell // pooled_side, cell % pooled_side, ch]
            else:
                flat = np.ascontiguousarray(maps[..., channel_of[j - spatial]].reshape(small_images.count, -1))
                expected = np.einsum("ij,kj->ik", flat, stacked[j - spatial : j - spatial + 1])[:, 0]
            assert reference[:, j].tobytes() == expected.tobytes()

    def test_zero_images(self, small_images):
        hop, _, cw = lgsqe.fit_representation(small_images, 3, 2)
        empty = lgsqe.ImageSet(np.empty((0, 16, 16, 1), dtype=np.float32), "real")
        features = build_all(empty, hop, cw)
        assert features.shape == (0, hop.width)

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
        pooled[3, 0] = np.nan  # the first spatial column, and the map of channel 0
        for picked in (np.array([0]), spectral_indices(hop, 0)[:1]):
            with pytest.raises(ValueError, match="non-finite"):
                saab.select_columns(pooled, hop, picked, kernel_rows(hop, cw, picked))


class TestSelectedColumns:
    """The selected-column path against the full representation, bit for bit."""

    @pytest.fixture(scope="class", params=[(16, 1), (32, 3)], ids=["16x16x1", "32x32x3"])
    def fitted(self, request):
        side, channels = request.param
        hop, _, cw = lgsqe.fit_representation(random_image_set(240, side=side, channels=channels, seed=side), 3, 1)
        rng = np.random.default_rng(side)
        start = hop.spatial_width
        indices = np.concatenate([
            rng.choice(start, size=40, replace=False),
            rng.choice(np.arange(start, hop.width), size=20, replace=False),
        ])
        rng.shuffle(indices)
        read = set(np.repeat(np.arange(hop.num_channels), hop.cw_widths)[indices[indices >= start] - start])
        assert 1 < len(read) < hop.num_channels  # some channels' maps are read, some are not
        # The selected spectral columns' kernel rows, as a fitted pipeline keeps them.
        return hop, cw, kernel_rows(hop, cw, indices), indices, side, channels

    @pytest.mark.parametrize("count", [0, 1, 25])
    def test_equals_full_representation_columns(self, fitted, count):
        hop, cw, kernels, indices, side, channels = fitted
        images = random_image_set(count, side=side, channels=channels, seed=100 + count)
        full = unchunked_representation(hop, cw, images)
        np.testing.assert_array_equal(build_all(images, hop, cw), full)
        selected = lgsqe.build_representation(images, hop, indices, kernels)
        assert selected.shape == (count, len(indices))
        assert selected.tobytes() == full[:, indices].tobytes()

    def test_column_of_a_dropped_sub_model_rejected(self, fitted):
        # A spectral column is computed only from its given kernel row: one row per spectral column.
        hop, cw, _, indices, side, channels = fitted
        image, size = random_image_set(1, side=side, channels=channels), hop.pooled_side**2
        with pytest.raises(GeometryError, match="spectral kernels"):
            lgsqe.build_representation(image, hop, [hop.spatial_width], np.empty((0, size)))
        with pytest.raises(GeometryError, match="spectral kernels"):
            lgsqe.build_representation(image, hop, [hop.spatial_width], cw[0][:1, :-1])
        spatial = indices[indices < hop.spatial_width]
        built = lgsqe.build_representation(image, hop, spatial, np.empty((0, size)))
        assert built.shape == (1, len(spatial))

    def test_stored_row_equals_the_full_sub_model(self, fitted):
        hop, cw, _, _, side, channels = fitted
        images = random_image_set(9, side=side, channels=channels, seed=7)
        pooled = lgsqe.abs_max_pool(lgsqe.apply_saab(hop, images))
        for ch, matrix in enumerate(cw):
            maps = np.ascontiguousarray(pooled[..., ch].reshape(images.count, hop.pooled_side**2))
            block = np.einsum("ij,kj->ik", maps, matrix)
            for comp in {0, len(matrix) // 2, len(matrix) - 1}:
                row = matrix[comp : comp + 1]
                column = lgsqe.build_representation(images, hop, spectral_indices(hop, ch)[comp : comp + 1], row)
                assert column.tobytes() == np.ascontiguousarray(block[:, comp : comp + 1]).tobytes()

    @pytest.mark.parametrize("column", [("zero", -1), ("width", 0), ("width", 10**6), ("bare width", 0)])
    def test_unknown_column_rejected(self, fitted, column):
        # An index is refused below 0 and from the width on; a hop without c/w widths has no spectral index.
        hop, _, _, _, side, channels = fitted
        base, offset = column
        if base == "bare width":
            hop = replace(hop, cw_widths=())
        index = (0 if base == "zero" else hop.width) + offset
        kernels = np.zeros((int(index >= hop.spatial_width), hop.pooled_side**2))
        with pytest.raises(GeometryError, match="column indices must lie in"):
            lgsqe.build_representation(random_image_set(1, side=side, channels=channels), hop, [index], kernels)


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

    @pytest.mark.parametrize(
        "side,channels,patch_size,stride",
        [(16, 1, 3, 1), (28, 1, 5, 2), (32, 3, 3, 1)],
        ids=["16x16x1", "28x28x1", "32x32x3"],
    )
    def test_chunk_seams_bit_exact(self, monkeypatch, side, channels, patch_size, stride):
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(side, 3, patch_size, stride))
        images = random_image_set(11, side=side, channels=channels, seed=side + 1)
        assert [chunk.count for _, chunk, _, _ in saab._chunks(images, patch_size, stride)] == [3, 3, 3, 2]
        hop, pooled, cw = lgsqe.fit_representation(images, patch_size, stride)
        trained = unchunked_representation(hop, cw, images)
        assert_ranking_blocks(pooled, cw, trained)
        assert hop.width == trained.shape[1]
        indices = np.random.default_rng(side).choice(hop.width, size=50, replace=False)
        kernels = kernel_rows(hop, cw, indices)
        # The fit's selected columns, read from its pooled matrix a few rows at a time.
        np.testing.assert_array_equal(saab.select_columns(pooled, hop, indices, kernels), trained[:, indices])

        fresh = random_image_set(10, side=side, channels=channels, seed=side + 2)
        reference = unchunked_representation(hop, cw, fresh)
        np.testing.assert_array_equal(build_all(fresh, hop, cw), reference)
        selected = lgsqe.build_representation(fresh, hop, indices, kernels)
        np.testing.assert_array_equal(selected, reference[:, indices])

    @pytest.mark.parametrize(
        "side,channels,patch_size,stride", [(28, 1, 5, 2), (32, 3, 3, 1)], ids=["28x28x1", "32x32x3"]
    )
    def test_pooled_chunks_read_whole_channels_and_windows(self, monkeypatch, side, channels, patch_size, stride):
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(side, 3, patch_size, stride))
        images = random_image_set(8, side=side, channels=channels, seed=side + 3)
        hop = lgsqe.fit_saab(lgsqe.extract_patches(images, patch_size, stride))
        k1, size = hop.num_channels, hop.pooled_side**2
        pooled = lgsqe.abs_max_pool(lgsqe.apply_saab(hop, images)).reshape(images.count, size, k1)
        whole = np.array([k1 - 1, 0])  # in any order
        # Windows of channel 0 and k1 - 1, read from their maps, and of every other channel, from corner patches.
        drawn = np.random.default_rng(side).permutation(k1 * size)[:60]
        windows = np.concatenate([[0, k1 - 1, 1, k1 * size - 1], drawn])
        cell, channel = np.divmod(windows, k1)
        assert np.isin(channel, whole).any() and not np.isin(channel, whole).all()
        chunks = list(saab._pooled_chunks(images, hop, whole, windows))
        assert [lo for lo, _, _ in chunks] == [0, 3, 6]
        maps, values = (np.concatenate([chunk[i] for chunk in chunks]) for i in (1, 2))
        assert maps.tobytes() == pooled[:, :, whole].tobytes()
        assert values.tobytes() == pooled[:, cell, channel].tobytes()

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
class TestReusedBuffers:
    """Each pass over the images writes every chunk into the same patch and response buffers."""

    @pytest.mark.parametrize(
        "side,channels,patch_size,stride",
        [(16, 1, 3, 1), (28, 1, 5, 2), (32, 3, 3, 1)],
        ids=["16x16x1", "28x28x1", "32x32x3"],
    )
    def test_extract_into_buffer_equals_allocating_call(self, monkeypatch, side, channels, patch_size, stride):
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(side, 3, patch_size, stride))
        images = random_image_set(8, side=side, channels=channels, seed=side)
        whole = lgsqe.extract_patches(images, patch_size, stride)
        rows = whole.grid_n**2
        counts = []
        for lo, chunk, patches, _ in saab._chunks(images, patch_size, stride):
            got = lgsqe.extract_patches(chunk, patch_size, stride, out=patches)
            assert got.data is patches and (got.image_count, got.grid_n) == (chunk.count, whole.grid_n)
            assert patches.tobytes() == lgsqe.extract_patches(chunk, patch_size, stride).data.tobytes()
            assert patches.tobytes() == whole.data[lo * rows : (lo + chunk.count) * rows].tobytes()
            counts.append(chunk.count)
        assert counts == [3, 3, 2]  # the last chunk is ragged
        empty = lgsqe.ImageSet(np.empty((0, side, side, channels), dtype=np.float32))
        [(_, chunk, patches, _)] = saab._chunks(empty, patch_size, stride)
        got = lgsqe.extract_patches(chunk, patch_size, stride, out=patches)
        assert got.data is patches and patches.shape == (0, whole.patch_dim)
        for bad in (np.empty((rows, whole.patch_dim)), np.empty((8 * rows, whole.patch_dim), dtype=np.float32)):
            with pytest.raises(ValueError, match="out must be"):
                lgsqe.extract_patches(images, patch_size, stride, out=bad)

    def test_chunk_size_does_not_change_bytes(self, small_pipeline, monkeypatch):
        model, _, generated = small_pipeline
        columns = (generated, model.saab, model.indices, model.spectral_kernels)
        built = []
        for images_per_chunk in (80, 1, 7):  # the whole set, one image, and 11 chunks of 7 then one of 3
            monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(16, images_per_chunk, 3, 2))
            built.append((lgsqe.build_representation(*columns).tobytes(), model.score_images(generated).tobytes()))
        assert built[1] == built[0] and built[2] == built[0]

    def test_streams_share_no_buffer(self, small_pipeline, monkeypatch):
        model, real, generated = small_pipeline
        monkeypatch.setattr(saab, "CHUNK_ROWS", chunk_images(16, 7, 3, 2))
        # Every other channel whole, and every third window: read from those maps and from corner patches.
        whole, windows = np.arange(model.saab.num_channels)[::2], np.arange(model.saab.spatial_width)[::3]

        def stream(images):
            return saab._pooled_chunks(images, model.saab, whole, windows)

        one_after_the_other = [
            [(lo, maps.copy(), values.copy()) for lo, maps, values in stream(images)] for images in (real, generated)
        ]
        alternately = [[], []]
        for first, second in zip(stream(real), stream(generated), strict=True):
            alternately[0].append(first)
            alternately[1].append(second)
        # Compared only once every block is out, so a block that a later chunk of either stream overwrote would show.
        for want, got in zip(one_after_the_other, alternately):
            assert [lo for lo, _, _ in got] == [lo for lo, _, _ in want] == list(range(0, 80, 7))
            for (_, *g), (_, *w) in zip(got, want):
                assert [a.tobytes() for a in g] == [a.tobytes() for a in w]


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

    def test_fit_pools_each_chunk_without_the_last_block(self, monkeypatch):
        """The fit's pooling pass peaks while a chunk pools, and every chunk
        starts to pool with no more traced memory alive than the first: the
        last chunk's block of pooled values, once copied into the pooled
        matrix, is freed (held, it adds one block from the second chunk on)."""
        alive = []
        pool = saab.abs_max_pool

        def spy(responses):
            alive.append(tracemalloc.get_traced_memory()[0])
            return pool(responses)

        monkeypatch.setattr(saab, "abs_max_pool", spy)
        images = self.images(5 * 4)
        (hop, _, _), _ = traced_peak(lambda: lgsqe.fit_representation(images, 3, 1))
        block = 4 * hop.spatial_width * 8
        assert len(alive) == 5
        assert max(alive) - alive[0] <= block / 2, (max(alive) - alive[0]) / block

    def test_build_selected_columns(self):
        hop, _, cw = lgsqe.fit_representation(self.images(64), 3, 1)
        spectral = spectral_indices(hop, 5)[:10]
        indices = np.concatenate([np.arange(hop.spatial_width)[::7], spectral])
        kernels = kernel_rows(hop, cw, indices)
        map_size = hop.pooled_side**2
        # Kept whole: the result, and the read channel's map and its selected coefficients.
        per_image = (len(indices) + map_size + len(spectral)) * 8

        def build(count):
            images = self.images(count)
            _, peak = traced_peak(lambda: lgsqe.build_representation(images, hop, indices, kernels))
            return peak

        assert build(4 * self.COUNT) - build(self.COUNT) <= 1.1 * 3 * self.COUNT * per_image

    def test_build_peak_is_one_chunk_of_buffers(self):
        """Building columns over five chunks peaks, above its result and the
        pooled values it keeps per chunk, at about one chunk's patch and
        response buffers: every chunk is written into the same two. Measured
        1.24 of them here (numpy 2.4) with every response projected, and 1.25
        with only the read map's responses in the buffer and the corner
        patches of the other windows, at most a patch buffer, alongside; fresh
        buffers per chunk, with the last chunk's responses alive while the
        next are made, measured 1.56."""
        hop, _, cw = lgsqe.fit_representation(self.images(64), 3, 1)
        spectral = spectral_indices(hop, 2)[:10]
        indices = np.concatenate([np.arange(hop.spatial_width)[::7], spectral])
        kernels = kernel_rows(hop, cw, indices)
        images = self.images(4 * 4 + 2)
        features, peak = traced_peak(lambda: lgsqe.build_representation(images, hop, indices, kernels))
        rows = 4 * (self.SIDE - 2) ** 2  # four images of 30 x 30 patches per chunk
        buffers = rows * (hop.patch_dim + hop.num_channels) * 8
        kept = features.nbytes + 4 * (hop.pooled_side**2 + len(indices)) * 8
        assert peak - kept <= 1.4 * buffers, (peak - kept) / buffers


def test_fit_pins_one_blas_thread(monkeypatch, small_images):
    """The fit's ``eigh`` runs on one OpenBLAS thread, and the caller's count
    is back when the fit returns."""
    calls = saab._openblas_threads()
    if calls is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, set_ = calls
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: seen.append(get()) or eigh(matrix))
    before = get()
    set_(2)
    try:
        lgsqe.fit_representation(small_images, 3, 2)
        after = get()
    finally:
        set_(before)
    assert seen and set(seen) == {1} and after == 2


THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
import lgsqe
from lgsqe.saab import _fit_kernels, _project, representation_blocks

pixels, kernels, maps, block = (np.load(path) for path in sys.argv[1:5])
with np.load(sys.argv[5]) as saved:
    cw = [saved[f"arr_{ch}"] for ch in range(len(saved.files))]
hop, pooled, fitted = lgsqe.fit_representation(lgsqe.ImageSet(pixels), 3, 1)
spectral = np.concatenate(list(representation_blocks(pooled, cw))[1:], axis=1)
cw_kernels, cw_eigenvalues = _fit_kernels([block], 1.0, None)
projected = _project(maps[:, None], kernels)
for part in (hop.ac_kernels, hop.eigenvalues, pooled, projected, spectral, cw_kernels, cw_eigenvalues, *fitted):
    print(hashlib.sha256(np.ascontiguousarray(part).tobytes()).hexdigest())
"""


@pytest.mark.filterwarnings("ignore:only .* patches for dimension")
def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    """At 32x32x3 with patch 3 and stride 1, the same bytes with 1 and 2 BLAS
    threads: first-hop kernels and eigenvalues, the pooled responses, a c/w
    kernel matrix's columns, every ranking block of full-width (225-row) c/w
    kernel matrices, the c/w kernels fitted on 144 of a channel's 225 map
    values, and every c/w kernel matrix of the full fit. Run threaded, the
    ranking products, the Gram product at 144 values and ``eigh`` at 225 give
    other bytes at 2 threads than at 1."""
    images = random_image_set(160, side=32, channels=3, seed=5)
    hop, pooled, cw = lgsqe.fit_representation(images, 3, 1)
    channel = max(range(len(cw)), key=lambda ch: len(cw[ch]))
    maps = pooled.reshape(images.count, hop.pooled_side**2, hop.num_channels)[..., channel]
    arrays = (images.pixels, cw[channel], maps, np.ascontiguousarray(maps[:, :144]))
    paths = [tmp_path / name for name in ("pixels.npy", "kernels.npy", "maps.npy", "block.npy")]
    for path, array in zip(paths, arrays):
        np.save(path, array)
    paths.append(tmp_path / "cw.npz")
    np.savez(paths[-1], *saab.fit_cw_saab(pooled.reshape(images.count, hop.pooled_side, hop.pooled_side, -1), 1.0))

    def digests(threads):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(lgsqe.__path__[0]), env.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT, *map(str, paths)], env=env, capture_output=True, text=True, check=True
        )
        return run.stdout.split()

    one = digests("1")
    assert len(one) == 7 + len(cw)
    assert one == digests("2")
