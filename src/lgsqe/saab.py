"""One-hop Saab representation learning.

The pipeline is: overlapping patch extraction -> Saab transform (constant DC
kernel + PCA-derived AC kernels with energy truncation) -> absolute
max-pooling -> a per-channel global Saab over the pooled maps -> concatenation
of the pooled spatial responses and the per-channel spectral coefficients into
one feature matrix.

Kernels form an orthonormal basis: the DC kernel is the constant unit vector,
and AC kernels are eigenvectors of the covariance of DC-removed, mean-centered
patches, ordered by nonincreasing eigenvalue. Responses are plain projections
of raw patches onto that basis (no mean is subtracted at apply time), so a
constant patch always has zero AC response.

Covariance accumulation deliberately goes through ``np.einsum`` rather than
BLAS matmul: BLAS may split the long contraction axis across threads, which
changes summation order with the thread count and would break byte-identical
refits.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .datasets import ImageSet
from .errors import GeometryError

_ZERO_ENERGY = 1e-12


@dataclass(frozen=True, eq=False)
class PatchMatrix:
    """Flattened overlapping patches, one row per spatial location per image.

    Rows are ordered image-major, then row-major over the (grid_n x grid_n)
    placement grid. Row dimension is patch_size**2 * channels.
    """

    data: np.ndarray
    image_count: int
    grid_n: int
    patch_size: int
    stride: int
    channels: int
    input_side: int

    @property
    def patch_dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class SaabModel:
    """A fitted Saab transform for one stage.

    ``ac_kernels`` holds the kept AC kernels as rows (may be empty);
    ``eigenvalues`` holds the full AC spectrum, nonincreasing.
    ``cw_models`` is set only on the first-hop model and holds one sub-model
    per kept channel, fitted on the pooled maps; a fitted pipeline replaces
    the sub-models of channels it never reads with ``None``.
    """

    ac_kernels: np.ndarray
    eigenvalues: np.ndarray
    input_side: int
    channels: int
    patch_size: int
    stride: int
    cw_models: tuple["SaabModel | None", ...] | None = None

    @property
    def num_channels(self) -> int:
        """K1: DC plus the kept AC kernels."""
        return 1 + self.ac_kernels.shape[0]

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def pooled_side(self) -> int:
        """Side of the pooled response map: half the patch placement grid."""
        return ((self.input_side - self.patch_size) // self.stride + 1) // 2

    @property
    def dc_kernel(self) -> np.ndarray:
        return _dc_kernel(self.patch_dim)

    def kernel_matrix(self) -> np.ndarray:
        """(K1, K) projection matrix with the DC kernel as row 0."""
        return np.concatenate([self.dc_kernel[None, :], self.ac_kernels], axis=0)


def _dc_kernel(dim: int) -> np.ndarray:
    """The constant unit vector; it is the same for every fit of a given dimension."""
    return np.full(dim, 1.0 / np.sqrt(dim))


def extract_patches(images: ImageSet, patch_size: int, stride: int) -> PatchMatrix:
    """Slice every image into overlapping patch_size^2 x C blocks."""
    n_img, side, _, channels = images.pixels.shape
    if patch_size > side:
        raise GeometryError(f"patch size {patch_size} exceeds image side {side}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    grid_n = (side - patch_size) // stride + 1
    if n_img == 0:
        data = np.empty((0, patch_size * patch_size * channels), dtype=np.float64)
        return PatchMatrix(data, 0, grid_n, patch_size, stride, channels, side)
    windows = np.lib.stride_tricks.sliding_window_view(images.pixels, (patch_size, patch_size), axis=(1, 2))
    # windows: (n, side-F+1, side-F+1, C, F, F) -> stride the grid, flatten F,F,C
    windows = windows[:, ::stride, ::stride]
    windows = np.moveaxis(windows, 3, 5)  # (n, grid, grid, F, F, C)
    data = windows.reshape(n_img * grid_n * grid_n, patch_size * patch_size * channels)
    return PatchMatrix(np.ascontiguousarray(data, dtype=np.float64), n_img, grid_n, patch_size, stride, channels, side)


def _complement_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of the subspace orthogonal to the constant vector.

    Built from the Householder reflection mapping e0 onto the DC kernel, so
    the basis is deterministic.
    """
    v = _dc_kernel(dim) - np.eye(dim)[0]
    norm = np.linalg.norm(v)
    if norm < 1e-15:  # dim == 1: no complement
        return np.empty((dim, 0))
    v /= norm
    house = np.eye(dim) - 2.0 * np.outer(v, v)
    return house[:, 1:]


def _fix_signs(kernels: np.ndarray) -> np.ndarray:
    """Flip each kernel so its first entry of magnitude > 1e-9 is positive."""
    fixed = kernels.copy()
    for row in fixed:
        nz = np.nonzero(np.abs(row) > 1e-9)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return fixed


def _kept_ac_count(eigenvalues: np.ndarray, energy_threshold: float | None, explicit_channels: int | None) -> int:
    if explicit_channels is None and energy_threshold is None:
        raise ValueError("either an energy threshold or an explicit channel count is required")
    total = float(eigenvalues.sum())
    if total <= _ZERO_ENERGY * max(1, eigenvalues.size):
        return 0  # zero-variance input: keep the DC channel only
    if explicit_channels is not None:
        if not 1 <= explicit_channels <= eigenvalues.size + 1:
            raise ValueError(f"explicit channel count {explicit_channels} outside [1, {eigenvalues.size + 1}]")
        return explicit_channels - 1
    if energy_threshold >= 1.0:
        return eigenvalues.size
    cumulative = np.cumsum(eigenvalues) / total
    return int(np.searchsorted(cumulative, energy_threshold) + 1)


def fit_saab(
    patches: PatchMatrix,
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
) -> SaabModel:
    """Fit DC/AC kernels on a patch sample.

    The DC response is removed from every patch, the residuals are mean
    centered, and the covariance (1/(n-1) normalization) is eigendecomposed
    inside the DC-orthogonal subspace, which keeps every AC kernel exactly
    orthogonal to the DC kernel even for rank-deficient input.
    """
    data = patches.data
    n_rows, dim = data.shape
    if n_rows == 0:
        raise ValueError("cannot fit a Saab model on zero patches")
    if not np.isfinite(data).all():
        raise ValueError("patches contain non-finite values")
    if n_rows < dim:
        warnings.warn(f"only {n_rows} patches for dimension {dim}; fit proceeds with reduced rank")

    dc = _dc_kernel(dim)
    dc_coeff = data @ dc
    residual = data - np.outer(dc_coeff, dc)
    patch_mean = residual.mean(axis=0)
    centered = residual - patch_mean

    basis = _complement_basis(dim)  # (dim, dim-1)
    projected = centered @ basis
    denom = n_rows - 1 if n_rows > 1 else 1
    cov = np.einsum("ij,ik->jk", projected, projected) / denom
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    kernels = _fix_signs((basis @ eigvecs[:, order]).T)  # (dim-1, dim)

    kept = _kept_ac_count(eigvals, energy_threshold, explicit_channels)
    return SaabModel(
        ac_kernels=kernels[:kept],
        eigenvalues=eigvals,
        input_side=patches.input_side,
        channels=patches.channels,
        patch_size=patches.patch_size,
        stride=patches.stride,
    )


def apply_saab(model: SaabModel, images: ImageSet) -> np.ndarray:
    """Project every patch onto the fitted basis.

    Returns a (count, grid_n, grid_n, K1) response tensor with the DC
    response in channel 0 and AC responses in eigenvalue order.
    """
    if images.side != model.input_side or images.channels != model.channels:
        raise GeometryError(
            f"model fitted for {model.input_side}x{model.input_side}x{model.channels} images, "
            f"got {images.side}x{images.side}x{images.channels}"
        )
    patches = extract_patches(images, model.patch_size, model.stride)
    responses = patches.data @ model.kernel_matrix().T
    return responses.reshape(images.count, patches.grid_n, patches.grid_n, model.num_channels)


def abs_max_pool(responses: np.ndarray) -> np.ndarray:
    """2x2 non-overlapping pooling keeping the signed element of max magnitude.

    Ties go to the first element in row-major window order, as with
    ``np.argmax`` over the window's magnitudes. An odd trailing row/column is
    dropped.
    """
    n, height, width, channels = responses.shape
    if height < 2 or width < 2:
        raise GeometryError(f"need a spatial extent of at least 2 to pool, got {height}x{width}")
    rows, cols = height // 2 * 2, width // 2 * 2
    top, bottom = responses[:, 0:rows:2], responses[:, 1:rows:2]
    # A pairwise tournament; each comparison is strict, so the earlier element wins a tie.
    upper = _larger_magnitude(top[:, :, 0:cols:2], top[:, :, 1:cols:2])
    lower = _larger_magnitude(bottom[:, :, 0:cols:2], bottom[:, :, 1:cols:2])
    return _larger_magnitude(upper, lower)


def _larger_magnitude(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.where(np.abs(second) > np.abs(first), second, first)


def _channel_rows(pooled: np.ndarray, channel: int) -> PatchMatrix:
    n, h2, w2 = pooled.shape[0], pooled.shape[1], pooled.shape[2]
    rows = pooled[..., channel].reshape(n, h2 * w2).astype(np.float64)
    return PatchMatrix(rows, n, 1, h2, 1, 1, h2)


def fit_cw_saab(
    pooled: np.ndarray,
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
) -> tuple[SaabModel, ...]:
    """Fit one global Saab model per pooled channel.

    Each channel map is treated as a single patch covering the whole pooled
    extent, so the sub-model's PCA runs over training samples. A channel with
    zero variance across samples keeps only its DC coefficient.
    """
    models = []
    for ch in range(pooled.shape[3]):
        rows = _channel_rows(pooled, ch)
        models.append(fit_saab(rows, energy_threshold=energy_threshold, explicit_channels=explicit_channels))
    return tuple(models)


def apply_cw_saab(models: tuple[SaabModel | None, ...], pooled: np.ndarray) -> np.ndarray:
    """Concatenate the spectral coefficients of every channel that has a sub-model.

    A ``None`` entry contributes no columns.
    """
    if pooled.shape[3] != len(models):
        raise GeometryError(f"pooled tensor has {pooled.shape[3]} channels, model has {len(models)}")
    blocks = [np.empty((pooled.shape[0], 0))]
    for ch, model in enumerate(models):
        if model is None:
            continue
        rows = _channel_rows(pooled, ch)
        if rows.patch_dim != model.patch_dim:
            raise GeometryError(f"channel {ch}: pooled map size {rows.patch_dim} != fitted size {model.patch_dim}")
        blocks.append(rows.data @ model.kernel_matrix().T)
    return np.concatenate(blocks, axis=1)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Samples x representation-dimensions matrix with per-column provenance.

    Provenance entries are ("spatial", row, col, channel) for pooled
    responses and ("spectral", channel, component) for c/w Saab coefficients.
    """

    data: np.ndarray
    provenance: tuple[tuple, ...]

    def __post_init__(self):
        if self.data.shape[1] != len(self.provenance):
            raise GeometryError("provenance length must match the column count")
        if self.data.size and not np.isfinite(self.data).all():
            raise ValueError("feature matrix contains non-finite values")

    @property
    def width(self) -> int:
        return self.data.shape[1]


def fit_representation(
    images: ImageSet,
    patch_size: int,
    stride: int,
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
    cw_explicit_channels: int | None = None,
) -> SaabModel:
    """Fit the full one-hop representation (first-hop Saab + c/w sub-models)."""
    patches = extract_patches(images, patch_size, stride)
    hop = fit_saab(patches, energy_threshold=energy_threshold, explicit_channels=explicit_channels)
    pooled = abs_max_pool(apply_saab(hop, images))
    cw = fit_cw_saab(pooled, energy_threshold=energy_threshold, explicit_channels=cw_explicit_channels)
    return replace(hop, cw_models=cw)


def representation_layout(model: SaabModel) -> tuple[tuple, ...]:
    """Provenance of every representation column, in column order: the pooled
    spatial responses, then each channel's spectral block.

    A column is ``("spatial", row, col, channel)``, a pooled first-hop
    response, or ``("spectral", channel, component)``, a coefficient of that
    channel's c/w sub-model.
    """
    if model.cw_models is None or any(sub is None for sub in model.cw_models):
        raise ValueError("model lacks channel-wise sub-models; call fit_representation first")
    side, k1 = model.pooled_side, model.num_channels
    layout = [("spatial", r, c, ch) for r in range(side) for c in range(side) for ch in range(k1)]
    for ch, sub in enumerate(model.cw_models):
        layout.extend(("spectral", ch, comp) for comp in range(sub.num_channels))
    return tuple(layout)


def column_positions(model: SaabModel, columns: Sequence[tuple]) -> tuple[frozenset[int], list[int]]:
    """Where each named column sits in the table ``build_representation`` gathers from.

    The table is the flattened pooled responses followed by the spectral
    blocks of the channels that ``columns`` names, in channel order. Returns
    those channels and the positions. A column the model cannot produce
    raises ``GeometryError``.
    """
    side, k1 = model.pooled_side, model.num_channels
    subs = model.cw_models or ()
    channels = sorted({col[1] for col in columns if col[0] == "spectral" and len(col) == 3})
    start, offset = {}, side * side * k1
    for ch in channels:
        if not 0 <= ch < len(subs) or subs[ch] is None:
            raise GeometryError(f"a spectral column names channel {ch!r}, which has no channel-wise sub-model")
        start[ch] = offset
        offset += subs[ch].num_channels
    positions = []
    for col in columns:
        if col[0] == "spatial" and len(col) == 4 and all(0 <= v < n for v, n in zip(col[1:], (side, side, k1))):
            positions.append((col[1] * side + col[2]) * k1 + col[3])
        elif col[0] == "spectral" and len(col) == 3 and 0 <= col[2] < subs[col[1]].num_channels:
            positions.append(start[col[1]] + col[2])
        else:
            raise GeometryError(f"the model has no representation column {tuple(col)!r}")
    return frozenset(channels), positions


def build_representation(images: ImageSet, model: SaabModel, columns: Sequence[tuple] | None = None) -> FeatureMatrix:
    """The representation columns named by ``columns`` (provenance tuples as in
    ``representation_layout``; by default every column, which fitting needs).

    Only the c/w sub-models of the named channels run, each with its full
    kernel matrix, so a column's value does not depend on which other columns
    are asked for.
    """
    columns = representation_layout(model) if columns is None else tuple(columns)
    channels, positions = column_positions(model, columns)
    pooled = abs_max_pool(apply_saab(model, images))
    n, side, _, k1 = pooled.shape
    kept = tuple(sub if ch in channels else None for ch, sub in enumerate(model.cw_models or ()))
    table = np.concatenate([pooled.reshape(n, side * side * k1), apply_cw_saab(kept, pooled)], axis=1)
    return FeatureMatrix(table[:, positions], columns)
