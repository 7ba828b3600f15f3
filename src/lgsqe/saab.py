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

The first hop streams over the images in chunks of whole images of about
``CHUNK_ROWS`` patch rows. Fitting accumulates the patch moments chunk by
chunk; applying the hop extracts, projects and pools one chunk at a time.
Fitting and building the representation never hold a patch matrix or response
tensor of the whole set, so their memory grows with the image count only
through the pooled values and columns they keep.

Covariance accumulation deliberately goes through ``np.einsum`` rather than
BLAS matmul: BLAS may split the long contraction axis across threads, which
changes summation order with the thread count and would break byte-identical
refits. The first hop's fit therefore depends on ``CHUNK_ROWS`` (the order in
which chunk moments merge), not on the thread count.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .datasets import ImageSet
from .errors import GeometryError

_ZERO_ENERGY = 1e-12

# Patch rows per first-hop chunk (about 14 MB of float64 at 27 dimensions). A
# chunk holds whole images, at least one.
CHUNK_ROWS = 2**16


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
    ``cw_models`` is set only on a first-hop model returned by
    ``fit_representation`` and holds one sub-model per kept channel, fitted
    on the pooled maps.
    """

    ac_kernels: np.ndarray
    eigenvalues: np.ndarray
    input_side: int
    channels: int
    patch_size: int
    stride: int
    cw_models: tuple["SaabModel", ...] | None = None

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
    data = np.ascontiguousarray(windows, dtype=np.float64).reshape(n_img * grid_n * grid_n, -1)
    return PatchMatrix(data, n_img, grid_n, patch_size, stride, channels, side)


def _image_chunks(images: ImageSet, patch_size: int, stride: int) -> Iterator[tuple[int, ImageSet]]:
    """Consecutive runs of whole images, about ``CHUNK_ROWS`` patch rows each,
    with the index of their first image. An empty set is one empty chunk."""
    grid_n = max(1, (images.side - patch_size) // max(1, stride) + 1)
    step = max(1, CHUNK_ROWS // (grid_n * grid_n))
    for lo in range(0, max(images.count, 1), step):
        yield lo, ImageSet(images.pixels[lo : lo + step], images.provenance)


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
    patches: PatchMatrix | Iterable[PatchMatrix],
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
) -> SaabModel:
    """Fit DC/AC kernels on a patch sample, given whole or as consecutive blocks.

    The covariance (1/(n-1) normalization) of the DC-removed, mean-centered
    patches is eigendecomposed inside the DC-orthogonal subspace, which keeps
    every AC kernel exactly orthogonal to the DC kernel even for rank-deficient
    input. Projecting a raw patch onto a basis of that subspace removes its DC
    response, so each block is projected, centered on its own mean, and its
    moments are merged into the running ones in block order with the
    Chan-Golub-LeVeque pairwise update. A ``PatchMatrix`` is one block.
    """
    blocks = [patches] if isinstance(patches, PatchMatrix) else patches
    first, count = None, 0
    for block in blocks:
        data = block.data
        if not np.isfinite(data).all():
            raise ValueError("patches contain non-finite values")
        if first is None:
            first, basis = block, _complement_basis(block.patch_dim)  # (dim, dim-1)
            mean, m2 = np.zeros(basis.shape[1]), np.zeros((basis.shape[1], basis.shape[1]))
        rows = data.shape[0]
        if rows == 0:
            continue
        projected = data @ basis
        block_mean = projected.mean(axis=0)
        projected -= block_mean
        delta, total = block_mean - mean, count + rows
        mean = mean + delta * (rows / total)
        m2 = m2 + np.einsum("ij,ik->jk", projected, projected) + np.outer(delta, delta) * (count * rows / total)
        count = total
    if count == 0:
        raise ValueError("cannot fit a Saab model on zero patches")
    dim = first.patch_dim
    if count < dim:
        warnings.warn(f"only {count} patches for dimension {dim}; fit proceeds with reduced rank")

    eigvals, eigvecs = np.linalg.eigh(m2 / (count - 1 if count > 1 else 1))
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    kernels = _fix_signs((basis @ eigvecs[:, order]).T)  # (dim-1, dim)

    kept = _kept_ac_count(eigvals, energy_threshold, explicit_channels)
    return SaabModel(
        ac_kernels=kernels[:kept],
        eigenvalues=eigvals,
        input_side=first.input_side,
        channels=first.channels,
        patch_size=first.patch_size,
        stride=first.stride,
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
    rows = np.ascontiguousarray(pooled[..., channel].reshape(n, h2 * w2), dtype=np.float64)  # a view when contiguous
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


def _project(maps: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Each row of ``maps`` projected onto each row of ``kernels``. Unlike a BLAS
    product, ``np.einsum`` on C-contiguous operands gives each coefficient bytes
    that depend only on its two rows (an F-ordered operand sums in another order)."""
    return np.einsum("ij,kj->ik", np.ascontiguousarray(maps), np.ascontiguousarray(kernels))


def apply_cw_saab(models: tuple[SaabModel, ...], pooled: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Concatenate the spectral coefficients of every channel.

    The coefficients are written into ``out`` when it is given (count x total
    component count) and returned.
    """
    if pooled.shape[3] != len(models):
        raise GeometryError(f"pooled tensor has {pooled.shape[3]} channels, model has {len(models)}")
    shape = (pooled.shape[0], sum(model.num_channels for model in models))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise GeometryError(f"output has shape {out.shape}, the coefficients {shape}")
    offset = 0
    for ch, model in enumerate(models):
        rows = _channel_rows(pooled, ch)
        if rows.patch_dim != model.patch_dim:
            raise GeometryError(f"channel {ch}: pooled map size {rows.patch_dim} != fitted size {model.patch_dim}")
        out[:, offset : offset + model.num_channels] = _project(rows.data, model.kernel_matrix())
        offset += model.num_channels
    return out


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
        # min and max propagate NaN, and are infinite if any value is.
        if self.data.size and not (np.isfinite(self.data.min()) and np.isfinite(self.data.max())):
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
) -> tuple[SaabModel, FeatureMatrix]:
    """Fit the full one-hop representation (first-hop Saab + c/w sub-models) and
    return it with the full representation of ``images`` (every column of
    ``representation_layout``).

    Two streamed passes run over the images: the first accumulates the
    first-hop moments, the second applies the fitted hop and pools. The pooled
    tensor feeds both the c/w fits and the representation, so the images are
    pooled once.
    """
    chunks = _image_chunks(images, patch_size, stride)
    hop = fit_saab(
        (extract_patches(chunk, patch_size, stride) for _, chunk in chunks),
        energy_threshold=energy_threshold,
        explicit_channels=explicit_channels,
    )
    n, side, k1 = images.count, hop.pooled_side, hop.num_channels
    spatial = side * side * k1
    pooled = np.empty((n, spatial))
    for lo, block in _pooled_chunks(images, hop, np.arange(spatial)):
        pooled[lo : lo + block.shape[0]] = block
    pooled = pooled.reshape(n, side, side, k1)
    cw = fit_cw_saab(pooled, energy_threshold=energy_threshold, explicit_channels=cw_explicit_channels)
    model = replace(hop, cw_models=cw)
    data = np.empty((n, spatial + sum(sub.num_channels for sub in cw)))
    data[:, :spatial] = pooled.reshape(n, spatial)
    apply_cw_saab(cw, pooled, out=data[:, spatial:])
    return model, FeatureMatrix(data, representation_layout(model))


def _pooled_chunks(images: ImageSet, model: SaabModel, positions: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Pooled first-hop responses at the flat pooled positions ``positions``
    (``(row * pooled_side + col) * K1 + channel``), one chunk of whole images
    at a time: the index of the chunk's first image and a (chunk count x
    len(positions)) block.

    Only the 2x2 windows at ``positions`` are pooled, by ``abs_max_pool``'s
    tournament, so each value equals the full pooled tensor's bit for bit.
    """
    grid_n = (model.input_side - model.patch_size) // model.stride + 1
    if model.pooled_side < 1:
        raise GeometryError(f"need a spatial extent of at least 2 to pool, got {grid_n}x{grid_n}")
    k1 = model.num_channels
    cell, channel = np.divmod(np.asarray(positions, dtype=np.intp), k1)
    row, col = np.divmod(cell, model.pooled_side)
    # corners[a, b, i]: where element (a, b) of window i sits in a chunk's flattened responses.
    offsets = np.array([[0, 1], [grid_n, grid_n + 1]]) * k1
    corners = offsets[:, :, None] + ((2 * row * grid_n + 2 * col) * k1 + channel)
    for lo, chunk in _image_chunks(images, model.patch_size, model.stride):
        responses = apply_saab(model, chunk).reshape(chunk.count, grid_n * grid_n * k1)
        yield lo, abs_max_pool(responses[:, corners]).reshape(chunk.count, corners.shape[2])


def representation_layout(model: SaabModel) -> tuple[tuple, ...]:
    """Provenance of every representation column, in column order: the pooled
    spatial responses, then each channel's spectral block.

    A column is ``("spatial", row, col, channel)``, a pooled first-hop
    response, or ``("spectral", channel, component)``, a coefficient of that
    channel's c/w sub-model.
    """
    side, k1 = model.pooled_side, model.num_channels
    layout = [("spatial", r, c, ch) for r in range(side) for c in range(side) for ch in range(k1)]
    for ch, sub in enumerate(model.cw_models):
        layout.extend(("spectral", ch, comp) for comp in range(sub.num_channels))
    return tuple(layout)


def column_positions(model: SaabModel, columns: Sequence[tuple]) -> list[int]:
    """The flat pooled position ``(row * pooled_side + col) * K1 + channel`` of
    each spatial column and the channel of each spectral column, in column
    order. A column the model cannot produce raises ``GeometryError``; without
    c/w sub-models, a spectral component need only lie below the map size.
    """
    side, k1 = model.pooled_side, model.num_channels
    components = [side * side] * k1 if model.cw_models is None else [sub.num_channels for sub in model.cw_models]
    positions = []
    for col in columns:
        if col[0] == "spatial" and len(col) == 4 and all(0 <= v < n for v, n in zip(col[1:], (side, side, k1))):
            positions.append((col[1] * side + col[2]) * k1 + col[3])
        elif col[0] == "spectral" and len(col) == 3 and 0 <= col[1] < k1 and 0 <= col[2] < components[col[1]]:
            positions.append(col[1])
        else:
            raise GeometryError(f"the model has no representation column {tuple(col)!r}")
    return positions


def spectral_kernels(model: SaabModel, columns: Sequence[tuple]) -> np.ndarray:
    """The c/w kernel row of each spectral column in ``columns``, in column
    order: a (spectral column count, pooled_side**2) array."""
    spectral = [col for col in columns if col[0] == "spectral"]
    if spectral and model.cw_models is None:
        raise GeometryError("the model holds no channel-wise sub-models; pass the spectral kernel rows")
    matrices = {ch: model.cw_models[ch].kernel_matrix() for _, ch, _ in spectral}
    return np.array([matrices[ch][comp] for _, ch, comp in spectral]).reshape(len(spectral), model.pooled_side**2)


def build_representation(
    images: ImageSet, model: SaabModel, columns: Sequence[tuple] | None = None, kernels: np.ndarray | None = None
) -> FeatureMatrix:
    """The representation columns named by ``columns`` (provenance tuples as in
    ``representation_layout``; by default every column).

    ``kernels`` holds one kernel row per spectral column, in column order (by
    default ``spectral_kernels(model, columns)``). Only the pooled windows the
    columns read are computed: those of the spatial columns and the whole maps
    of the channels that a spectral column names. A spectral column is its
    channel's map projected onto its row, so a column's bytes depend only on
    its image and its row, not on the other images or columns of the call.
    """
    columns = representation_layout(model) if columns is None else tuple(columns)
    positions = np.asarray(column_positions(model, columns), dtype=np.intp)
    n, side, k1 = images.count, model.pooled_side, model.num_channels
    is_spatial = np.array([col[0] == "spatial" for col in columns], dtype=bool)
    spatial, spectral = np.flatnonzero(is_spatial), np.flatnonzero(~is_spatial)
    kernels = spectral_kernels(model, columns) if kernels is None else kernels
    channels = positions[spectral]
    read = np.unique(channels)
    # The read channels' maps, one after another, then the spatial columns' windows.
    map_positions = (read[:, None] + np.arange(side * side) * k1).ravel()
    data = np.empty((n, len(columns)))
    maps = np.empty((n, map_positions.size))
    for lo, block in _pooled_chunks(images, model, np.concatenate([map_positions, positions[spatial]])):
        hi = lo + block.shape[0]
        maps[lo:hi] = block[:, : map_positions.size]
        data[lo:hi, spatial] = block[:, map_positions.size :]
    for j, ch in enumerate(read):
        mine = channels == ch
        data[:, spectral[mine]] = _project(maps[:, j * side * side : (j + 1) * side * side], kernels[mine])
    return FeatureMatrix(data, columns)
