"""One-hop Saab representation learning.

The pipeline is: overlapping patch extraction -> Saab transform (constant DC
kernel + PCA-derived AC kernels with energy truncation) -> absolute
max-pooling -> a channel-wise (c/w) Saab over the pooled maps, fitted as one
kernel matrix per channel (DC row first) -> the pooled spatial responses and
each channel's spectral coefficients (its pooled map projected onto its
kernel matrix), the columns ``representation_columns`` lists. No call holds
every column of every image: the fit ranks them block by block, and the fit
and scoring assemble the selected ones with one routine. The first hop and
every c/w channel are fitted by one core, ``_fit_kernels``.

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
from dataclasses import dataclass
from functools import partial
from itertools import chain

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
    ``eigenvalues`` holds the full AC spectrum, nonincreasing. This is the
    first hop only; the c/w stage is a plain kernel matrix per channel (see
    ``fit_cw_saab``).
    """

    ac_kernels: np.ndarray
    eigenvalues: np.ndarray
    input_side: int
    channels: int
    patch_size: int
    stride: int

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

    def kernel_matrix(self) -> np.ndarray:
        """(K1, K) projection matrix with the DC kernel as row 0."""
        return np.concatenate([_dc_kernel(self.patch_dim)[None, :], self.ac_kernels], axis=0)


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


def _fit_kernels(
    blocks: Iterable[np.ndarray], energy_threshold: float | None, explicit_channels: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """Fit DC/AC kernels on sample rows given as consecutive (rows x dim) blocks.

    Returns the (kept + 1, dim) kernel matrix, DC row first, and the full AC
    spectrum, nonincreasing. The covariance (1/(n-1) normalization) of the
    DC-removed, mean-centered rows is eigendecomposed inside the DC-orthogonal
    subspace, which keeps every AC kernel exactly orthogonal to the DC kernel
    even for rank-deficient input. Projecting a raw row onto a basis of that
    subspace removes its DC response, so each block is projected, centered on
    its own mean, and its moments are merged into the running ones in block
    order with the Chan-Golub-LeVeque pairwise update.
    """
    basis, count = None, 0
    for data in blocks:
        if not np.isfinite(data).all():
            raise ValueError("patches contain non-finite values")
        if basis is None:
            basis = _complement_basis(data.shape[1])  # (dim, dim-1)
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
    dim = basis.shape[0]
    if count < dim:
        warnings.warn(f"only {count} patches for dimension {dim}; fit proceeds with reduced rank")

    eigvals, eigvecs = np.linalg.eigh(m2 / (count - 1 if count > 1 else 1))
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    kernels = _fix_signs((basis @ eigvecs[:, order]).T)  # (dim-1, dim)

    kept = _kept_ac_count(eigvals, energy_threshold, explicit_channels)
    return np.concatenate([_dc_kernel(dim)[None, :], kernels[:kept]], axis=0), eigvals


def fit_saab(
    patches: PatchMatrix | Iterable[PatchMatrix],
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
) -> SaabModel:
    """Fit the first hop on a patch sample, given whole or as consecutive
    blocks (see ``_fit_kernels``). A ``PatchMatrix`` is one block."""
    blocks = iter([patches] if isinstance(patches, PatchMatrix) else patches)
    first = next(blocks, None)
    if first is None:
        raise ValueError("cannot fit a Saab model on zero patches")
    kernels, eigenvalues = _fit_kernels(
        (block.data for block in chain([first], blocks)), energy_threshold, explicit_channels
    )
    return SaabModel(
        ac_kernels=kernels[1:],
        eigenvalues=eigenvalues,
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


def fit_cw_saab(
    pooled: np.ndarray,
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Fit one c/w kernel matrix per pooled channel: (components, pooled_side**2),
    DC row first.

    Each channel map is treated as a single sample row covering the whole
    pooled extent, so the PCA runs over training samples. A channel with zero
    variance across samples keeps only its DC row.
    """
    n, size = pooled.shape[0], pooled.shape[1] * pooled.shape[2]
    matrices = []
    for ch in range(pooled.shape[3]):
        maps = np.ascontiguousarray(pooled[..., ch].reshape(n, size), dtype=np.float64)  # a view when contiguous
        matrices.append(_fit_kernels([maps], energy_threshold, explicit_channels)[0])
    return tuple(matrices)


def _project(maps: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Each row of ``maps`` projected onto each row of ``kernels``. Unlike a BLAS
    product, ``np.einsum`` on C-contiguous operands gives each coefficient bytes
    that depend only on its two rows (an F-ordered operand sums in another order)."""
    return np.einsum("ij,kj->ik", np.ascontiguousarray(maps), np.ascontiguousarray(kernels))


def fit_representation(
    images: ImageSet,
    patch_size: int,
    stride: int,
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
    cw_explicit_channels: int | None = None,
) -> tuple[SaabModel, np.ndarray, tuple[np.ndarray, ...]]:
    """Fit the one-hop representation and return ``(hop, pooled, cw)``: the
    first hop, the pooled first-hop responses of ``images`` as an (n,
    pooled_side**2 * K1) matrix (the spatial columns of ``representation_columns``),
    and one c/w kernel matrix per pooled channel (see ``fit_cw_saab``).

    Two streamed passes run over the images: the first accumulates the
    first-hop moments, the second applies the fitted hop and pools. The pooled
    matrix feeds the c/w fits, the ranking and the selected columns, so the
    images are pooled once.
    """
    chunks = _image_chunks(images, patch_size, stride)
    hop = fit_saab(
        (extract_patches(chunk, patch_size, stride) for _, chunk in chunks),
        energy_threshold=energy_threshold,
        explicit_channels=explicit_channels,
    )
    n, side, k1 = images.count, hop.pooled_side, hop.num_channels
    pooled = np.empty((n, side * side * k1))
    for lo, block in _pooled_chunks(images, hop, np.arange(pooled.shape[1])):
        pooled[lo : lo + block.shape[0]] = block
    cw = fit_cw_saab(pooled.reshape(n, side, side, k1), energy_threshold, cw_explicit_channels)
    return hop, pooled, cw


def representation_columns(model: SaabModel, cw: Sequence[np.ndarray]) -> tuple[tuple, ...]:
    """Every representation column, in order: the pooled spatial responses,
    column ``("spatial", row, col, channel)`` at pooled position ``(row *
    pooled_side + col) * K1 + channel``, then each channel's spectral block,
    column ``("spectral", channel, component)``: the channel's map projected
    onto row ``component`` of its c/w kernel matrix ``cw[channel]``.
    """
    side, k1 = model.pooled_side, model.num_channels
    spatial = [("spatial", r, c, ch) for r in range(side) for c in range(side) for ch in range(k1)]
    return tuple(spatial + [("spectral", ch, comp) for ch, kernels in enumerate(cw) for comp in range(len(kernels))])


def representation_blocks(pooled: np.ndarray, cw: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """The values of ``representation_columns`` as consecutive (n, w) blocks: ``pooled``
    itself, then each channel's spectral block, projected when it is asked for."""
    yield pooled
    for ch, kernels in enumerate(cw):
        yield _project(pooled[:, ch :: len(cw)], kernels)


def kernel_rows(cw: Sequence[np.ndarray], columns: Sequence[tuple]) -> np.ndarray:
    """The c/w kernel row of each spectral column in ``columns``, in column order."""
    rows = [cw[col[1]][col[2]] for col in columns if col[0] == "spectral"]
    return np.array(rows).reshape(len(rows), cw[0].shape[1])


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


def column_positions(model: SaabModel, columns: Sequence[tuple], kernels: np.ndarray) -> list[int]:
    """The flat pooled position ``(row * pooled_side + col) * K1 + channel`` of
    each spatial column and the channel of each spectral column, in column
    order. ``GeometryError`` is raised for a column the model cannot produce
    (a spectral component must lie below the map size, the most rows a c/w
    kernel matrix can have) and unless ``kernels`` holds one row of the map
    size per spectral column.
    """
    side, k1 = model.pooled_side, model.num_channels
    positions = []
    for col in columns:
        if col[0] == "spatial" and len(col) == 4 and all(0 <= v < n for v, n in zip(col[1:], (side, side, k1))):
            positions.append((col[1] * side + col[2]) * k1 + col[3])
        elif col[0] == "spectral" and len(col) == 3 and 0 <= col[1] < k1 and 0 <= col[2] < side * side:
            positions.append(col[1])
        else:
            raise GeometryError(f"the model has no representation column {tuple(col)!r}")
    shape = (sum(col[0] == "spectral" for col in columns), side * side)
    if np.shape(kernels) != shape:
        raise GeometryError(f"spectral kernels have shape {np.shape(kernels)}, the columns need {shape}")
    return positions


def build_representation(
    images: ImageSet, model: SaabModel, columns: Sequence[tuple], kernels: np.ndarray
) -> np.ndarray:
    """The (n, len(columns)) representation columns named by ``columns``
    (provenance tuples as in ``representation_columns``) for the first hop
    ``model``.

    ``kernels`` holds, per spectral column in column order, its row of its
    channel's c/w kernel matrix. Only the pooled windows the columns read are
    computed: those of the spatial columns and the whole maps of the channels
    that a spectral column names. A spectral column is its channel's map
    projected onto its row, so a column's bytes depend only on its image and
    its row, not on the other images or columns of the call.
    """
    return _assemble(images.count, model, columns, kernels, partial(_pooled_chunks, images, model))


def select_columns(pooled: np.ndarray, model: SaabModel, columns: Sequence[tuple], kernels: np.ndarray) -> np.ndarray:
    """``build_representation`` of the images whose pooled responses
    ``pooled`` holds, as ``fit_representation`` returns them: the same bytes,
    read from ``pooled`` a few rows at a time instead of pooled again."""
    step = max(1, CHUNK_ROWS // pooled.shape[1])

    def rows(positions):
        return ((lo, pooled[lo : lo + step, positions]) for lo in range(0, len(pooled), step))

    return _assemble(len(pooled), model, columns, kernels, rows)


def _assemble(count: int, model: SaabModel, columns: Sequence[tuple], kernels: np.ndarray, pooled_at) -> np.ndarray:
    """The columns of ``build_representation`` for ``count`` images, whose
    pooled responses at flat pooled positions ``pooled_at(positions)`` gives
    as (first image, block) row chunks; each chunk's spectral columns are
    projected from its own maps. The result is column-major, as the boosted
    trees read it."""
    columns = tuple(columns)
    positions = np.asarray(column_positions(model, columns, kernels), dtype=np.intp)
    size, k1 = model.pooled_side**2, model.num_channels
    is_spatial = np.array([col[0] == "spatial" for col in columns], dtype=bool)
    spatial, spectral = np.flatnonzero(is_spatial), np.flatnonzero(~is_spatial)
    channels = positions[spectral]
    read = np.unique(channels)
    # The read channels' maps, one after another, then the spatial columns' windows.
    map_positions = (read[:, None] + np.arange(size) * k1).ravel()
    data = np.empty((count, len(columns)), order="F")
    for lo, block in pooled_at(np.concatenate([map_positions, positions[spatial]])):
        rows = slice(lo, lo + block.shape[0])
        data[rows, spatial] = block[:, map_positions.size :]
        for j, ch in enumerate(read):
            mine = channels == ch
            data[rows, spectral[mine]] = _project(block[:, j * size : (j + 1) * size], kernels[mine])
    # min and max propagate NaN, and are infinite if any value is.
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValueError("feature matrix contains non-finite values")
    return data
