"""One-hop Saab representation learning.

The pipeline is: overlapping patch extraction -> Saab transform (constant DC
kernel + PCA-derived AC kernels with energy truncation) -> absolute
max-pooling -> a channel-wise (c/w) Saab over the pooled maps, fitted as one
kernel matrix per channel (DC row first) -> the pooled spatial responses and
each channel's spectral coefficients (its pooled map projected onto its
kernel matrix). No call holds every column of every image: the fit ranks
them block by block, and the fit and scoring assemble the selected ones with
one routine. The first hop and every c/w channel are fitted by one core,
``_fit_kernels``.

A column is named by its index in the representation. With ``S =
pooled_side**2 * K1``, index ``j < S`` is the pooled value at flat position
``j = (row * pooled_side + col) * K1 + channel``, and index ``j >= S`` is row
``j - S`` of the stacked c/w kernel matrices: a coefficient of the channel
that ``SaabModel.cw_widths`` assigns that row to.

Kernels form an orthonormal basis: the DC kernel is the constant unit vector,
and AC kernels are eigenvectors of the covariance of DC-removed, mean-centered
patches, ordered by nonincreasing eigenvalue. Responses are plain projections
of raw patches onto that basis (no mean is subtracted at apply time), so a
constant patch always has zero AC response.

The first hop streams over the images in chunks of whole images of about
``CHUNK_ROWS`` patch rows. Fitting accumulates the patch moments chunk by
chunk; pooling extracts, projects and pools one chunk at a time. One
routine, ``_pooled_chunks``, pools for the fit and for scoring, and is asked
for two kinds of thing by name: whole channels, whose pooled maps it
returns, and single windows (flat pooled positions), whose pooled values it
returns. The fit asks for every channel whole and no window. Scoring asks
for the channels that its spectral columns read whole, and for the windows
of its spatial columns: a window of a whole channel is read from that
channel's map, any other is pooled from its four corner patches. Each pass
over the images (the fit's moments and each ``_pooled_chunks`` stream)
allocates one float64 patch buffer and one buffer for the whole channels'
responses, a chunk's rows each (about 7 MB of patches at 27 dimensions), and
every chunk of the pass is written into them (``extract_patches(..., out=)``
and ``_project(..., out=)``). Fitting and building the representation never
hold a patch matrix or response tensor of the whole set, so their memory
grows with the image count only through the pooled values and columns they
keep; ``apply_saab`` is the whole-set reference.

Every value that scoring and the boosted trees read, first-hop responses
and spectral columns alike, is made by ``_project``, an ``np.einsum`` whose
bytes for one coefficient depend only on its two rows: a BLAS product's
bytes for one row may depend on the other rows of the call, on the thread
count and on the OpenBLAS kernel. Scoring makes no BLAS call, so a model
file gives the same scores, and an image alone the bytes of its row in a
batch, at every thread count and under every OpenBLAS kernel. The cost is
the fit's pooling pass: einsum projects a 2**15-row chunk onto 25 to 27
kernels in 8 to 13 ms, where a BLAS product takes about 2 (one thread of a
2-vCPU Xeon VM). The fit's Gram products (each block's covariance moments,
for the first hop and every c/w channel), the ranking's spectral projections
and the ``eigh`` of each covariance still go through BLAS or LAPACK, on one
thread of numpy's bundled OpenBLAS (``_one_blas_thread``), so refit bytes do
not depend on the thread count. They still depend on the machine and its
OpenBLAS kernel, and on each operand's shape: the first hop's fit depends on
``CHUNK_ROWS``, the order in which chunk moments merge.
"""

from __future__ import annotations

import ctypes
import glob
import warnings
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from itertools import chain

import numpy as np

from .datasets import ImageSet
from .errors import GeometryError, integer_array

_ZERO_ENERGY = 1e-12

# Patch rows per first-hop chunk (about 7 MB of float64 at 27 dimensions). A
# chunk holds whole images, at least one.
CHUNK_ROWS = 2**15


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
    ``fit_cw_saab``), and ``cw_widths`` holds the row count of each channel's
    matrix, or is empty for a hop fitted without them.
    """

    ac_kernels: np.ndarray
    eigenvalues: np.ndarray
    input_side: int
    channels: int
    patch_size: int
    stride: int
    cw_widths: tuple[int, ...] = ()

    def __post_init__(self):
        geometry = {name: getattr(self, name) for name in ("input_side", "channels", "patch_size", "stride")}
        if not all(type(v) is int and v >= 1 for v in geometry.values()) or self.patch_size > self.input_side:
            raise GeometryError(f"saab geometry {geometry} must be positive integers with patch_size <= input_side")
        size = self.pooled_side**2
        if self.cw_widths and (
            len(self.cw_widths) != self.num_channels or not all(1 <= w <= size for w in self.cw_widths)
        ):
            raise GeometryError(
                f"cw_widths {list(self.cw_widths)} must hold one width in [1, {size}] per channel ({self.num_channels})"
            )

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
    def spatial_width(self) -> int:
        """S: the number of pooled values, the indices below the spectral ones."""
        return self.pooled_side**2 * self.num_channels

    @property
    def width(self) -> int:
        """The representation width: the pooled values and every c/w coefficient."""
        return self.spatial_width + sum(self.cw_widths)

    def kernel_matrix(self) -> np.ndarray:
        """(K1, K) projection matrix with the DC kernel as row 0."""
        return np.concatenate([_dc_kernel(self.patch_dim)[None, :], self.ac_kernels], axis=0)

    def to_dict(self) -> dict:
        """The model file's ``saab`` record: every field, arrays as nested lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SaabModel":
        """Inverse of ``to_dict``: each field read by name (a missing one raises ``KeyError``, other keys are
        ignored), the three array fields coerced and checked."""
        values = {f.name: doc[f.name] for f in fields(cls)}
        dim = values["patch_size"] ** 2 * values["channels"]
        values["ac_kernels"] = np.asarray(values["ac_kernels"], dtype=np.float64).reshape(-1, dim)
        values["eigenvalues"] = np.asarray(values["eigenvalues"], dtype=np.float64)
        values["cw_widths"] = tuple(integer_array(values["cw_widths"], "saab.cw_widths").tolist())
        return cls(**values)


def _dc_kernel(dim: int) -> np.ndarray:
    """The constant unit vector; it is the same for every fit of a given dimension."""
    return np.full(dim, 1.0 / np.sqrt(dim))


def extract_patches(images: ImageSet, patch_size: int, stride: int, out: np.ndarray | None = None) -> PatchMatrix:
    """Slice every image into overlapping patch_size^2 x C blocks. The rows are
    written into ``out`` when it is given: a C-contiguous float64 array of the
    result's shape, which the result's ``data`` then is."""
    n_img, side, _, channels = images.pixels.shape
    if patch_size > side:
        raise GeometryError(f"patch size {patch_size} exceeds image side {side}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    grid_n = (side - patch_size) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(images.pixels, (patch_size, patch_size), axis=(1, 2))
    # windows: (n, side-F+1, side-F+1, C, F, F) -> stride the grid, flatten F,F,C
    windows = np.moveaxis(windows[:, ::stride, ::stride], 3, 5)  # (n, grid, grid, F, F, C)
    shape = (n_img * grid_n * grid_n, patch_size * patch_size * channels)
    data = np.empty(shape) if out is None else out
    if data.shape != shape or data.dtype != np.float64 or not data.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    np.copyto(data.reshape(windows.shape), windows)  # casts from the float32 windows, no temporary
    return PatchMatrix(data, n_img, grid_n, patch_size, stride, channels, side)


def _chunks(
    images: ImageSet, patch_size: int, stride: int, channels: int = 0
) -> Iterator[tuple[int, ImageSet, np.ndarray, np.ndarray]]:
    """Consecutive runs of whole images, about ``CHUNK_ROWS`` patch rows each:
    the index of a run's first image, the run, and its rows of one patch
    buffer and of one (rows, ``channels``) response buffer, both allocated once
    and rewritten by every run. An empty set is one empty run."""
    grid_n = max(1, (images.side - patch_size) // max(1, stride) + 1)
    step = max(1, CHUNK_ROWS // (grid_n * grid_n))
    rows = min(step, images.count) * grid_n * grid_n
    patches, responses = np.empty((rows, patch_size * patch_size * images.channels)), np.empty((rows, channels))
    for lo in range(0, max(images.count, 1), step):
        chunk = ImageSet(images.pixels[lo : lo + step], images.provenance)
        used = chunk.count * grid_n * grid_n
        yield lo, chunk, patches[:used], responses[:used]


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


@cache
def _openblas_threads() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS in numpy's wheel,
    looked up once as threadpoolctl does, or ``None`` if it bundles none."""
    for path in glob.glob(f"{np.__path__[0]}.libs/*openblas*") + glob.glob(f"{np.__path__[0]}/.dylibs/*openblas*"):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):  # numpy >= 2.0 wheels, then older ones
            if hasattr(library, f"{prefix}_set_num_threads64_"):
                get, set_ = library[f"{prefix}_get_num_threads64_"], library[f"{prefix}_set_num_threads64_"]
                get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one thread of numpy's bundled OpenBLAS (under another
    BLAS, as is), then restore the count, which is the whole process's."""
    get, set_ = _openblas_threads() or (lambda: 1, lambda count: None)
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


def _fix_signs(kernels: np.ndarray) -> np.ndarray:
    """Flip each kernel so its first entry of magnitude > 1e-9 is positive."""
    large = np.abs(kernels) > 1e-9
    fixed = kernels.copy()  # C order even for a transposed ``kernels``: einsum bytes depend on operand layout
    fixed[large.any(axis=1) & (kernels[np.arange(len(kernels)), large.argmax(axis=1)] < 0)] *= -1.0
    return fixed


def _kept_ac_count(eigenvalues: np.ndarray, energy_threshold: float | None, explicit_channels: int | None) -> int:
    if explicit_channels is None and energy_threshold is None:
        raise ValueError("either an energy threshold or an explicit channel count is required")
    if explicit_channels is not None and not 1 <= explicit_channels <= eigenvalues.size + 1:
        raise ValueError(f"explicit channel count {explicit_channels} outside [1, {eigenvalues.size + 1}]")
    total = float(eigenvalues.sum())
    if total <= _ZERO_ENERGY * max(1, eigenvalues.size):
        return 0  # zero-variance input: keep the DC channel only
    if explicit_channels is not None:
        return explicit_channels - 1
    if energy_threshold >= 1.0:
        return eigenvalues.size
    cumulative = np.cumsum(eigenvalues) / total
    return int(np.searchsorted(cumulative, energy_threshold) + 1)


@_one_blas_thread()
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
    order with the Chan-Golub-LeVeque pairwise update. The projections of all
    blocks share one buffer, grown when a block is longer than every earlier
    one. Every BLAS and LAPACK call runs on one OpenBLAS thread (see
    ``_one_blas_thread``), so the result does not depend on the thread count.
    """
    basis, count, buffer = None, 0, np.empty((0, 0))
    for data in blocks:
        if not np.isfinite(data).all():
            raise ValueError("patches contain non-finite values")
        if basis is None:
            basis = _complement_basis(data.shape[1])  # (dim, dim-1)
            mean, m2 = np.zeros(basis.shape[1]), np.zeros((basis.shape[1], basis.shape[1]))
        rows = data.shape[0]
        if rows == 0:
            continue
        if rows > len(buffer):
            buffer = np.empty((rows, basis.shape[1]))
        projected = np.matmul(data, basis, out=buffer[:rows])
        block_mean = projected.mean(axis=0)
        projected -= block_mean
        delta, total = block_mean - mean, count + rows
        mean = mean + delta * (rows / total)
        m2 = m2 + projected.T @ projected + np.outer(delta, delta) * (count * rows / total)
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
    response in channel 0 and AC responses in eigenvalue order, for the whole
    set at once; ``_pooled_chunks`` streams its pooled values bit for bit.
    """
    _check_geometry(model, images)
    patches = extract_patches(images, model.patch_size, model.stride)
    responses = _project(patches.data[:, None], model.kernel_matrix())
    return responses.reshape(images.count, patches.grid_n, patches.grid_n, model.num_channels)


def _check_geometry(model: SaabModel, images: ImageSet) -> None:
    if images.side != model.input_side or images.channels != model.channels:
        raise GeometryError(
            f"model fitted for {model.input_side}x{model.input_side}x{model.channels} images, "
            f"got {images.side}x{images.side}x{images.channels}"
        )


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


def _project(maps: np.ndarray, kernels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dot products along the last axis of ``maps`` and ``kernels``, their
    other axes broadcast against each other: ``_project(maps[:, None], kernels)``
    projects every row of ``maps`` onto every row of ``kernels``. Written into
    ``out`` when it is given. Unlike a BLAS product, ``np.einsum`` on
    C-contiguous operands gives each coefficient bytes that depend only on its
    two rows, not on the other rows of the call, their shape or where they sit
    in memory (an F-ordered operand sums in another order)."""
    return np.einsum("...j,...j->...", np.ascontiguousarray(maps), np.ascontiguousarray(kernels), out=out)


def fit_representation(
    images: ImageSet,
    patch_size: int,
    stride: int,
    energy_threshold: float | None = 0.99,
    explicit_channels: int | None = None,
    cw_explicit_channels: int | None = None,
) -> tuple[SaabModel, np.ndarray, tuple[np.ndarray, ...]]:
    """Fit the one-hop representation and return ``(hop, pooled, cw)``: the
    first hop with its ``cw_widths``, the pooled first-hop responses of
    ``images`` as an (n, S) matrix (the spatial columns), and one c/w kernel
    matrix per pooled channel (see ``fit_cw_saab``).

    Two streamed passes run over the images: the first accumulates the
    first-hop moments, the second asks ``_pooled_chunks``, the routine that
    scoring pools with, for every channel's whole map, so the fit's pooled
    values are scoring's bytes. The pooled matrix feeds the c/w fits,
    the ranking and the selected columns, so the images are pooled once.
    """
    chunks = _chunks(images, patch_size, stride)
    hop = fit_saab(
        (extract_patches(chunk, patch_size, stride, out=patches) for _, chunk, patches, _ in chunks),
        energy_threshold=energy_threshold,
        explicit_channels=explicit_channels,
    )
    n, side, k1 = images.count, hop.pooled_side, hop.num_channels
    pooled = np.empty((n, hop.spatial_width))
    for lo, maps, _ in _pooled_chunks(images, hop, np.arange(k1), ()):
        pooled[lo : lo + len(maps)] = maps.reshape(len(maps), -1)
        del maps  # freed before the next chunk pools
    cw = fit_cw_saab(pooled.reshape(n, side, side, k1), energy_threshold, cw_explicit_channels)
    return replace(hop, cw_widths=tuple(len(kernels) for kernels in cw)), pooled, cw


def representation_blocks(pooled: np.ndarray, cw: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Every representation column, in index order, as consecutive (n, w)
    blocks: ``pooled`` itself, then each channel's spectral block, projected
    when it is asked for. The blocks only rank the columns, so they take one
    BLAS product each, on one thread; they agree with ``_project``'s columns to rounding."""
    yield pooled
    for ch, kernels in enumerate(cw):
        with _one_blas_thread():
            block = np.ascontiguousarray(pooled[:, ch :: len(cw)]) @ kernels.T
        yield block


def kernel_rows(model: SaabModel, cw: Sequence[np.ndarray], indices: np.ndarray) -> np.ndarray:
    """The c/w kernel row of each spectral index in ``indices``, in index order."""
    indices = np.asarray(indices, dtype=np.intp)
    return np.concatenate(cw)[indices[indices >= model.spatial_width] - model.spatial_width]


def _pooled_chunks(
    images: ImageSet, model: SaabModel, whole: np.ndarray, windows: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Pooled first-hop responses, one chunk of whole images at a time: the
    index of the chunk's first image, the pooled maps of the channels in
    ``whole`` as a (chunk count, pooled_side**2, len(whole)) array, and a
    (chunk count, len(windows)) block of the pooled values at the flat pooled
    positions ``windows`` (``(row * pooled_side + col) * K1 + channel``).

    Only the responses these read are projected, by ``_project`` as
    ``apply_saab`` does: the ``whole`` channels over every patch row in one
    call, and each window of another channel from its four corner patches,
    onto its channel's kernel. A window of a ``whole`` channel is read from
    that channel's map. Both are pooled by ``abs_max_pool``'s tournament, so
    each value equals the full pooled tensor's bit for bit.
    """
    grid_n = (model.input_side - model.patch_size) // model.stride + 1
    whole, cells = np.asarray(whole, dtype=np.intp), grid_n * grid_n
    cell, channel = np.divmod(np.asarray(windows, dtype=np.intp), model.num_channels)
    # Slot of each channel in the maps, -1 for a channel read window by window.
    slot = np.full(model.num_channels, -1)
    slot[whole] = np.arange(whole.size)
    in_map, alone = np.flatnonzero(slot[channel] >= 0), np.flatnonzero(slot[channel] < 0)
    row, col = np.divmod(cell[alone], model.pooled_side)
    # corners[a, b, i]: the grid position of element (a, b) of window alone[i].
    corners = np.array([[0, 1], [grid_n, grid_n + 1]])[:, :, None] + (2 * row * grid_n + 2 * col)
    kernels = model.kernel_matrix()
    alone_kernels = kernels[channel[alone]]
    step = max(1, cells // 4)  # windows per call, so their corner patches take at most a chunk's patch buffer
    for lo, chunk, patches, responses in _chunks(images, model.patch_size, model.stride, whole.size):
        patches = extract_patches(chunk, model.patch_size, model.stride, out=patches).data
        responses = _project(patches[:, None], kernels[whole], out=responses)
        maps = abs_max_pool(responses.reshape(chunk.count, grid_n, grid_n, whole.size))
        maps = maps.reshape(chunk.count, model.pooled_side**2, whole.size)
        values = np.empty((chunk.count, cell.size))
        values[:, in_map] = maps[:, cell[in_map], slot[channel[in_map]]]
        first = np.arange(chunk.count)[:, None, None, None] * cells
        for i in range(0, alone.size, step):
            # The corner patches, (count, 2, 2, windows, patch_dim), live only inside this statement.
            pooled = abs_max_pool(
                _project(np.take(patches, first + corners[:, :, i : i + step], axis=0), alone_kernels[i : i + step])
            )
            values[:, alone[i : i + step]] = pooled.reshape(chunk.count, pooled.shape[3])
        yield lo, maps, values
        del maps, values  # the caller's references are the only ones left while the next chunk pools


def split_columns(model: SaabModel, indices: np.ndarray, kernels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where the columns at ``indices`` come from: the positions in ``indices``
    of the spatial and of the spectral columns, and each spectral column's
    channel. ``GeometryError`` is raised for an index outside the model's
    width and unless ``kernels`` holds one row of the map size per spectral
    column.
    """
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size and (indices.min() < 0 or indices.max() >= model.width):
        raise GeometryError(f"column indices must lie in [0, {model.width}), the model's representation width")
    start = model.spatial_width
    spatial, spectral = np.flatnonzero(indices < start), np.flatnonzero(indices >= start)
    shape = (spectral.size, model.pooled_side**2)
    if np.shape(kernels) != shape:
        raise GeometryError(f"spectral kernels have shape {np.shape(kernels)}, the columns need {shape}")
    channels = np.repeat(np.arange(len(model.cw_widths)), model.cw_widths)[indices[spectral] - start]
    return spatial, spectral, channels


def build_representation(images: ImageSet, model: SaabModel, indices: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """The (n, len(indices)) representation columns at ``indices`` for the
    first hop ``model``.

    ``kernels`` holds, per spectral column in column order, its row of its
    channel's c/w kernel matrix. Only the pooled windows the columns read are
    computed: those of the spatial columns and the whole maps of the channels
    that a spectral column names. A spectral column is its channel's map
    projected onto its row, so a column's bytes depend only on its image and
    its row, not on the other images or columns of the call. No BLAS call is
    made, so neither do they depend on the BLAS thread count or kernel.
    """
    _check_geometry(model, images)
    return _assemble(images.count, model, indices, kernels, partial(_pooled_chunks, images, model))


def select_columns(pooled: np.ndarray, model: SaabModel, indices: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """``build_representation`` of the images whose pooled responses
    ``pooled`` holds, as ``fit_representation`` returns them: the same bytes,
    read from ``pooled`` a few rows at a time instead of pooled again."""
    step = max(1, CHUNK_ROWS // pooled.shape[1])
    maps = pooled.reshape(len(pooled), model.pooled_side**2, model.num_channels)

    def rows(whole, windows):
        for lo in range(0, len(pooled), step):
            yield lo, maps[lo : lo + step][:, :, whole], pooled[lo : lo + step, windows]

    return _assemble(len(pooled), model, indices, kernels, rows)


def _assemble(count: int, model: SaabModel, indices: np.ndarray, kernels: np.ndarray, pooled_at) -> np.ndarray:
    """The columns of ``build_representation`` for ``count`` images, whose
    pooled responses ``pooled_at(whole, windows)`` gives as ``_pooled_chunks``
    does: the maps of the channels that the spectral columns read and the
    spatial columns' windows, in (first image, maps, values) row chunks. Each
    chunk's spectral columns are projected from its own maps. The result is
    column-major, as the boosted trees read it."""
    indices = np.asarray(indices, dtype=np.intp)
    spatial, spectral, channels = split_columns(model, indices, kernels)
    read = np.flatnonzero(np.bincount(channels, minlength=model.num_channels))
    data = np.empty((count, indices.size), order="F")
    # With no columns there is nothing to read, and no patch is extracted.
    for lo, maps, values in pooled_at(read, indices[spatial]) if indices.size else ():
        rows = slice(lo, lo + len(values))
        data[rows, spatial] = values
        for j, ch in enumerate(read):
            mine = channels == ch
            data[rows, spectral[mine]] = _project(maps[:, None, :, j], kernels[mine])
    # min and max propagate NaN, and are infinite if any value is.
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValueError("feature matrix contains non-finite values")
    return data
