"""Dense 2D grid primitives shared by every stage of the model.

All maps are float64 numpy arrays indexed ``[row, col]``. One geometric
convention is used throughout the package: ``x`` is the column axis
(rightward), ``y`` is the row axis (downward), and an angle ``a`` denotes
the unit direction ``(dx, dy) = (cos a, sin a)``. So ``a = 0`` points
right and ``a = pi/2`` points down the rows.

Correlation and pooling take ``(..., rows, cols)`` stacks of maps.
Every filter bank of the model (the quadrature carriers, the
center-surround kernels and the spectral-anisotropy bank) goes through
:func:`correlate_stack`, which always uses the FFT and stays within
about 1e-12 relative of a direct sum. It takes one of two layouts:
one map against a whole bank, passed once, not tiled to the bank's
shape, and transformed once; or one map per kernel, a stack whose
leading axes equal the bank's. The ring kernels go through its sibling
:func:`correlate_pairs`, which takes one ``(N, 2, kh, kw)`` bank of
kernel pairs and ``(P, T, S, rows, cols)`` map pairs, loops once over
the kernel pairs, and subtracts the two correlations of each map pair
against its kernel pair, adding them only when asked, before one
inverse transform each; both share the padding, the FFT length and the
spectra.

A pyramid is a plain list of levels, index 0 the finest (native), and
:func:`pyramid_levels` is its one builder.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import fft, sparse

SQRT2 = math.sqrt(2.0)


def _as_stack(values, name: str) -> np.ndarray:
    """Coerce to a non-empty ``(..., rows, cols)`` float64 array. Finiteness
    is checked where data enters: ``channels.as_image`` and the file
    readers."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 2 or arr.size == 0:
        raise ValueError(
            f"{name} must be a non-empty (..., rows, cols) array, got shape {arr.shape}"
        )
    return arr


def _fft_plan(maps_shape, kernels_shape):
    """The edge-pad widths, the FFT shape and the crop of the full output
    for correlating maps of ``maps_shape`` with odd kernels of
    ``kernels_shape``, both ``(..., rows, cols)``, after checking that the
    kernels are odd and smaller than the maps."""
    rows, cols = maps_shape[-2:]
    kh, kw = kernels_shape[-2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dimensions must be odd, got {(kh, kw)}")
    if kh >= rows or kw >= cols:
        raise ValueError(
            f"kernel {(kh, kw)} must be smaller than input {(rows, cols)} in both axes"
        )
    pad = ((kh // 2, kh // 2), (kw // 2, kw // 2))
    fshape = [fft.next_fast_len(n + 2 * (k - 1), True) for n, k in ((rows, kh), (cols, kw))]
    crop = (slice(kh - 1, kh - 1 + rows), slice(kw - 1, kw - 1 + cols))
    return pad, fshape, crop


def _map_spectrum(values, pad, fshape):
    return fft.rfftn(np.pad(values, pad, mode="edge"), fshape, axes=(0, 1))


def _kernel_spectrum(kernel, fshape):
    # correlation == convolution with the kernel flipped in both axes
    return fft.rfftn(kernel[::-1, ::-1], fshape, axes=(0, 1))


def correlate_stack(maps, kernels) -> np.ndarray:
    """Correlate maps with a ``(..., kh, kw)`` bank of odd-sized kernels,
    replicating edge values, in one of two layouts: one ``(rows, cols)``
    map against every kernel, or a ``(..., rows, cols)`` stack with one
    map per kernel, whose leading axes equal the bank's. Any other stack
    is refused. The output is ``(..., rows, cols)`` with the bank's
    leading axes.

    Output ``[i]`` matches its map's dimensions: the kernel is anchored
    at its center cell, so ``out[i][r, c] = sum_{u,v} kernel[u, v] *
    padded[r + u, c + v]`` with the pad width equal to the kernel
    half-size on every border. The method is always the FFT, within
    about 1e-12 relative of that direct sum; a 1x1 kernel is an exact
    scale. One pass over the bank, in C order, pads and transforms each
    kernel once, and each map once: a single map before the pass, one
    map per kernel beside its kernel. Each output takes one inverse, so
    one map against an (8, 2) bank takes 1 + 16 forward transforms and
    16 inverses, and (8, rows, cols) maps against an (8, kh, kw) bank
    8 + 8 and 8.
    The product is map spectrum times kernel spectrum, both named: an
    unnamed kernel spectrum lets numpy reuse the temporary and multiply
    in the other order, which moves the last bits.
    """
    maps = _as_stack(maps, "input")
    kernels = _as_stack(kernels, "kernel")
    pad, fshape, crop = _fft_plan(maps.shape, kernels.shape)
    bank = kernels.shape[:-2]
    shared = maps.ndim == 2
    if not shared and maps.shape[:-2] != bank:
        raise ValueError(f"maps {maps.shape} must be one map or one per kernel of {kernels.shape}")
    if kernels.shape[-2:] == (1, 1):
        return maps * kernels
    out = np.empty(bank + maps.shape[-2:])
    spectrum = _map_spectrum(maps, pad, fshape) if shared else None
    for index in np.ndindex(bank):
        if not shared:  # each map beside its kernel
            spectrum = _map_spectrum(maps[index], pad, fshape)
        k_spectrum = _kernel_spectrum(kernels[index], fshape)
        out[index] = fft.irfftn(spectrum * k_spectrum, fshape, axes=(0, 1))[crop]
    return out


def correlate_pairs(maps, kernels, with_sum: bool) -> np.ndarray:
    """Correlate the map pairs of a ``(P, T, S, rows, cols)`` stack with an
    ``(N, 2, kh, kw)`` bank of odd-sized kernel pairs, and subtract (and,
    ``with_sum``, also add) the two correlations of each pair before one
    inverse transform.

    Pair ``(p, i)`` reads its first member ``maps[p, i, 0]`` through
    ``kernels[i, 0]`` and its second from the mirrored first index,
    ``maps[P-1-p, i, -1]``, through ``kernels[i, 1]``. ``T`` is N, or 1
    where every kernel pair reads the same maps, and ``S`` is 2, or 1
    where both kernels of a pair read one map. Any other shape is
    refused. The output is ``(1 + with_sum, P, N, rows, cols)``::

        out[0, p, i] = maps[p, i, 0] (*) kernels[i, 0]
                       - maps[P-1-p, i, -1] (*) kernels[i, 1]

    and ``out[1, p, i]`` the same with ``+``, with ``(*)`` the
    correlation of :func:`correlate_stack`, through the same padding,
    FFT length and named spectra, each output within about 1e-12
    relative of the direct sums. One loop over the kernel pairs
    transforms each kernel once, and the maps once per pair when T = N,
    once in all when T = 1. Each output takes one inverse, ``P`` per
    kernel pair for the differences and as many again for the sums: the
    differences alone take half the inverses of correlating every member
    with its kernel.
    """
    maps = _as_stack(maps, "input")
    kernels = _as_stack(kernels, "kernel")
    if (kernels.shape[1:-2] != (2,) or maps.ndim != 5
            or maps.shape[1] not in (1, len(kernels)) or maps.shape[2] > 2):
        raise ValueError(f"map pairs {maps.shape} must be (P, 1 or N, 1 or 2, rows, cols) "
                         f"against (N, 2, kh, kw) kernel pairs, got {kernels.shape}")
    pad, fshape, crop = _fft_plan(maps.shape, kernels.shape)
    out = np.empty((1 + with_sum, len(maps), len(kernels)) + maps.shape[-2:])
    # the two products of a pair
    first, second = (np.empty((fshape[0], fshape[1] // 2 + 1), complex) for _ in range(2))
    for i, kernel_pair in enumerate(kernels):
        if i < maps.shape[1]:  # T = 1: the first pair's spectra serve every pair
            spectra = None  # free the last maps' spectra before the next
            spectra = [[_map_spectrum(m, pad, fshape) for m in pair] for pair in maps[:, i]]
        # one at a time, so at most three kernel spectra are alive
        first_k = _kernel_spectrum(kernel_pair[0], fshape)
        second_k = _kernel_spectrum(kernel_pair[1], fshape)
        for p in range(len(maps)):
            np.multiply(spectra[p][0], first_k, out=first)
            np.multiply(spectra[-1 - p][-1], second_k, out=second)
            if with_sum:
                out[1, p, i] = fft.irfftn(first + second, fshape, axes=(0, 1))[crop]
            np.subtract(first, second, out=first)
            out[0, p, i] = fft.irfftn(first, fshape, axes=(0, 1))[crop]
    return out


def _sample_coords(n_out: int, n_in: int) -> np.ndarray:
    # Corner-aligned mapping: output corners land on input corners. A
    # single-cell output samples the center of the source axis.
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out) * ((n_in - 1) / (n_out - 1))


@functools.lru_cache(maxsize=1024)
def _axis_matrix(n_out: int, n_in: int) -> sparse.csr_array:
    """Linear interpolation along one axis: two nonzeros per output row."""
    coords = _sample_coords(n_out, n_in)
    lo = np.minimum(np.floor(coords).astype(int), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = coords - lo
    out_index = np.arange(n_out)
    matrix = sparse.csr_array(
        (
            np.concatenate([1.0 - frac, frac]),
            (np.concatenate([out_index, out_index]), np.concatenate([lo, hi])),
        ),
        shape=(n_out, n_in),
    )
    matrix.eliminate_zeros()
    return matrix


@functools.lru_cache(maxsize=256)
def _row_operator(level_rows: tuple, rows: int) -> sparse.csr_array:
    """The row matrices of all levels, side by side."""
    return sparse.hstack([_axis_matrix(rows, n) for n in level_rows], format="csr")


def pool_resampled(levels, rows: int, cols: int) -> np.ndarray:
    """``sum_j resample(levels[j] -> rows x cols)``, the resample
    bilinear and corner-aligned.

    Every level is a ``(..., r_j, c_j)`` array with the same leading
    shape, and the sum is taken over the last two axes of each map. Per
    map, each level is interpolated along its columns by its own cached
    sparse matrix; the results are stacked and one product with the
    cached row matrices of all levels writes the output. This
    reassociates the sum of separately resampled levels, which is exact
    to about 1e-15 relative.
    """
    levels = [_as_stack(level, "input") for level in levels]
    if not levels:
        raise ValueError("pooling needs at least one level")
    lead = levels[0].shape[:-2]
    for level in levels:
        if level.shape[:-2] != lead:
            raise ValueError(
                f"every level must have leading shape {lead}, got {level.shape}"
            )
    if rows < 1 or cols < 1:
        raise ValueError(f"target dimensions must be positive, got {rows}x{cols}")
    row_op = _row_operator(tuple(level.shape[-2] for level in levels), rows)
    col_ops = [_axis_matrix(cols, level.shape[-1]) for level in levels]
    out = np.empty(lead + (rows, cols))
    for idx in np.ndindex(lead):
        block = np.vstack([(op @ level[idx].T).T for op, level in zip(col_ops, levels)])
        out[idx] = row_op @ block
    return out


def pool_operators_at(level_dims, rows: int, cols: int, cells):
    """:func:`pool_resampled` restricted to some target cells.

    ``level_dims`` are the ``(r_j, c_j)`` of the levels and ``cells`` a
    ``(T, 2)`` array of target ``(row, col)``. Returns ``(level_cells,
    r1, r2)``: per level the sorted flat indices ``row * c_j + col`` of
    the level cells the bilinear pool reads, and two csr operators. With
    ``gathered`` the values at those cells, level by level and
    cells-major (``(M, n)`` for ``n`` maps), ``r2 @ (r1 @ gathered)``
    equals ``pool_resampled`` at the target cells bit for bit.

    ``r1`` holds the column taps, one row per (level, level row, target
    column), and ``r2`` the row taps. Both products run on the
    same csr kernel as :func:`pool_resampled`, with the coefficients of
    the same cached matrices in their stored order, so each output sums
    the same terms in the same order.
    """
    level_dims = [tuple(int(n) for n in d) for d in level_dims]
    if not level_dims:
        raise ValueError("pooling needs at least one level")
    if rows < 1 or cols < 1:
        raise ValueError(f"target dimensions must be positive, got {rows}x{cols}")
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    if cells.size and (
        cells.min() < 0 or cells[:, 0].max() >= rows or cells[:, 1].max() >= cols
    ):
        raise ValueError(f"target cells must lie inside {rows}x{cols}")
    level_rows = tuple(r for r, _ in level_dims)
    offsets = np.cumsum((0,) + level_rows)

    # r2: target t sums row_op[row_t, g] * block[g, col_t] over the row
    # taps g (level and level row, stacked) in row_op's stored order
    row_op = _row_operator(level_rows, rows)
    taps = row_op[cells[:, 0]]  # csr row indexing keeps the stored order
    # intermediates sorted by (level, level row, target column)
    keys, inter = np.unique(
        taps.indices * cols + np.repeat(cells[:, 1], np.diff(taps.indptr)), return_inverse=True
    )
    r2 = sparse.csr_array((taps.data, inter, taps.indptr), shape=(len(cells), len(keys)))

    # r1: intermediate (j, row, col) sums the column taps of level j
    inter_rows, inter_cols = keys // cols, keys % cols
    bounds = np.searchsorted(inter_rows, offsets)
    level_cells, data, indices, counts = [], [], [], []
    seen = 0
    for j, (_, level_cols) in enumerate(level_dims):
        part = slice(bounds[j], bounds[j + 1])
        taps = _axis_matrix(cols, level_cols)[inter_cols[part]]
        counts.append(np.diff(taps.indptr))
        flat = np.repeat(inter_rows[part] - offsets[j], counts[-1]) * level_cols + taps.indices
        unique, where = np.unique(flat, return_inverse=True)
        level_cells.append(unique)
        data.append(taps.data)
        indices.append(seen + where)
        seen += len(unique)
    r1 = sparse.csr_array(
        (
            np.concatenate(data),
            np.concatenate(indices),
            np.concatenate([[0], np.cumsum(np.concatenate(counts))]),
        ),
        shape=(len(keys), seen),
    )
    return level_cells, r1, r2


def check_pyramid_factor(factor: float) -> None:
    """Refuse a pyramid scale factor other than sqrt(2) or 2."""
    if not any(math.isclose(factor, f, rel_tol=1e-9) for f in (SQRT2, 2.0)):
        raise ValueError(f"pyramid_factor must be sqrt(2) or 2, got {factor}")


def next_level_dims(rows: int, cols: int, factor: float):
    return math.ceil(rows / factor), math.ceil(cols / factor)


def pyramid_levels(base, n_scales: int, factor: float = SQRT2):
    """Yield the ``n_scales`` levels of a map, or of a ``(..., rows,
    cols)`` stack of maps, finest first, each downsampled by ``factor``
    (sqrt(2) or 2) from the one before along the last two axes.

    A pyramid is the plain list of these levels. The generator holds
    only the level it last yielded, so a consumer that keeps a level's
    product and drops the level holds one raw level at a time, and no
    caller need keep the base beside it.
    """
    level = _as_stack(base, "base")
    del base
    if n_scales < 1:
        raise ValueError(f"n_scales must be >= 1, got {n_scales}")
    check_pyramid_factor(factor)
    yield level
    for _ in range(n_scales - 1):
        level = pool_resampled([level], *next_level_dims(*level.shape[-2:], factor))
        yield level
