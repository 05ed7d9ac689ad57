"""Dense 2D grid primitives shared by every stage of the model.

All maps are float64 numpy arrays indexed ``[row, col]``. One geometric
convention is used throughout the package: ``x`` is the column axis
(rightward), ``y`` is the row axis (downward), and an angle ``a`` denotes
the unit direction ``(dx, dy) = (cos a, sin a)``. So ``a = 0`` points
right and ``a = pi/2`` points down the rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal, sparse

SQRT2 = math.sqrt(2.0)


def as_map(values, name: str = "map") -> np.ndarray:
    """Coerce to a finite 2D float64 array, raising ValueError otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 2D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _as_stack(values, name: str) -> np.ndarray:
    """Coerce to a finite, non-empty ``(..., rows, cols)`` float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 2 or arr.size == 0:
        raise ValueError(
            f"{name} must be a non-empty (..., rows, cols) array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def correlate2d(input_map, kernel) -> np.ndarray:
    """Correlate a map with an odd-sized kernel, replicating edge values.

    Output matches the input dimensions. The kernel is anchored at its
    center cell, so ``out[r, c] = sum_{u,v} kernel[u, v] *
    padded[r + u, c + v]`` with the pad width equal to the kernel
    half-size on every border.
    """
    arr = as_map(input_map, "input")
    k = as_map(kernel, "kernel")
    kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel dimensions must be odd, got {k.shape}")
    if kh >= arr.shape[0] or kw >= arr.shape[1]:
        raise ValueError(
            f"kernel {k.shape} must be smaller than input {arr.shape} in both axes"
        )
    padded = np.pad(arr, ((kh // 2, kh // 2), (kw // 2, kw // 2)), mode="edge")
    # correlation == convolution with the kernel flipped in both axes
    return signal.convolve(padded, k[::-1, ::-1], mode="valid", method="auto")


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
def _row_operator(level_rows: tuple, rows: int, weights: tuple) -> sparse.csr_array:
    """The weighted row matrices of all levels, side by side."""
    return sparse.hstack(
        [w * _axis_matrix(rows, n) for n, w in zip(level_rows, weights)], format="csr"
    )


def pool_resampled(levels, rows: int, cols: int, weights) -> np.ndarray:
    """``sum_j weights[j] * resample(levels[j] -> rows x cols)``.

    Every level is a ``(..., r_j, c_j)`` array with the same leading
    shape, and the sum is taken over the last two axes of each map. Per
    map, each level is interpolated along its columns by its own cached
    sparse matrix; the results are stacked and one product with the
    cached, weight-scaled row matrices of all levels writes the output.
    This reassociates the sum of separately resampled levels, which is
    exact to about 1e-15 relative.
    """
    levels = [_as_stack(level, "input") for level in levels]
    weights = tuple(float(w) for w in weights)
    if not levels:
        raise ValueError("pooling needs at least one level")
    if len(weights) != len(levels):
        raise ValueError(f"got {len(weights)} weights for {len(levels)} levels")
    lead = levels[0].shape[:-2]
    for level in levels:
        if level.shape[:-2] != lead:
            raise ValueError(
                f"every level must have leading shape {lead}, got {level.shape}"
            )
    if rows < 1 or cols < 1:
        raise ValueError(f"target dimensions must be positive, got {rows}x{cols}")
    row_op = _row_operator(tuple(level.shape[-2] for level in levels), rows, weights)
    col_ops = [_axis_matrix(cols, level.shape[-1]) for level in levels]
    out = np.empty(lead + (rows, cols))
    for idx in np.ndindex(lead):
        block = np.vstack([(op @ level[idx].T).T for op, level in zip(col_ops, levels)])
        out[idx] = row_op @ block
    return out


def resample(input_map, rows: int, cols: int) -> np.ndarray:
    """Bilinearly resample the last two axes to ``rows x cols`` (corner-aligned)."""
    return pool_resampled([input_map], rows, cols, (1.0,))


@dataclass(frozen=True)
class NormalizationParams:
    """Controls the within-map competition normalization."""

    upper: float = 1.0
    local_max_window: int = 3
    plateau_tolerance: float = 1e-9

    def __post_init__(self):
        if self.upper <= 0:
            raise ValueError(f"upper must be positive, got {self.upper}")
        w = self.local_max_window
        if w < 3 or w % 2 == 0:
            raise ValueError(f"local_max_window must be odd and >= 3, got {w}")
        if not 0 <= self.plateau_tolerance < 1:
            raise ValueError(
                f"plateau_tolerance must be in [0, 1), got {self.plateau_tolerance}"
            )


def cross_scale_sum(levels, rows: int, cols: int) -> np.ndarray:
    """Resample every ``(..., r, c)`` level to ``rows x cols`` and add them.

    One :func:`pool_resampled` call with unit weights: the levels are
    pooled in one sparse product per map rather than resampled and
    accumulated one by one, which reassociates the sum (exact to about
    1e-15 relative).
    """
    return pool_resampled(levels, rows, cols, (1.0,) * len(levels))


@dataclass(frozen=True)
class Pyramid:
    """An image pyramid, level index 0 finest (the native map)."""

    levels: tuple
    factor: float

    def __post_init__(self):
        if not self.levels:
            raise ValueError("pyramid needs at least one level")
        if not (
            math.isclose(self.factor, SQRT2, rel_tol=1e-9)
            or math.isclose(self.factor, 2.0, rel_tol=1e-9)
        ):
            raise ValueError(f"pyramid factor must be sqrt(2) or 2, got {self.factor}")

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.levels[k]

    def __iter__(self):
        return iter(self.levels)

    @property
    def dims(self):
        return [lvl.shape for lvl in self.levels]


def next_level_dims(rows: int, cols: int, factor: float):
    return math.ceil(rows / factor), math.ceil(cols / factor)


def build_pyramid(base, n_scales: int, factor: float = SQRT2) -> Pyramid:
    """Decompose a map, or a ``(..., rows, cols)`` stack of maps, into
    ``n_scales`` levels by repeated downsampling of the last two axes."""
    arr = _as_stack(base, "base")
    if n_scales < 1:
        raise ValueError(f"n_scales must be >= 1, got {n_scales}")
    levels = [arr]
    for _ in range(n_scales - 1):
        rows, cols = next_level_dims(*levels[-1].shape[-2:], factor)
        if rows < 1 or cols < 1:
            raise ValueError(
                f"pyramid level would collapse below 1x1 (n_scales={n_scales})"
            )
        levels.append(resample(levels[-1], rows, cols))
    return Pyramid(levels=tuple(levels), factor=factor)
