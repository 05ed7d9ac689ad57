import math
import re

import numpy as np
import pytest
from scipy import signal

from fgo.grid import (
    correlate_pairs,
    correlate_stack,
    next_level_dims,
    pool_operators_at,
    pool_resampled,
    pyramid_levels,
)
from helpers import count_transforms

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- oracles

def oracle_correlate(arr, kernel):
    """Direct sum over the kernel cells with explicit edge replication."""
    rows, cols = arr.shape
    kh, kw = kernel.shape
    out = np.zeros((rows, cols))
    for u in range(kh):
        rr = np.clip(np.arange(rows) + u - kh // 2, 0, rows - 1)
        for v in range(kw):
            cc = np.clip(np.arange(cols) + v - kw // 2, 0, cols - 1)
            out += kernel[u, v] * arr[np.ix_(rr, cc)]
    return out


def oracle_resample(arr, rows, cols):
    """Corner-aligned bilinear resample of one 2D map by direct gathers."""
    h, w = arr.shape
    ry = np.array([(h - 1) / 2.0]) if rows == 1 else np.linspace(0, h - 1, rows)
    cx = np.array([(w - 1) / 2.0]) if cols == 1 else np.linspace(0, w - 1, cols)
    r0 = np.minimum(np.floor(ry).astype(int), h - 1)
    c0 = np.minimum(np.floor(cx).astype(int), w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fy = (ry - r0)[:, None]
    fx = (cx - c0)[None, :]
    top = arr[np.ix_(r0, c0)] * (1 - fx) + arr[np.ix_(r0, c1)] * fx
    bot = arr[np.ix_(r1, c0)] * (1 - fx) + arr[np.ix_(r1, c1)] * fx
    return top * (1 - fy) + bot * fy


def oracle_pool(levels, rows, cols):
    """Per-map loop: resample every level of every map and add."""
    lead = levels[0].shape[:-2]
    out = np.zeros(lead + (rows, cols))
    for idx in np.ndindex(lead):
        for level in levels:
            out[idx] += oracle_resample(level[idx], rows, cols)
    return out


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)



def test_correlate_identity_kernel():
    rng = np.random.default_rng(0)
    arr = rng.random((6, 7))
    out = correlate_stack(arr, np.ones((1, 1)))
    assert np.array_equal(out, arr)


def test_correlate_constant_input_gives_kernel_sum():
    kernel = np.arange(9, dtype=float).reshape(3, 3)
    out = correlate_stack(np.full((5, 5), 2.0), kernel)
    assert np.allclose(out, 2.0 * kernel.sum(), atol=1e-12)


def test_correlate_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        arr = rng.standard_normal((8, 8))
        kernel = rng.standard_normal((3, 3))
        assert np.abs(correlate_stack(arr, kernel) - oracle_correlate(arr, kernel)).max() < 1e-9


def test_correlate_bruteforce_asymmetric_kernel_sizes():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((9, 12))
    kernel = rng.standard_normal((5, 3))
    assert np.abs(correlate_stack(arr, kernel) - oracle_correlate(arr, kernel)).max() < 1e-9


def test_correlate_linearity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        k = rng.standard_normal((5, 5))
        lhs = correlate_stack(2.5 * a + b, k)
        rhs = 2.5 * correlate_stack(a, k) + correlate_stack(b, k)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_correlate_rejects_even_kernel():
    with pytest.raises(ValueError):
        correlate_stack(np.zeros((8, 8)), np.zeros((2, 3)))


def test_correlate_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        correlate_stack(np.zeros((5, 5)), np.zeros((7, 7)))
    with pytest.raises(ValueError):
        correlate_stack(np.zeros((5, 5)), np.zeros((5, 5)))


def scipy_fft_correlate(arr, kernel):
    """One edge-padded pair through ``signal.convolve(method="fft")``."""
    padded = np.pad(arr, [(n // 2, n // 2) for n in kernel.shape], mode="edge")
    return signal.convolve(padded, kernel[::-1, ::-1], mode="valid", method="fft")


# one map against a bank, one map per kernel, and one map and kernel
STACK_LEADS = [((), (8, 2)), ((8, 1), (8, 1)), ((8, 2), (8, 2)), ((), ())]


# (map shape, kernel size); each id names the method scipy's automatic
# choice takes for the padded pair, direct summation for the small one
@pytest.mark.parametrize("map_lead, kernel_lead", STACK_LEADS)
@pytest.mark.parametrize("shape, ksize", [
    pytest.param((5, 6), 3, id="shape0-3-direct"),
    pytest.param((40, 52), 9, id="shape1-9-fft"),
])
def test_correlate_stack_equals_each_pair(map_lead, kernel_lead, shape, ksize):
    rng = np.random.default_rng(11)
    maps = rng.standard_normal(map_lead + shape)
    kernels = rng.standard_normal(kernel_lead + (ksize, ksize))
    got = correlate_stack(maps, kernels)
    assert got.shape == kernel_lead + shape
    wide_maps = np.broadcast_to(maps, kernel_lead + shape)
    for idx in np.ndindex(kernel_lead):
        alone = correlate_stack(wide_maps[idx], kernels[idx])
        assert np.array_equal(got[idx], alone)
        assert_rel_close(got[idx], oracle_correlate(wide_maps[idx], kernels[idx]))


# (forward, inverse) transforms: each map and each kernel once, and one
# inverse per output
@pytest.mark.parametrize("map_lead, kernel_lead, forward, inverse", [
    ((), (8, 2), 1 + 16, 16),  # the intensity map against a quadrature bank
    ((8, 1), (8, 1), 8 + 8, 8),  # the carriers against the oriented center-surround
    ((), (), 1 + 1, 1),  # a feature level against its one difference of Gaussians
])
def test_correlate_stack_transforms_each_map_and_kernel_once(
    monkeypatch, map_lead, kernel_lead, forward, inverse
):
    rng = np.random.default_rng(13)
    maps = rng.standard_normal(map_lead + (20, 24))
    kernels = rng.standard_normal(kernel_lead + (5, 5))
    calls = count_transforms(monkeypatch)
    got = correlate_stack(maps, kernels)
    assert calls == {"rfftn": forward, "irfftn": inverse}
    monkeypatch.undo()
    wide_maps = np.broadcast_to(maps, kernel_lead + (20, 24))
    for idx in np.ndindex(kernel_lead):
        assert np.array_equal(got[idx], correlate_stack(wide_maps[idx], kernels[idx]))


def test_correlate_stack_equals_scipy_at_bsds_size():
    rng = np.random.default_rng(12)
    arr = rng.random((321, 481))
    kernels = rng.standard_normal((3, 13, 13))
    got = correlate_stack(arr, kernels)
    for k, out in zip(kernels, got):
        assert np.array_equal(out, scipy_fft_correlate(arr, k))


def test_correlate_stack_refusals():
    maps = np.zeros((8, 1, 9, 9))
    with pytest.raises(ValueError, match="odd"):
        correlate_stack(maps, np.zeros((8, 2, 2, 3)))
    with pytest.raises(ValueError, match="smaller than input"):
        correlate_stack(maps, np.zeros((8, 2, 9, 9)))
    # neither one map nor one per kernel: a map stack never broadcasts
    for shape in ((1, 9, 9), (8, 9, 9), (1, 2, 9, 9), (8, 2, 1, 9, 9)):
        with pytest.raises(ValueError, match=re.escape(
            f"maps {shape} must be one map or one per kernel of (8, 2, 3, 3)"
        )):
            correlate_stack(np.zeros(shape), np.ones((8, 2, 3, 3)))
    with pytest.raises(ValueError, match="non-empty"):
        correlate_stack(np.zeros(9), np.ones((3, 3)))


# (P, T, S) map pairs against (8, 2) kernel pairs: light and dark
# shared by both sides, one pair per orientation, a map per side
PAIR_LEADS = [(2, 1, 1), (2, 8, 1), (1, 8, 2)]


@pytest.mark.parametrize("map_lead", PAIR_LEADS)
@pytest.mark.parametrize("ksize", [1, 5])
def test_correlate_pairs_is_the_signed_sum_of_two_correlations(map_lead, ksize):
    rng = np.random.default_rng(23)
    maps = rng.standard_normal(map_lead + (20, 24))
    kernels = rng.standard_normal((8, 2, ksize, ksize))
    got = correlate_pairs(maps, kernels, True)
    n = map_lead[0]
    assert got.shape == (2, n, 8, 20, 24)
    wide = np.broadcast_to(maps, (n, 8, 2, 20, 24))
    for p, t in np.ndindex(n, 8):
        first = correlate_stack(wide[p, t, 0], kernels[t, 0])
        second = correlate_stack(wide[n - 1 - p, t, 1], kernels[t, 1])
        assert_rel_close(got[0, p, t], first - second)
        assert_rel_close(got[1, p, t], first + second)
    # the difference alone is the first stack of the two, bit for bit
    assert np.array_equal(correlate_pairs(maps, kernels, False)[0], got[0])


@pytest.mark.parametrize("map_lead, forward", zip(PAIR_LEADS, [2 + 16, 16 + 16, 16 + 16]))
@pytest.mark.parametrize("with_sum", [False, True])
def test_correlate_pairs_transforms_each_map_and_kernel_once(
    monkeypatch, map_lead, forward, with_sum
):
    rng = np.random.default_rng(13)
    maps = rng.standard_normal(map_lead + (20, 24))
    kernels = rng.standard_normal((8, 2, 5, 5))
    calls = count_transforms(monkeypatch)
    correlate_pairs(maps, kernels, with_sum)
    # one inverse per output: P pairs per kernel pair, for the difference
    # and for the sum
    assert calls == {"rfftn": forward, "irfftn": map_lead[0] * 8 * (1 + with_sum)}


def test_correlate_pairs_refusals():
    bad = [
        ((2, 8, 1, 9, 9), (8, 3, 3, 3)),  # not kernel pairs
        ((2, 8, 1, 9, 9), (2, 8, 2, 3, 3)),  # a bank of more than one axis
        ((8, 1, 9, 9), (8, 2, 3, 3)),  # maps not 5-D
        ((2, 3, 1, 9, 9), (8, 2, 3, 3)),  # T neither 1 nor N
        ((1, 8, 3, 9, 9), (8, 2, 3, 3)),  # S neither 1 nor 2
    ]
    for map_shape, kernel_shape in bad:
        with pytest.raises(ValueError, match=re.escape(
            f"map pairs {map_shape} must be (P, 1 or N, 1 or 2, rows, cols) "
            f"against (N, 2, kh, kw) kernel pairs, got {kernel_shape}"
        )):
            correlate_pairs(np.zeros(map_shape), np.ones(kernel_shape), False)
    with pytest.raises(ValueError, match="odd"):
        correlate_pairs(np.zeros((2, 8, 1, 9, 9)), np.ones((8, 2, 2, 3)), False)


# ----------------------------------------- resample: one level, weight 1

def test_resample_identity_when_dims_match():
    rng = np.random.default_rng(1)
    arr = rng.random((9, 5))
    assert np.array_equal(pool_resampled([arr], 9, 5), arr)


def test_resample_preserves_constant():
    out = pool_resampled([np.full((7, 11), 3.25)], 4, 6)
    assert np.allclose(out, 3.25, atol=1e-12)


def test_resample_ramp_downsample_frozen():
    # v(r, c) = r + c on a 4x4 grid; corner-aligned 2x2 picks the corners.
    arr = np.add.outer(np.arange(4.0), np.arange(4.0))
    expected = np.array([[0.0, 3.0], [3.0, 6.0]])
    assert np.allclose(pool_resampled([arr], 2, 2), expected, atol=1e-12)


def test_resample_upsample_frozen():
    arr = np.array([[0.0, 1.0], [10.0, 11.0]])
    expected = np.array([[0.0, 0.5, 1.0], [5.0, 5.5, 6.0], [10.0, 10.5, 11.0]])
    assert np.allclose(pool_resampled([arr], 3, 3), expected, atol=1e-12)


def test_resample_exact_on_bilinear_functions():
    # Bilinear interpolation reproduces a + b*r + c*col + d*r*col exactly.
    rng = np.random.default_rng(11)
    r = np.arange(6.0)[:, None]
    c = np.arange(9.0)[None, :]
    for _ in range(5):
        a, b, cc, d = rng.standard_normal(4)
        arr = a + b * r + cc * c + d * r * c
        out = pool_resampled([arr], 11, 17)
        rr = np.linspace(0, 5, 11)[:, None]
        ccs = np.linspace(0, 8, 17)[None, :]
        assert np.abs(out - (a + b * rr + cc * ccs + d * rr * ccs)).max() < 1e-9


def test_resample_single_cell_takes_center():
    arr = np.add.outer(np.arange(5.0), np.arange(5.0))
    assert pool_resampled([arr], 1, 1)[0, 0] == pytest.approx(4.0)


def test_resample_rejects_bad_dims():
    with pytest.raises(ValueError):
        pool_resampled([np.ones((4, 4))], 0, 3)


# --------------------------------------------------------- pool_resampled

def pyramid_dims(rows, cols, n, factor):
    dims = [(rows, cols)]
    for _ in range(n - 1):
        dims.append(next_level_dims(*dims[-1], factor))
    return dims


@pytest.mark.parametrize("lead", [(), (3,), (8, 2)])
@pytest.mark.parametrize("factor", [SQRT2, 2.0])
def test_pool_matches_per_map_oracle(lead, factor):
    rng = np.random.default_rng(len(lead) + int(factor * 10))
    # pyramids reaching 1x1 / 1xn levels, then odd extra level shapes
    cases = [pyramid_dims(23, 37, 8, factor), pyramid_dims(9, 2, 5, factor),
             [(1, 1), (4, 6)], [(1, 7), (3, 1), (5, 5)]]
    for dims in cases:
        levels = [rng.standard_normal(lead + d) for d in dims]
        for rows, cols in [dims[0], (1, 1), (1, 9), (13, 4)]:
            assert_rel_close(pool_resampled(levels, rows, cols), oracle_pool(levels, rows, cols))


def test_pool_single_level_is_resample():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((3, 7, 10))
    got = pool_resampled([stack], 5, 12)
    for i in range(3):
        assert_rel_close(got[i], oracle_resample(stack[i], 5, 12))


def test_pool_rejects_mismatched_leading_shapes():
    good = np.ones((8, 2, 4, 4))
    with pytest.raises(ValueError, match="leading shape"):
        pool_resampled([good, np.ones((8, 4, 4))], 4, 4)
    with pytest.raises(ValueError, match="positive"):
        pool_resampled([good], 4, 0)


def border_cells(rows, cols, rng):
    """Every border cell, each corner twice, and a few random cells."""
    ring = {(r, c) for r in range(rows) for c in range(cols)
            if r in (0, rows - 1) or c in (0, cols - 1)}
    corners = [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)]
    inner = np.stack([rng.integers(0, rows, 12), rng.integers(0, cols, 12)], axis=1)
    return np.concatenate([sorted(ring), corners, corners[::-1], inner]).astype(int)


@pytest.mark.parametrize("lead", [(), (8, 2)])
@pytest.mark.parametrize("n_levels", [1, 10])
@pytest.mark.parametrize("factor", [SQRT2, 2.0])
@pytest.mark.parametrize("halving", [False, True])
def test_pool_operators_at_reproduce_pool_bit_for_bit(lead, n_levels, factor, halving):
    """r2 @ (r1 @ gathered) is pool_resampled at the cells, to the bit.

    ``halving`` scales level j by 2^-(j+1) before pooling, as the chained
    ``scale_contexts`` scales each level in place before it resamples.
    """
    rng = np.random.default_rng(n_levels + len(lead) + 10 * halving)
    dims = pyramid_dims(37, 29, n_levels, factor)
    levels = [rng.standard_normal(lead + d) for d in dims]
    if halving:
        levels = [level * 2.0 ** -(j + 1) for j, level in enumerate(levels)]
    maps = int(np.prod(lead))
    for rows, cols in [dims[0], (1, 23), (17, 1)]:
        cells = border_cells(rows, cols, rng)
        level_cells, r1, r2 = pool_operators_at(dims, rows, cols, cells)
        assert [c.tolist() for c in level_cells] == [sorted(set(c.tolist())) for c in level_cells]
        gathered = np.concatenate(
            [level.reshape(maps, -1)[:, c] for level, c in zip(levels, level_cells)], axis=1
        ).T
        got = r2 @ (r1 @ gathered)
        want = pool_resampled(levels, rows, cols).reshape(maps, rows, cols)
        want = want[:, cells[:, 0], cells[:, 1]].T
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pool_operators_at_refusals():
    dims = [(6, 6), (3, 3)]
    with pytest.raises(ValueError, match="inside"):
        pool_operators_at(dims, 6, 6, [[6, 0]])
    with pytest.raises(ValueError, match="inside"):
        pool_operators_at(dims, 6, 6, [[0, -1]])
    with pytest.raises(ValueError, match="positive"):
        pool_operators_at(dims, 0, 6, [[0, 0]])
    with pytest.raises(ValueError, match="at least one level"):
        pool_operators_at([], 6, 6, [[0, 0]])


# ------------------------------------------ cross-scale sum, unit weights

def test_cross_scale_single_level_identity():
    rng = np.random.default_rng(2)
    arr = rng.random((6, 6))
    assert np.allclose(pool_resampled([arr], 6, 6), arr, atol=1e-12)


def test_cross_scale_matches_sequential_oracle():
    rng = np.random.default_rng(13)
    levels = [rng.random((8, 8)), rng.random((6, 6)), rng.random((3, 4))]
    expected = np.zeros((8, 8))
    for lvl in levels:
        expected = expected + pool_resampled([lvl], 8, 8)
    assert np.abs(pool_resampled(levels, 8, 8) - expected).max() < 1e-12


def test_cross_scale_rejects_empty():
    with pytest.raises(ValueError):
        pool_resampled([], 4, 4)


# ---------------------------------------------------------------- pyramid

def test_pyramid_dims_follow_ceil_rule():
    pyr = list(pyramid_levels(np.zeros((64, 64)), 10, SQRT2))
    rows, cols = 64, 64
    for level in pyr:
        assert level.shape == (rows, cols)
        rows, cols = next_level_dims(rows, cols, SQRT2)


def test_pyramid_coarsest_dims_for_natural_size():
    # apply ceil(dim / sqrt2) nine times from 321x481
    rows, cols = 321, 481
    for _ in range(9):
        rows, cols = math.ceil(rows / SQRT2), math.ceil(cols / SQRT2)
    pyr = list(pyramid_levels(np.zeros((321, 481)), 10, SQRT2))
    assert pyr[-1].shape == (rows, cols)
    assert pyr[-1].shape == (16, 23)


def test_pyramid_single_scale_is_input():
    arr = np.random.default_rng(4).random((5, 5))
    pyr = list(pyramid_levels(arr, 1))
    assert len(pyr) == 1
    assert np.array_equal(pyr[0], arr)


def test_pyramid_constant_preserved_all_levels():
    pyr = list(pyramid_levels(np.full((40, 30), 0.7), 6, 2.0))
    for level in pyr:
        assert np.allclose(level, 0.7, atol=1e-12)


def test_pyramid_factor_validation():
    with pytest.raises(ValueError, match=r"pyramid_factor must be sqrt\(2\) or 2, got 3.0"):
        list(pyramid_levels(np.zeros((4, 4)), 1, 3.0))
    with pytest.raises(ValueError):
        list(pyramid_levels(np.zeros((8, 8)), 0))
