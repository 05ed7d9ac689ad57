import math

import numpy as np
import pytest

from fgo.grid import (
    NormalizationParams,
    Pyramid,
    build_pyramid,
    correlate2d,
    cross_scale_sum,
    next_level_dims,
    pool_resampled,
    resample,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- oracles

def oracle_correlate(arr, kernel):
    """Quadruple-loop correlation with explicit edge replication."""
    rows, cols = arr.shape
    kh, kw = kernel.shape
    cu, cv = kh // 2, kw // 2
    out = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for u in range(kh):
                for v in range(kw):
                    rr = min(max(r + u - cu, 0), rows - 1)
                    cc = min(max(c + v - cv, 0), cols - 1)
                    acc += kernel[u, v] * arr[rr, cc]
            out[r, c] = acc
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


def oracle_pool(levels, rows, cols, weights):
    """Per-map loop: resample every level of every map, scale and add."""
    lead = levels[0].shape[:-2]
    out = np.zeros(lead + (rows, cols))
    for idx in np.ndindex(lead):
        for level, weight in zip(levels, weights):
            out[idx] += weight * oracle_resample(level[idx], rows, cols)
    return out


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)



def test_correlate_identity_kernel():
    rng = np.random.default_rng(0)
    arr = rng.random((6, 7))
    out = correlate2d(arr, np.ones((1, 1)))
    assert np.array_equal(out, arr)


def test_correlate_constant_input_gives_kernel_sum():
    kernel = np.arange(9, dtype=float).reshape(3, 3)
    out = correlate2d(np.full((5, 5), 2.0), kernel)
    assert np.allclose(out, 2.0 * kernel.sum(), atol=1e-12)


def test_correlate_matches_bruteforce_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        arr = rng.standard_normal((8, 8))
        kernel = rng.standard_normal((3, 3))
        assert np.abs(correlate2d(arr, kernel) - oracle_correlate(arr, kernel)).max() < 1e-9


def test_correlate_bruteforce_asymmetric_kernel_sizes():
    rng = np.random.default_rng(7)
    arr = rng.standard_normal((9, 12))
    kernel = rng.standard_normal((5, 3))
    assert np.abs(correlate2d(arr, kernel) - oracle_correlate(arr, kernel)).max() < 1e-9


def test_correlate_linearity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        k = rng.standard_normal((5, 5))
        lhs = correlate2d(2.5 * a + b, k)
        rhs = 2.5 * correlate2d(a, k) + correlate2d(b, k)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_correlate_rejects_even_kernel():
    with pytest.raises(ValueError):
        correlate2d(np.zeros((8, 8)), np.zeros((2, 3)))


def test_correlate_rejects_oversized_kernel():
    with pytest.raises(ValueError):
        correlate2d(np.zeros((5, 5)), np.zeros((7, 7)))
    with pytest.raises(ValueError):
        correlate2d(np.zeros((5, 5)), np.zeros((5, 5)))


def test_correlate_rejects_nonfinite():
    arr = np.zeros((5, 5))
    arr[2, 2] = np.nan
    with pytest.raises(ValueError):
        correlate2d(arr, np.ones((3, 3)))


# --------------------------------------------------------------- resample

def test_resample_identity_when_dims_match():
    rng = np.random.default_rng(1)
    arr = rng.random((9, 5))
    assert np.array_equal(resample(arr, 9, 5), arr)


def test_resample_preserves_constant():
    out = resample(np.full((7, 11), 3.25), 4, 6)
    assert np.allclose(out, 3.25, atol=1e-12)


def test_resample_ramp_downsample_frozen():
    # v(r, c) = r + c on a 4x4 grid; corner-aligned 2x2 picks the corners.
    arr = np.add.outer(np.arange(4.0), np.arange(4.0))
    expected = np.array([[0.0, 3.0], [3.0, 6.0]])
    assert np.allclose(resample(arr, 2, 2), expected, atol=1e-12)


def test_resample_upsample_frozen():
    arr = np.array([[0.0, 1.0], [10.0, 11.0]])
    expected = np.array([[0.0, 0.5, 1.0], [5.0, 5.5, 6.0], [10.0, 10.5, 11.0]])
    assert np.allclose(resample(arr, 3, 3), expected, atol=1e-12)


def test_resample_exact_on_bilinear_functions():
    # Bilinear interpolation reproduces a + b*r + c*col + d*r*col exactly.
    rng = np.random.default_rng(11)
    r = np.arange(6.0)[:, None]
    c = np.arange(9.0)[None, :]
    for _ in range(5):
        a, b, cc, d = rng.standard_normal(4)
        arr = a + b * r + cc * c + d * r * c
        out = resample(arr, 11, 17)
        rr = np.linspace(0, 5, 11)[:, None]
        ccs = np.linspace(0, 8, 17)[None, :]
        assert np.abs(out - (a + b * rr + cc * ccs + d * rr * ccs)).max() < 1e-9


def test_resample_single_cell_takes_center():
    arr = np.add.outer(np.arange(5.0), np.arange(5.0))
    assert resample(arr, 1, 1)[0, 0] == pytest.approx(4.0)


def test_resample_rejects_bad_dims():
    with pytest.raises(ValueError):
        resample(np.ones((4, 4)), 0, 3)


# ------------------------------------------------------ NormalizationParams

def test_normalize_params_validation():
    with pytest.raises(ValueError):
        NormalizationParams(upper=0.0)
    with pytest.raises(ValueError):
        NormalizationParams(local_max_window=4)


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
        weights = rng.random(len(dims))
        for rows, cols in [dims[0], (1, 1), (1, 9), (13, 4)]:
            assert_rel_close(
                pool_resampled(levels, rows, cols, weights),
                oracle_pool(levels, rows, cols, weights),
            )
            assert_rel_close(
                cross_scale_sum(levels, rows, cols),
                oracle_pool(levels, rows, cols, np.ones(len(dims))),
            )


def test_pool_single_level_is_resample():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((3, 7, 10))
    got = resample(stack, 5, 12)
    for i in range(3):
        assert_rel_close(got[i], oracle_resample(stack[i], 5, 12))


def test_pool_rejects_nonfinite_and_mismatched_leading_shapes():
    good = np.ones((8, 2, 4, 4))
    bad = good.copy()
    bad[3, 1, 2, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        pool_resampled([good, bad], 4, 4, (1.0, 1.0))
    with pytest.raises(ValueError, match="leading shape"):
        pool_resampled([good, np.ones((8, 4, 4))], 4, 4, (1.0, 1.0))
    with pytest.raises(ValueError, match="positive"):
        pool_resampled([good], 4, 0, (1.0,))
    with pytest.raises(ValueError):
        pool_resampled([good], 4, 4, (1.0, 1.0))


# -------------------------------------------------------- cross_scale_sum

def test_cross_scale_single_level_identity():
    rng = np.random.default_rng(2)
    arr = rng.random((6, 6))
    assert np.allclose(cross_scale_sum([arr], 6, 6), arr, atol=1e-12)


def test_cross_scale_matches_sequential_oracle():
    rng = np.random.default_rng(13)
    levels = [rng.random((8, 8)), rng.random((6, 6)), rng.random((3, 4))]
    expected = np.zeros((8, 8))
    for lvl in levels:
        expected = expected + resample(lvl, 8, 8)
    assert np.abs(cross_scale_sum(levels, 8, 8) - expected).max() < 1e-12


def test_cross_scale_rejects_empty():
    with pytest.raises(ValueError):
        cross_scale_sum([], 4, 4)


# ---------------------------------------------------------------- pyramid

def test_pyramid_dims_follow_ceil_rule():
    pyr = build_pyramid(np.zeros((64, 64)), 10, SQRT2)
    rows, cols = 64, 64
    for level in pyr:
        assert level.shape == (rows, cols)
        rows, cols = next_level_dims(rows, cols, SQRT2)


def test_pyramid_coarsest_dims_for_natural_size():
    # apply ceil(dim / sqrt2) nine times from 321x481
    rows, cols = 321, 481
    for _ in range(9):
        rows, cols = math.ceil(rows / SQRT2), math.ceil(cols / SQRT2)
    pyr = build_pyramid(np.zeros((321, 481)), 10, SQRT2)
    assert pyr[-1].shape == (rows, cols)
    assert pyr[-1].shape == (16, 23)


def test_pyramid_single_scale_is_input():
    arr = np.random.default_rng(4).random((5, 5))
    pyr = build_pyramid(arr, 1)
    assert len(pyr) == 1
    assert np.array_equal(pyr[0], arr)


def test_pyramid_constant_preserved_all_levels():
    pyr = build_pyramid(np.full((40, 30), 0.7), 6, 2.0)
    for level in pyr:
        assert np.allclose(level, 0.7, atol=1e-12)


def test_pyramid_factor_validation():
    with pytest.raises(ValueError):
        Pyramid(levels=(np.zeros((4, 4)),), factor=3.0)
    with pytest.raises(ValueError):
        build_pyramid(np.zeros((8, 8)), 0)
