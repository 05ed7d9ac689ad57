import logging
import math

import numpy as np
import pytest
from scipy import ndimage

from fgo.channels import DIRECTIONS, ORIENTATIONS, bo_direction
from fgo.cues import (
    SAParams,
    TJParams,
    _chained_groups,
    build_tj_maps,
    classify_junction_angle,
    classify_junction_area,
    compute_sa_maps,
    contour_orientation,
    detect_t_junctions,
    find_junction_candidates,
    format_junction,
    quantize_orientation,
    sample_shifted,
    trace_contour,
)
from fgo.filters import GaborParams, make_gabor
from fgo.grid import correlate_stack
from fgo.stimuli import overlapping_squares


# ----------------------------------------------------------- fixtures

def t_junction_maps(size=40, mid=20):
    """Horizontal boundary with a stem below: a perfect T at (mid, mid).

    Contours: 1 = left arm, 2 = right arm, 3 = stem. Regions: 1 above
    (including the boundary row), 2 below-left (including the stem), 3
    below-right.
    """
    contours = np.zeros((size, size), dtype=np.int64)
    contours[mid, : mid + 1] = 1
    contours[mid, mid + 1 :] = 2
    contours[mid + 1 :, mid] = 3
    segments = np.zeros((size, size), dtype=np.int64)
    segments[: mid + 1, :] = 1
    segments[mid + 1 :, : mid + 1] = 2
    segments[mid + 1 :, mid + 1 :] = 3
    return contours, segments


def ray_maps(angles_deg, size=41, ray_len=14):
    """Rays from the center at the given angles, one contour id each.

    Regions are the angular sectors between consecutive rays.
    """
    center = size // 2
    contours = np.zeros((size, size), dtype=np.int64)
    for cid, deg in enumerate(angles_deg, start=1):
        phi = math.radians(deg)
        for t in range(1, ray_len + 1):
            r = center + int(round(t * math.sin(phi)))
            c = center + int(round(t * math.cos(phi)))
            if 0 <= r < size and 0 <= c < size:
                contours[r, c] = cid
    segments = np.zeros((size, size), dtype=np.int64)
    rr, cc = np.mgrid[0:size, 0:size]
    ang = np.degrees(np.arctan2(rr - center, cc - center)) % 360.0
    bounds = sorted(a % 360.0 for a in angles_deg)
    segments[:] = len(bounds)
    for rid in range(len(bounds) - 1):
        segments[(ang >= bounds[rid]) & (ang < bounds[rid + 1])] = rid + 1
    return contours, segments


def oracle_sa_maps(intensity, params=SAParams()):
    """The per-orientation loop: one even and one odd correlation each."""
    out = np.zeros((8, 2) + intensity.shape)
    for size in params.sizes:
        radius = size / 2.0
        sigma = params.sigma_factor * radius
        omega_even, omega_odd = params.frequencies(size)
        for ti, theta in enumerate(ORIENTATIONS):
            even = correlate_stack(intensity, make_gabor(
                GaborParams(sigma, params.gamma, omega_even), theta, size, "even"))
            odd = correlate_stack(intensity, make_gabor(
                GaborParams(sigma, params.gamma, omega_odd), theta, size, "odd"))
            magnitude = np.hypot(even, odd)
            for si in range(2):
                phi = bo_direction(ti, si)
                dx, dy = math.cos(phi), math.sin(phi)
                out[ti, si] += sample_shifted(magnitude, radius * dy, radius * dx)
    return out


# ------------------------------------------------------ shifted sampling

def test_integer_shift_moves_and_pads():
    arr = np.arange(9.0).reshape(3, 3)
    out = sample_shifted(arr, 1, 0)
    assert np.array_equal(out[0], arr[1])
    assert np.array_equal(out[2], np.zeros(3))


def test_sample_shifted_zero_offset_identity():
    arr = np.random.default_rng(0).random((6, 6))
    assert np.allclose(sample_shifted(arr, 0.0, 0.0), arr)


def test_sample_shifted_fractional_frozen():
    arr = np.array([[0.0, 1.0], [10.0, 11.0]])
    out = sample_shifted(arr, 0.5, 0.5)
    assert out[0, 0] == pytest.approx(5.5)  # mean of all four
    assert out[0, 1] == 0.0  # sample column out of range
    assert out[1, 0] == 0.0


def test_sample_shifted_out_of_bounds_zero():
    arr = np.ones((4, 4))
    assert np.allclose(sample_shifted(arr, 10.0, 0.0), 0.0)


@pytest.mark.parametrize("shape", [(30, 41), (7, 5), (1, 6)])
def test_sample_shifted_matches_map_coordinates(shape):
    # an oracle independent of the sampler: scipy's bilinear interpolation,
    # zero outside the map, at every SA offset and at random ones
    rng = np.random.default_rng(12)
    offsets = [(size / 2.0 * dy, size / 2.0 * dx)
               for size in SAParams().sizes for dx, dy in DIRECTIONS.reshape(-1, 2)]
    offsets += [tuple(offset) for offset in rng.uniform(-12, 12, (40, 2))]
    rows, cols = np.indices(shape, dtype=np.float64)
    for arr in rng.random((2,) + shape):
        for drow, dcol in offsets:
            want = ndimage.map_coordinates(
                arr, [rows + drow, cols + dcol], order=1, mode="constant", cval=0.0)
            assert np.abs(sample_shifted(arr, drow, dcol) - want).max() <= 1e-12


# ---------------------------------------------------- spectral anisotropy

def test_sa_constant_image_silent():
    sa = compute_sa_maps(np.full((40, 40), 0.6))
    assert np.abs(sa).max() < 1e-9


def test_sa_smallest_even_frequency_value():
    assert SAParams().frequencies(9)[0] == pytest.approx(math.pi * 4 / 9)
    assert SAParams().frequencies(9)[0] == pytest.approx(1.3962634, abs=1e-6)


def test_sa_sizes_and_validation():
    assert SAParams().sizes == (9, 11, 13, 15, 17, 19, 21, 23, 25)
    with pytest.raises(ValueError):
        SAParams(min_size=8)
    with pytest.raises(ValueError):
        SAParams(size_step=3)
    with pytest.raises(ValueError, match="^max_size must be >= min_size, got 7$"):
        SAParams(min_size=9, max_size=7)


def test_sa_symmetric_stimulus_no_side_preference():
    # mirror-symmetric about row 30: both sides of theta=0 must agree there
    img = np.zeros((61, 61))
    img[28:33, :] = 0.8
    sa = compute_sa_maps(img, SAParams(max_size=13))
    assert np.abs(sa[0, 0, 30, 10:-10] - sa[0, 1, 30, 10:-10]).max() < 1e-6


def test_sa_prefers_the_shaded_side():
    # luminance ramp above a horizontal edge, flat below
    size = 64
    edge = 32
    img = np.full((size, size), 0.2)
    for r in range(edge):
        img[r, :] = 0.2 + 0.5 * max(0.0, 1 - (edge - r) / 16)
    sa = compute_sa_maps(img)
    into_ramp = sa[0, 1, edge, 16:-16]  # side 1 points up (theta - pi/2)
    away = sa[0, 0, edge, 16:-16]
    assert (into_ramp > away).mean() > 0.95


def test_sa_shifts_with_the_image():
    rng = np.random.default_rng(1)
    img = rng.random((56, 56))
    shifted = np.roll(img, (2, 3), axis=(0, 1))
    a = compute_sa_maps(img, SAParams(max_size=11))
    b = compute_sa_maps(shifted, SAParams(max_size=11))
    m = 24
    assert np.abs(
        np.roll(a, (2, 3), axis=(2, 3))[:, :, m:-m, m:-m] - b[:, :, m:-m, m:-m]
    ).max() < 1e-9


@pytest.mark.parametrize("shape, params", [
    ((56, 61), SAParams()),
    ((30, 34), SAParams(max_size=13)),
])
def test_sa_equals_the_per_orientation_loop(shape, params):
    img = np.random.default_rng(4).random(shape)
    assert np.array_equal(compute_sa_maps(img, params), oracle_sa_maps(img, params))


def test_side_direction_frame():
    phi = bo_direction(0, 0)  # theta + pi/2 points down the rows
    assert (math.cos(phi), math.sin(phi)) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    phi = bo_direction(0, 1)
    assert (math.cos(phi), math.sin(phi)) == (pytest.approx(0.0, abs=1e-12), pytest.approx(-1.0))


# ------------------------------------------------------------- candidates

def oracle_merge_within(pixels, radius):
    """Pairwise union-find grouping of (row, col) pixels whose Chebyshev
    distance is <= radius; groups in the row-major order of their first
    member. The loop that ``_chained_groups`` replaced."""
    n = len(pixels)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.abs(pixels[i] - pixels[j]).max() <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(pixels[i])
    return [np.array(groups[root]) for root in sorted(groups)]


def chains_mask():
    """Pairs at distance 2 (chained, in every direction) and 3 (apart),
    and pixels on every border."""
    mask = np.zeros((24, 32), dtype=bool)
    for r, c in [(0, 0), (0, 3), (5, 0), (7, 2), (10, 10), (12, 8), (12, 6), (3, 15),
                 (5, 15), (15, 20), (18, 23), (23, 31), (23, 29), (0, 31), (23, 0), (11, 31)]:
        mask[r, c] = True
    return mask


@pytest.mark.parametrize("mask", [pytest.param(chains_mask(), id="chains")] + [
    pytest.param(np.random.default_rng(seed).random((23, 31)) < density,
                 id=f"density{density}-seed{seed}")
    for density in (0.01, 0.05, 0.15, 0.3, 0.6)
    for seed in (1, 2)
])
def test_chained_groups_equal_the_union_find(mask):
    pixels, group = _chained_groups(mask)
    assert np.array_equal(pixels, np.argwhere(mask))
    groups = [pixels[group == g] for g in range(group.max() + 1)]
    expected = oracle_merge_within(np.argwhere(mask), 2)
    assert len(groups) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(groups, expected))


def test_candidates_blank_maps_empty():
    contours = np.zeros((20, 20), dtype=np.int64)
    segments = np.ones((20, 20), dtype=np.int64)
    assert find_junction_candidates(contours, segments) == []


def test_candidates_perfect_t_single():
    contours, segments = t_junction_maps()
    cands = find_junction_candidates(contours, segments)
    assert len(cands) == 1
    row, col, contour_ids, region_ids = cands[0]
    assert contour_ids == (1, 2, 3)
    assert region_ids == (1, 2, 3)
    assert abs(row - 20) <= 1 and abs(col - 20) <= 1


def test_candidates_plus_junction_excluded():
    contours, segments = ray_maps([0, 90, 180, 270])
    assert find_junction_candidates(contours, segments) == []


def test_candidates_reject_mismatched_shapes():
    # the entry points check the label maps once, before any candidate
    for entry in (detect_t_junctions, lambda c, s: build_tj_maps(c, s, [])):
        with pytest.raises(ValueError):
            entry(np.zeros((4, 4), dtype=np.int64), np.zeros((5, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            entry(np.zeros((4, 4)), np.zeros((4, 4), dtype=np.int64))



@pytest.mark.parametrize("contours, message", [
    (np.zeros(4, dtype=np.int64), "contours must be a non-empty 2D array"),
    (np.full((4, 4), -1, dtype=np.int64), r"contours must be non-negative \(0 means unlabeled\)"),
], ids=["not-2d", "negative"])
def test_label_maps_refused_with_their_name(contours, message):
    segments = np.zeros((4, 4), dtype=np.int64)
    for entry in (detect_t_junctions, lambda c, s: build_tj_maps(c, s, [])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            entry(contours, segments)


# -------------------------------------------------------- area classifier

def test_area_painted_counts_pick_largest():
    # paint a disk's pixels explicitly: 60 / 30 / 23 of regions 1 / 2 / 3
    segments = np.full((30, 30), 9, dtype=np.int64)
    dr = np.arange(-6, 7)
    offs = [(a, b) for a in dr for b in dr if a * a + b * b <= 36]
    for i, (a, b) in enumerate(offs):
        rid = 1 if i < 60 else (2 if i < 90 else 3)
        segments[15 + a, 15 + b] = rid
    contours = np.zeros((30, 30), dtype=np.int64)
    contours[segments == 1] = 0
    # lay three contours through the disk so two abut region 1
    contours[15, 9:22] = 0
    cand = (15, 15, (1, 2, 3), (1, 2, 3))
    # contours: ids 1 and 2 adjacent to region-1 pixels, id 3 far away
    ys, xs = np.where(segments == 1)
    contours[ys[0], xs[0] + 0] = 1
    contours[ys[1], xs[1]] = 2
    contours[28, 28] = 3
    figure, hat, counts = classify_junction_area(segments, contours, cand)
    assert figure == 1
    assert counts == (60, 30, 23)
    assert hat == (1, 2)


def test_area_exact_tie_flagged():
    segments = np.full((30, 30), 3, dtype=np.int64)
    dr = np.arange(-6, 7)
    offs = [(a, b) for a in dr for b in dr if a * a + b * b <= 36]
    assert len(offs) == 113
    for i, (a, b) in enumerate(offs):
        rid = 1 if i < 38 else (2 if i < 76 else 3)
        segments[15 + a, 15 + b] = rid
    contours = np.zeros((30, 30), dtype=np.int64)
    cand = (15, 15, (1, 2, 3), (1, 2, 3))
    figure, hat, counts = classify_junction_area(segments, contours, cand)
    assert counts[0] == counts[1]  # a tie for the most
    assert figure is None
    assert hat is None


def test_area_missing_region_is_malformed():
    segments = np.ones((30, 30), dtype=np.int64)
    contours = np.zeros((30, 30), dtype=np.int64)
    cand = (15, 15, (1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        classify_junction_area(segments, contours, cand)


def test_area_perfect_t_hat_and_figure():
    contours, segments = t_junction_maps()
    cand = find_junction_candidates(contours, segments)[0]
    figure, hat, _ = classify_junction_area(segments, contours, cand)
    assert figure == 1  # the region above covers most of the disk
    assert hat == (1, 2)  # the two collinear arms



def test_area_one_contour_abutting_the_winner_is_malformed():
    # the perfect T with its right arm and stem erased: only the left arm
    # leans on region 1, so no hat pair can be named
    contours, segments = t_junction_maps()
    contours[contours != 1] = 0
    with pytest.raises(ValueError, match=r"^fewer than two contours abut region 1 at \(20, 20\)$"):
        classify_junction_area(segments, contours, (20, 20, (1, 2, 3), (1, 2, 3)))


# ------------------------------------------------------- angle classifier

def test_trace_contour_straight_line():
    contours, _ = t_junction_maps()
    end = trace_contour(contours, 2, 20, 20)
    assert end == (20, 27)
    end = trace_contour(contours, 3, 20, 20)
    assert end == (27, 20)


def test_trace_contour_too_short_is_malformed():
    contours = np.zeros((20, 20), dtype=np.int64)
    contours[10, 10] = 1
    contours[10, 11] = 1
    with pytest.raises(ValueError):
        trace_contour(contours, 1, 10, 10)
    with pytest.raises(ValueError):
        trace_contour(contours, 7, 10, 10)


def test_angle_perfect_t_hat_is_collinear_pair():
    contours, segments = t_junction_maps()
    cand = find_junction_candidates(contours, segments)[0]
    hat, sectors, rejected = classify_junction_angle(contours, cand)
    assert rejected is None
    assert hat == (1, 2)
    assert max(sectors) == pytest.approx(180.0, abs=2.0)


def test_angle_perfect_y_rejected():
    contours, segments = ray_maps([90, 210, 330])
    hat, _, rejected = classify_junction_angle(contours, (20, 20, (1, 2, 3), (1, 2, 3)))
    assert rejected == "yJunction"
    assert hat is None


def test_angle_arrow_rejected():
    contours, segments = ray_maps([0, 80, 160])
    hat, _, rejected = classify_junction_angle(contours, (20, 20, (1, 2, 3), (1, 2, 3)))
    assert rejected == "arrowJunction"
    assert hat is None


# --------------------------------------------------------------- pipeline

def test_detect_perfect_t_matched():
    contours, segments = t_junction_maps()
    junctions = detect_t_junctions(contours, segments)
    assert len(junctions) == 1
    j = junctions[0]
    assert j.matched
    assert j.rejected == "none"
    assert j.hat_by_area == j.hat_by_angle == (1, 2)
    assert j.figure_region == 1


def test_detect_y_junction_record_rejected():
    contours, segments = ray_maps([90, 210, 330])
    junctions = detect_t_junctions(contours, segments)
    assert len(junctions) == 1
    assert not junctions[0].matched
    assert junctions[0].rejected == "yJunction"


def test_detect_drops_an_unclassifiable_candidate(caplog):
    # two T-junctions on one horizontal boundary; the stem of the right one
    # is 2 px long, too short to trace, so only that candidate is dropped
    contours = np.zeros((40, 64), dtype=np.int64)
    contours[20, :16], contours[20, 16:41], contours[20, 41:] = 1, 2, 4
    contours[21:, 15] = 3
    contours[21:23, 40] = 5
    segments = np.ones((40, 64), dtype=np.int64)
    segments[21:, :16], segments[21:, 16:41], segments[21:, 41:] = 2, 3, 4
    assert len(find_junction_candidates(contours, segments)) == 2
    with caplog.at_level(logging.INFO, logger="fgo.cues"):
        junctions = detect_t_junctions(contours, segments)
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, "dropping junction candidate: contour 5 shorter than 3 px near (20, 40)")
    ]
    assert [(j.row, j.col, j.matched) for j in junctions] == [(20, 16, True)]


def test_format_junction_line():
    contours, segments = t_junction_maps()
    line = format_junction(detect_t_junctions(contours, segments)[0])
    fields = line.split()
    assert len(fields) == 10
    assert fields[-1] == "none"
    assert fields[-2] == "1"


# ---------------------------------------------------- contour orientation

def oracle_orientation_map(contours, fit_radius=3):
    """The whole-image fit that ``contour_orientation`` replaced: the
    orientation at every contour pixel, NaN elsewhere."""
    out = np.full(contours.shape, np.nan)
    span = np.arange(-fit_radius, fit_radius + 1)
    dr, dc = np.meshgrid(span, span, indexing="ij")
    keep = dr**2 + dc**2 <= fit_radius**2
    dr, dc = dr[keep], dc[keep]
    for row, col in np.argwhere(contours > 0):
        cid = contours[row, col]
        rows = row + dr
        cols = col + dc
        keep = (
            (rows >= 0) & (rows < contours.shape[0])
            & (cols >= 0) & (cols < contours.shape[1])
        )
        rows, cols = rows[keep], cols[keep]
        same = contours[rows, cols] == cid
        if same.sum() < 2:
            continue
        y = rows[same] - rows[same].mean()
        x = cols[same] - cols[same].mean()
        sxx = float((x * x).sum())
        syy = float((y * y).sum())
        sxy = float((x * y).sum())
        out[row, col] = 0.5 * math.atan2(2 * sxy, sxx - syy) % math.pi
    return out


def test_orientation_horizontal_and_diagonal():
    contours = np.zeros((20, 20), dtype=np.int64)
    contours[10, 2:18] = 1
    assert contour_orientation(contours, 10, 10) == pytest.approx(0.0, abs=1e-9)
    contours = np.zeros((20, 20), dtype=np.int64)
    for i in range(2, 18):
        contours[i, i] = 1
    assert contour_orientation(contours, 10, 10) == pytest.approx(math.pi / 4, abs=1e-9)


def test_orientation_vertical_and_nan_off_contour():
    contours = np.zeros((20, 20), dtype=np.int64)
    contours[2:18, 7] = 2
    assert contour_orientation(contours, 10, 7) == pytest.approx(math.pi / 2, abs=1e-9)
    assert np.isnan(contour_orientation(contours, 0, 0))


@pytest.mark.parametrize("contours, fit_radius", [
    (t_junction_maps()[0], 3),
    (ray_maps([90, 210, 330])[0], 3),
    (ray_maps([10, 100, 190])[0], 2),
    (overlapping_squares().contours, 3),
    (overlapping_squares(size=64, a_first=1, a_last=40, b_first=20, b_last=62).contours, 3),
    # scattered ids: isolated pixels, clumps and pieces cut by the border
    (np.random.default_rng(5).integers(1, 4, (24, 30))
     * (np.random.default_rng(6).random((24, 30)) < 0.4), 3),
    (np.random.default_rng(7).integers(1, 3, (17, 19))
     * (np.random.default_rng(8).random((17, 19)) < 0.7), 2),
])
def test_contour_orientation_equals_the_whole_image_fit(contours, fit_radius):
    got = np.array([
        [contour_orientation(contours, row, col, fit_radius) for col in range(contours.shape[1])]
        for row in range(contours.shape[0])
    ])
    assert np.array_equal(got, oracle_orientation_map(contours, fit_radius), equal_nan=True)


def test_quantize_orientation_bins_and_wrap():
    assert quantize_orientation(0.0) == 0
    assert quantize_orientation(math.pi / 2) == 4
    assert quantize_orientation(0.99 * math.pi) == 0  # wraps to the 0 bin
    assert quantize_orientation(3 * math.pi / 8 + 0.01) == 3


# ----------------------------------------------------------------- TJ map

def test_tj_maps_no_matched_junctions_zero():
    contours, segments = ray_maps([90, 210, 330])
    junctions = detect_t_junctions(contours, segments)
    maps = build_tj_maps(contours, segments, junctions)
    assert np.abs(maps).max() == 0.0


def test_tj_maps_perfect_t_paints_one_directed_bin():
    contours, segments = t_junction_maps()
    junctions = detect_t_junctions(contours, segments)
    maps = build_tj_maps(contours, segments, junctions)
    # figure is above the horizontal hat: theta = 0, side 1 (theta - pi/2)
    assert maps[0, 1].sum() > 10
    others = maps.copy()
    others[0, 1] = 0.0
    assert np.abs(others).max() == 0.0
    # never both sides at one pixel
    assert np.abs(maps[0, 0] * maps[0, 1]).max() == 0.0
    # painted pixels stay within the influence radius of the junction
    ys, xs = np.nonzero(maps[0, 1])
    assert ((ys - 20) ** 2 + (xs - 20) ** 2 <= 15**2).all()


def test_tj_maps_skip_a_hat_pixel_without_orientation():
    # a stray pixel of hat contour 1, isolated inside the influence radius:
    # its orientation is NaN, so it paints nothing and the maps are unchanged
    contours, segments = t_junction_maps()
    want = build_tj_maps(contours, segments, detect_t_junctions(contours, segments))
    contours[12, 20] = 1
    junctions = detect_t_junctions(contours, segments)
    assert junctions[0].matched and 1 in junctions[0].hat_by_area
    assert math.isnan(contour_orientation(contours, 12, 20))
    assert np.array_equal(build_tj_maps(contours, segments, junctions), want)


def test_tj_params_validation():
    with pytest.raises(ValueError):
        TJParams(angle_track_length=2)
    with pytest.raises(ValueError):
        TJParams(probe_min=0)
