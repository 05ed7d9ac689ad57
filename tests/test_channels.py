import math

import numpy as np
import pytest

from fgo.channels import (
    DIRECTIONS,
    ORIENTATIONS,
    as_image,
    bo_direction,
    compute_channels,
    compute_color_opponency,
    compute_intensity,
    compute_orientation_channels,
)
from fgo.filters import GaborParams, make_gabor
from fgo.grid import correlate_stack, pyramid_levels

# the carriers' arguments: one GaborParams for both parities, at its size
CARRIER = (GaborParams(), GaborParams(), GaborParams().size)


def solid_image(r, g, b, size=8):
    return np.stack([np.full((size, size), float(value)) for value in (r, g, b)])


def test_bo_direction_pins_the_sixteen_directions():
    # side 0 is theta + pi/2 and side 1 is theta - pi/2, theta = t * pi / 8
    angles = [bo_direction(t, s) for t in range(8) for s in range(2)]
    want = [(t + (4, -4)[s]) * math.pi / 8 for t in range(8) for s in range(2)]
    assert angles == pytest.approx(want, rel=0, abs=1e-15)
    # the vertical edge (t = 4) owns leftward on side 0, rightward on side 1
    assert (math.cos(angles[8]), math.sin(angles[8])) == (-1.0, pytest.approx(0, abs=1e-15))
    assert (math.cos(angles[9]), math.sin(angles[9])) == (1.0, 0.0)
    # one table holds their unit vectors, and every module that steps or
    # scores along a direction reads it
    from fgo import cues, evaluation, ownership

    units = [[math.cos(a), math.sin(a)] for a in angles]
    assert np.array_equal(DIRECTIONS.reshape(-1, 2), units)
    assert cues.DIRECTIONS is DIRECTIONS and evaluation._DIRECTIONS.base is DIRECTIONS
    assert ownership.bo_direction is bo_direction  # the ring kernels take the angle


# -------------------------------------------------------------- intensity

def test_intensity_is_channel_mean():
    img = solid_image(0.3, 0.6, 0.9)
    assert np.allclose(compute_intensity(img), 0.6, atol=1e-12)


SHAPE_RULE = (
    r"an image must be a non-empty \(rows, cols\) gray map or a \(3, rows, cols\) RGB array"
)
RANGE_RULE = r"image values must lie in \[0, 1\], got values in"


def test_rgb_image_validation():
    # channel-first only: a channel-last array is refused, not transposed
    with pytest.raises(ValueError, match=rf"^{SHAPE_RULE}, got shape \(4, 5, 3\)$"):
        as_image(np.zeros((4, 5, 3)))
    with pytest.raises(ValueError, match=rf"^{RANGE_RULE} \[0, 1.5\]$"):
        as_image(np.stack([np.full((4, 4), 1.5), np.zeros((4, 4)), np.zeros((4, 4))]))
    with pytest.raises(ValueError, match=rf"^{RANGE_RULE} \[-0.25, -0.25\]$"):
        as_image(np.full((4, 4), -0.25))


def test_as_image_refuses_a_1d_array():
    with pytest.raises(ValueError, match=rf"^{SHAPE_RULE}, got shape \(3,\)$"):
        as_image(np.ones(3))


@pytest.mark.parametrize(
    "value, got", [(np.nan, r"\[nan, nan\]"), (np.inf, r"\[0, inf\]")], ids=["nan", "inf"]
)
def test_rgb_image_refuses_non_finite(value, got):
    # the one finiteness check of an image: stages past it do not scan
    bad = np.zeros((4, 4))
    bad[1, 2] = value
    with pytest.raises(ValueError, match=rf"^{RANGE_RULE} {got}$"):
        as_image(np.stack([np.zeros((4, 4)), bad, np.zeros((4, 4))]))
    with pytest.raises(ValueError, match=rf"^{RANGE_RULE} {got}$"):
        as_image(bad)


def test_as_image_takes_a_gray_map_as_a_view():
    gray = np.random.default_rng(3).random((5, 7))
    image = as_image(gray)
    assert image.shape == (3, 5, 7) and image.dtype == np.float64
    assert np.shares_memory(image, gray) and image.strides[0] == 0  # nothing copied
    assert all(np.array_equal(channel, gray) for channel in image)
    # a (3, rows, cols) float64 array passes through, its values unchanged
    rgb = np.random.default_rng(4).random((3, 5, 7))
    assert np.shares_memory(as_image(rgb), rgb) and np.array_equal(as_image(rgb), rgb)


# -------------------------------------------------------------- opponency

def opponency_of(img):
    """The (4, rows, cols) opponency stack RG, GR, BY, YB of an image."""
    return compute_color_opponency(img, compute_intensity(img))


def test_opponency_gray_image_all_zero():
    opp = opponency_of(solid_image(0.5, 0.5, 0.5))
    for m in opp:
        assert np.abs(m).max() < 1e-12


def test_opponency_pure_red_frozen():
    # (1, 0, 0): intensity 1/3, normalized r = 3 -> R = 3, others zero
    opp = opponency_of(solid_image(1.0, 0.0, 0.0))
    assert np.allclose(opp[0], 3.0, atol=1e-12)
    assert np.abs(opp[1]).max() < 1e-12
    assert np.abs(opp[2]).max() < 1e-12
    assert np.abs(opp[3]).max() < 1e-12


def test_opponency_yellow_frozen():
    # (1, 1, 0): intensity 2/3, normalized r = g = 1.5 -> Y = 1.5 -> YB = 1.5
    opp = opponency_of(solid_image(1.0, 1.0, 0.0))
    assert np.allclose(opp[3], 1.5, atol=1e-12)
    assert np.abs(opp[0]).max() < 1e-12
    assert np.abs(opp[1]).max() < 1e-12
    assert np.abs(opp[2]).max() < 1e-12


def test_opponency_dark_pixels_muted():
    r = np.zeros((6, 6))
    r[0, 0] = 1.0  # bright red pixel sets the intensity ceiling
    r[3, 3] = 0.02  # dim red pixel falls under the 10% cutoff
    img = np.stack([r, np.zeros((6, 6)), np.zeros((6, 6))])
    opp = opponency_of(img)
    assert opp[0, 0, 0] == pytest.approx(3.0)
    assert opp[0, 3, 3] == 0.0


def test_opponency_pairs_mutually_exclusive():
    rng = np.random.default_rng(0)
    img = rng.random((3, 12, 12))
    opp = opponency_of(img)
    assert np.abs(opp[0] * opp[1]).max() == 0.0
    assert np.abs(opp[2] * opp[3]).max() == 0.0
    for m in opp:
        assert m.min() >= 0.0


# ------------------------------------------------------------ orientation

def test_orientation_constant_image_silent():
    chans = compute_orientation_channels(np.full((32, 32), 0.8), *CARRIER)
    for m in chans:
        assert np.abs(m).max() < 1e-10


def test_orientation_vertical_edge_prefers_pi_half():
    img = np.zeros((48, 48))
    img[:, 24:] = 1.0
    chans = compute_orientation_channels(img, *CARRIER)
    at_edge = [m[24, 24] for m in chans]
    assert int(np.argmax(at_edge)) == 4  # pi/2 is the fifth of eight
    assert ORIENTATIONS[4] == pytest.approx(math.pi / 2)


def test_orientation_horizontal_edge_prefers_zero():
    img = np.zeros((48, 48))
    img[24:, :] = 1.0
    chans = compute_orientation_channels(img, *CARRIER)
    at_edge = [m[24, 24] for m in chans]
    assert int(np.argmax(at_edge)) == 0


def test_orientation_quarter_turn_shifts_channels():
    rng = np.random.default_rng(3)
    img = rng.random((40, 40))
    chans = compute_orientation_channels(img, *CARRIER)
    rotated = compute_orientation_channels(np.rot90(img), *CARRIER)
    m = 12  # stay clear of border effects
    for i in range(8):
        a = np.rot90(chans[i])[m:-m, m:-m]
        b = rotated[(i + 4) % 8][m:-m, m:-m]
        assert np.abs(a - b).max() < 1e-6


def test_carrier_energy_matches_per_orientation_oracle():
    # the carriers bit for bit against one even and one odd correlation per
    # orientation, as the SA oracle pins the energy sampled beside an edge
    gabor = GaborParams(sigma=1.8, gamma=0.6, omega=1.2)
    img = as_image(np.random.default_rng(8).random((30, 34)))
    intensity, _, orientation = compute_channels(img, gabor)
    assert orientation.shape == (8, 30, 34)
    for ti, theta in enumerate(ORIENTATIONS):
        even = correlate_stack(intensity, make_gabor(gabor, theta, gabor.size, "even"))
        odd = correlate_stack(intensity, make_gabor(gabor, theta, gabor.size, "odd"))
        assert np.array_equal(orientation[ti], np.hypot(even, odd))


# ---------------------------------------------------------------- bundles

def test_compute_channels_shapes_and_nonnegative():
    rng = np.random.default_rng(1)
    img = rng.random((3, 24, 24))
    intensity, opponency, orientation = compute_channels(img)
    assert opponency.shape == (4, 24, 24)
    assert orientation.shape == (8, 24, 24)
    # every map shares the image's dimensions and is non-negative
    for m in (intensity, *opponency, *orientation):
        assert m.shape == (24, 24)
        assert m.min() >= 0.0


def test_channel_pyramids_levels_and_dims():
    rng = np.random.default_rng(2)
    img = rng.random((3, 32, 32))
    intensity, opponency, orientation = compute_channels(img)
    for native in (intensity, *opponency):
        pyr = list(pyramid_levels(native, 4, math.sqrt(2)))
        assert len(pyr) == 4
        assert pyr[0].shape == (32, 32)
    # the carriers: one pyramid of (8, r, c) stacks
    carriers = list(pyramid_levels(orientation, 4, math.sqrt(2)))
    assert len(carriers) == 4
    assert [level.shape[:1] for level in carriers] == [(8,)] * 4
    assert np.array_equal(carriers[0], orientation)


def test_channel_pyramid_single_scale_identity():
    img = as_image(np.random.default_rng(5).random((16, 16)))
    intensity, _, _ = compute_channels(img)
    (level,) = pyramid_levels(intensity, 1, 2.0)
    assert np.array_equal(level, intensity)
