import math

import numpy as np
import pytest

from fgo.channels import (
    DIRECTIONS,
    ORIENTATIONS,
    RGBImage,
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
    return RGBImage(
        r=np.full((size, size), float(r)),
        g=np.full((size, size), float(g)),
        b=np.full((size, size), float(b)),
    )


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


def test_rgb_image_validation():
    with pytest.raises(ValueError):
        RGBImage(r=np.zeros((4, 4)), g=np.zeros((4, 4)), b=np.zeros((5, 4)))
    with pytest.raises(ValueError):
        RGBImage(r=np.full((4, 4), 1.5), g=np.zeros((4, 4)), b=np.zeros((4, 4)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rgb_image_refuses_non_finite(value):
    # the one finiteness check of an image: stages past it do not scan
    bad = np.zeros((4, 4))
    bad[1, 2] = value
    with pytest.raises(ValueError, match="non-finite"):
        RGBImage(r=np.zeros((4, 4)), g=bad, b=np.zeros((4, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        RGBImage.from_gray(bad)


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
    img = RGBImage(r=r, g=np.zeros((6, 6)), b=np.zeros((6, 6)))
    opp = opponency_of(img)
    assert opp[0, 0, 0] == pytest.approx(3.0)
    assert opp[0, 3, 3] == 0.0


def test_opponency_pairs_mutually_exclusive():
    rng = np.random.default_rng(0)
    img = RGBImage(r=rng.random((12, 12)), g=rng.random((12, 12)), b=rng.random((12, 12)))
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
    img = RGBImage.from_gray(np.random.default_rng(8).random((30, 34)))
    intensity, _, orientation = compute_channels(img, gabor)
    assert orientation.shape == (8, 30, 34)
    for ti, theta in enumerate(ORIENTATIONS):
        even = correlate_stack(intensity, make_gabor(gabor, theta, gabor.size, "even"))
        odd = correlate_stack(intensity, make_gabor(gabor, theta, gabor.size, "odd"))
        assert np.array_equal(orientation[ti], np.hypot(even, odd))


# ---------------------------------------------------------------- bundles

def test_compute_channels_shapes_and_nonnegative():
    rng = np.random.default_rng(1)
    img = RGBImage(r=rng.random((24, 24)), g=rng.random((24, 24)), b=rng.random((24, 24)))
    intensity, opponency, orientation = compute_channels(img)
    assert opponency.shape == (4, 24, 24)
    assert orientation.shape == (8, 24, 24)
    # every map shares the image's dimensions and is non-negative
    for m in (intensity, *opponency, *orientation):
        assert m.shape == (24, 24)
        assert m.min() >= 0.0


def test_channel_pyramids_levels_and_dims():
    rng = np.random.default_rng(2)
    img = RGBImage(r=rng.random((32, 32)), g=rng.random((32, 32)), b=rng.random((32, 32)))
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
    img = RGBImage.from_gray(np.random.default_rng(5).random((16, 16)))
    intensity, _, _ = compute_channels(img)
    (level,) = pyramid_levels(intensity, 1, 2.0)
    assert np.array_equal(level, intensity)
