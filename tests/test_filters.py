import math

import numpy as np
import pytest

from fgo import filters
from fgo.channels import ORIENTATIONS, compute_orientation_channels
from fgo.filters import (
    DoGParams,
    GaborParams,
    clamp_kernel_size,
    gabor_bank,
    make_center_surround,
    make_gabor,
    make_von_mises,
    odd_size_for,
    ring_size,
)
from fgo.pipeline import PipelineParams

# the carriers' arguments: one GaborParams for both parities, at its size
CARRIER = (GaborParams(), GaborParams(), GaborParams().size)


def vertical_step(size=64, col=32, low=0.0, high=1.0):
    img = np.full((size, size), low)
    img[:, col:] = high
    return img


# ------------------------------------------------------------------ gabor

def test_gabor_center_is_one_before_dc_correction():
    p, theta = GaborParams(), 0.3
    k = make_gabor(p, theta, p.size, "even")
    h = k.shape[0] // 2
    y, x = np.mgrid[-h : h + 1, -h : h + 1].astype(float)
    across = -x * math.sin(theta) + y * math.cos(theta)
    along = x * math.cos(theta) + y * math.sin(theta)
    raw = np.exp(-(across**2 + p.gamma**2 * along**2) / (2 * p.sigma**2)) * np.cos(
        p.omega * across
    )
    assert raw[h, h] == pytest.approx(1.0)
    assert np.abs(k - (raw - raw.mean())).max() < 1e-15


def test_gabor_even_point_symmetric_odd_antisymmetric():
    p = GaborParams()
    for theta in (0.0, math.pi / 8, 5 * math.pi / 8):
        e = make_gabor(p, theta, p.size, "even")
        o = make_gabor(p, theta, p.size, "odd")
        assert np.abs(e - e[::-1, ::-1]).max() < 1e-12
        assert np.abs(o + o[::-1, ::-1]).max() < 1e-12


def test_gabor_zero_dc():
    p = GaborParams()
    for theta in (0.0, math.pi / 4):
        e = make_gabor(p, theta, p.size, "even")
        o = make_gabor(p, theta, p.size, "odd")
        assert abs(e.sum()) < 1e-10
        assert abs(o.sum()) < 1e-10


def test_gabor_quarter_turn_is_rotated_kernel():
    p = GaborParams()
    for theta in (0.0, math.pi / 8, math.pi / 2):
        a = make_gabor(p, theta, p.size, "even")
        b = make_gabor(p, theta + math.pi / 2, p.size, "even")
        assert min(
            np.abs(b - np.rot90(a, 1)).max(), np.abs(b - np.rot90(a, -1)).max()
        ) < 1e-12


def test_gabor_size_override_and_default():
    assert GaborParams().size == odd_size_for(6 * 2.24 + 1)
    assert make_gabor(GaborParams(), 0.0, 9).shape == (9, 9)


def test_gabor_param_validation():
    with pytest.raises(ValueError):
        GaborParams(sigma=-1.0)
    with pytest.raises(ValueError):
        make_gabor(GaborParams(), 0.0, 8)
    with pytest.raises(ValueError):
        make_gabor(GaborParams(), 0.0, 9, parity="diagonal")


def test_gabor_bank_is_the_kernels_by_orientation_and_parity():
    p = GaborParams(sigma=1.5, gamma=0.7, omega=0.9)
    thetas = (0.0, 0.4, 2.0)
    for parity in ("odd", "even"):
        bank = gabor_bank(p, thetas, 11, parity)
        assert bank.shape == (3, 11, 11)
        for ti, theta in enumerate(thetas):
            assert np.array_equal(bank[ti], make_gabor(p, theta, 11, parity))


# ------------------------------------------------------- complex response

def test_complex_response_constant_image_is_zero():
    for out in compute_orientation_channels(np.full((32, 32), 0.4), *CARRIER):
        assert np.abs(out).max() < 1e-10


def test_complex_response_contrast_inversion_invariant():
    rng = np.random.default_rng(0)
    img = rng.random((32, 32))
    a = compute_orientation_channels(img, *CARRIER)
    b = compute_orientation_channels(1.0 - img, *CARRIER)
    assert np.abs(np.array(a) - np.array(b)).max() < 1e-10


def test_complex_response_vertical_edge_ridge_at_pi_half():
    img = vertical_step()
    out = compute_orientation_channels(img, *CARRIER)[ORIENTATIONS.index(math.pi / 2)]
    row = out[32]
    ridge = max(row[31], row[32])
    assert ridge > 5 * row[32 - 10]
    assert ridge > 5 * row[32 + 10]
    assert abs(int(np.argmax(row)) - 32) <= 1


def test_complex_response_nonnegative():
    rng = np.random.default_rng(1)
    out = compute_orientation_channels(rng.random((24, 24)), *CARRIER)
    assert min(m.min() for m in out) >= 0.0


# ------------------------------------------------------- center-surround

def test_dog_center_value_matches_formula():
    p = DoGParams()
    k = make_center_surround(p, p.size)
    h = k.shape[0] // 2
    formula = 1 / (2 * math.pi * p.sigma_in**2) - 1 / (2 * math.pi * p.sigma_out**2)
    # the zero-sum correction shifts every cell by the (tiny) kernel mean
    assert k[h, h] == pytest.approx(formula, abs=1e-3)
    assert k[h, h] > 0


def test_dog_zero_sum_and_radial_symmetry():
    k = make_center_surround(DoGParams(), DoGParams().size)
    assert abs(k.sum()) < 1e-12
    assert np.abs(k - k.T).max() < 1e-12
    assert np.abs(k - k[::-1, ::-1]).max() < 1e-12


def test_dog_default_size_and_validation():
    assert DoGParams().size == odd_size_for(6 * 2.70 + 1)
    with pytest.raises(ValueError):
        DoGParams(sigma_in=3.0, sigma_out=1.0)


# ------------------------------------------------------------- von Mises

def test_von_mises_peak_is_one():
    k = make_von_mises(0.9, 2.0, ring_size(2.0))
    assert k.max() == pytest.approx(1.0)
    assert k.min() > 0


def test_von_mises_mirror_symmetric_about_direction_axis():
    # axis pi/2: mirror is a column flip; axis pi/4: mirror is transpose
    k = make_von_mises(math.pi / 2, 2.0, ring_size(2.0))
    assert np.abs(k - k[:, ::-1]).max() < 1e-10
    k = make_von_mises(math.pi / 4, 2.0, ring_size(2.0))
    assert np.abs(k - k.T).max() < 1e-10


def test_von_mises_ring_points_equal_along_and_against():
    # on the ring rho == r0 the radial factor vanishes for both points
    x, y = np.mgrid[-6:7, -6:7][1], np.mgrid[-6:7, -6:7][0]
    k = make_von_mises(0.0, 2.0, 13)
    along = k[6, 6 + 2]
    against = k[6, 6 - 2]
    assert along == pytest.approx(against, abs=1e-12)


def test_von_mises_mass_leans_toward_direction():
    k = make_von_mises(math.pi / 2, 2.0, 13)
    h = k.shape[0] // 2
    assert k[h + 1 :, :].sum() > k[: h, :].sum()


def test_von_mises_default_size_and_validation():
    assert ring_size(2.0) == 13
    with pytest.raises(ValueError, match="r0 must be positive"):
        PipelineParams(ring_radius=-2.0)


# -------------------------------------------------------------- bessel_i0

def test_bessel_i0_against_quadrature_oracle():
    # I0(z) = (1/pi) * integral_0^pi exp(z cos t) dt, checked on the I0
    # that make_von_mises normalizes with
    ts = np.linspace(0.0, math.pi, 20001)
    for z in (0.0, 0.5, 2.0, 7.5, 15.0):
        oracle = np.trapezoid(np.exp(z * np.cos(ts)), ts) / math.pi
        assert filters.i0(z) == pytest.approx(oracle, rel=1e-10)


def test_bessel_i0_even_and_at_zero():
    assert filters.i0(0.0) == pytest.approx(1.0)
    assert filters.i0(-3.2) == pytest.approx(float(filters.i0(3.2)))


# ----------------------------------------------------------- size helpers

def test_odd_size_for():
    assert odd_size_for(14.44) == 15
    assert odd_size_for(13.0) == 13
    assert odd_size_for(1.0) == 3


def test_clamp_kernel_size():
    assert clamp_kernel_size(13, (64, 64)) == 13
    assert clamp_kernel_size(13, (10, 20)) == 9
    assert clamp_kernel_size(13, (4, 4)) == 3
    assert clamp_kernel_size(13, (2, 2)) == 1
    with pytest.raises(ValueError):
        clamp_kernel_size(13, (1, 1))
