import math

import numpy as np
import pytest

from fgo import filters
from fgo.filters import (
    DoGParams,
    GaborParams,
    VonMisesParams,
    clamp_kernel_size,
    complex_response,
    make_center_surround,
    make_gabor,
    make_von_mises,
    odd_size_for,
)


def vertical_step(size=64, col=32, low=0.0, high=1.0):
    img = np.full((size, size), low)
    img[:, col:] = high
    return img


# ------------------------------------------------------------------ gabor

def test_gabor_center_is_one_before_dc_correction():
    k = make_gabor(GaborParams(theta=0.3), "even", dc_correct=False)
    h = k.shape[0] // 2
    assert k[h, h] == pytest.approx(1.0)


def test_gabor_even_point_symmetric_odd_antisymmetric():
    for theta in (0.0, math.pi / 8, 5 * math.pi / 8):
        e = make_gabor(GaborParams(theta=theta), "even")
        o = make_gabor(GaborParams(theta=theta), "odd")
        assert np.abs(e - e[::-1, ::-1]).max() < 1e-12
        assert np.abs(o + o[::-1, ::-1]).max() < 1e-12


def test_gabor_zero_dc():
    for theta in (0.0, math.pi / 4):
        e = make_gabor(GaborParams(theta=theta), "even")
        o = make_gabor(GaborParams(theta=theta), "odd")
        assert abs(e.sum()) < 1e-10
        assert abs(o.sum()) < 1e-10


def test_gabor_quarter_turn_is_rotated_kernel():
    for theta in (0.0, math.pi / 8, math.pi / 2):
        a = make_gabor(GaborParams(theta=theta), "even")
        b = make_gabor(GaborParams(theta=theta + math.pi / 2), "even")
        assert min(
            np.abs(b - np.rot90(a, 1)).max(), np.abs(b - np.rot90(a, -1)).max()
        ) < 1e-12


def test_gabor_size_override_and_default():
    p = GaborParams(theta=0.0)
    assert p.resolved_size() == odd_size_for(6 * 2.24 + 1)
    assert make_gabor(GaborParams(theta=0.0, size=9)).shape == (9, 9)


def test_gabor_param_validation():
    with pytest.raises(ValueError):
        GaborParams(theta=0.0, sigma=-1.0)
    with pytest.raises(ValueError):
        GaborParams(theta=0.0, size=8)
    with pytest.raises(ValueError):
        make_gabor(GaborParams(theta=0.0), parity="diagonal")


# ------------------------------------------------------- complex response

def test_complex_response_constant_image_is_zero():
    out = complex_response(np.full((32, 32), 0.4), GaborParams(theta=0.7))
    assert np.abs(out).max() < 1e-10


def test_complex_response_contrast_inversion_invariant():
    rng = np.random.default_rng(0)
    img = rng.random((32, 32))
    p = GaborParams(theta=math.pi / 8)
    a = complex_response(img, p)
    b = complex_response(1.0 - img, p)
    assert np.abs(a - b).max() < 1e-10


def test_complex_response_vertical_edge_ridge_at_pi_half():
    img = vertical_step()
    out = complex_response(img, GaborParams(theta=math.pi / 2))
    row = out[32]
    ridge = max(row[31], row[32])
    assert ridge > 5 * row[32 - 10]
    assert ridge > 5 * row[32 + 10]
    assert abs(int(np.argmax(row)) - 32) <= 1


def test_complex_response_nonnegative():
    rng = np.random.default_rng(1)
    out = complex_response(rng.random((24, 24)), GaborParams(theta=1.1))
    assert out.min() >= 0.0


# ------------------------------------------------------- center-surround

def test_dog_center_value_matches_formula():
    p = DoGParams()
    k = make_center_surround(p, "on")
    h = k.shape[0] // 2
    formula = 1 / (2 * math.pi * p.sigma_in**2) - 1 / (2 * math.pi * p.sigma_out**2)
    # the zero-sum correction shifts every cell by the (tiny) kernel mean
    assert k[h, h] == pytest.approx(formula, abs=1e-3)
    assert k[h, h] > 0


def test_dog_off_is_negated_on():
    p = DoGParams()
    on = make_center_surround(p, "on")
    off = make_center_surround(p, "off")
    assert np.array_equal(off, -on)


def test_dog_zero_sum_and_radial_symmetry():
    k = make_center_surround(DoGParams(), "on")
    assert abs(k.sum()) < 1e-12
    assert np.abs(k - k.T).max() < 1e-12
    assert np.abs(k - k[::-1, ::-1]).max() < 1e-12


def test_dog_default_size_and_validation():
    assert DoGParams().resolved_size() == odd_size_for(6 * 2.70 + 1)
    with pytest.raises(ValueError):
        DoGParams(sigma_in=3.0, sigma_out=1.0)
    with pytest.raises(ValueError):
        make_center_surround(DoGParams(), polarity="up")


# ------------------------------------------------------------- von Mises

def test_von_mises_peak_is_one():
    for form in ("cosine", "printed"):
        k = make_von_mises(VonMisesParams(bo_direction=0.9, form=form))
        assert k.max() == pytest.approx(1.0)
        assert k.min() > 0


def test_von_mises_mirror_symmetric_about_direction_axis():
    # axis pi/2: mirror is a column flip; axis pi/4: mirror is transpose
    k = make_von_mises(VonMisesParams(bo_direction=math.pi / 2))
    assert np.abs(k - k[:, ::-1]).max() < 1e-10
    k = make_von_mises(VonMisesParams(bo_direction=math.pi / 4))
    assert np.abs(k - k.T).max() < 1e-10


def test_von_mises_ring_points_equal_along_and_against():
    # on the ring rho == r0 the radial factor vanishes for both points
    params = VonMisesParams(bo_direction=0.0, r0=2.0, size=13)
    x, y = np.mgrid[-6:7, -6:7][1], np.mgrid[-6:7, -6:7][0]
    k = make_von_mises(params)
    along = k[6, 6 + 2]
    against = k[6, 6 - 2]
    assert along == pytest.approx(against, abs=1e-12)


def test_von_mises_mass_leans_toward_direction():
    k = make_von_mises(VonMisesParams(bo_direction=math.pi / 2, size=13))
    h = k.shape[0] // 2
    assert k[h + 1 :, :].sum() > k[: h, :].sum()


def test_von_mises_printed_form_differs():
    a = make_von_mises(VonMisesParams(bo_direction=0.0, form="cosine"))
    b = make_von_mises(VonMisesParams(bo_direction=0.0, form="printed"))
    assert np.abs(a - b).max() > 1e-3


def test_von_mises_default_size_and_validation():
    assert VonMisesParams(bo_direction=0.0).resolved_size() == 13
    with pytest.raises(ValueError):
        VonMisesParams(bo_direction=0.0, r0=-2.0)
    with pytest.raises(ValueError):
        VonMisesParams(bo_direction=0.0, form="sine")


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
