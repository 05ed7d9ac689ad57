"""Filter kernel factories.

Kernels are built on a centered odd-sized lattice where the cell at
offset ``(row, col)`` has coordinates ``x = col`` and ``y = row``, matching
the package-wide frame (angle a -> direction (cos a, sin a) = (dx, dy)).

An orientation ``theta`` always names the direction an edge runs, so a
kernel tuned to ``theta = pi/2`` responds to vertical edges. The Gabor
carrier therefore runs across the stated orientation.

A settings class (:class:`GaborParams`, :class:`DoGParams`) holds only
what every kernel of a bank shares, and names its nominal support as
``size``. A factory takes each kernel's own values as arguments: its
orientation or ownership direction, and its odd ``size``, which a
pyramid level clamps to fit (:func:`clamp_kernel_size`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0


def odd_size_for(extent: float) -> int:
    """Next odd integer >= extent, and at least 3."""
    size = max(3, math.ceil(extent))
    return size if size % 2 == 1 else size + 1


def clamp_kernel_size(size: int, shape) -> int:
    """Largest odd size <= ``size`` strictly smaller than both map dims.

    Keeps kernel factories usable at coarse pyramid levels where the
    nominal support would not fit the map.
    """
    limit = min(shape) - 1
    if limit < 1:
        raise ValueError(f"map {shape} too small for any kernel")
    fit = min(size, limit)
    if fit % 2 == 0:
        fit -= 1
    return max(fit, 1)


def _lattice(size: int):
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be a positive odd integer, got {size}")
    half = size // 2
    y, x = np.mgrid[-half : half + 1, -half : half + 1].astype(float)
    return x, y


@dataclass(frozen=True)
class GaborParams:
    """One Gabor's settings, shared by every kernel of a bank."""

    sigma: float = 2.24
    gamma: float = 0.5
    omega: float = 1.57

    def __post_init__(self):
        if not (self.sigma > 0 and self.gamma > 0 and self.omega > 0):
            raise ValueError("sigma, gamma and omega must all be positive")

    @property
    def size(self) -> int:
        """The nominal odd support, covering three sigmas each way."""
        return odd_size_for(6 * self.sigma + 1)


def make_gabor(params: GaborParams, theta: float, size: int, parity: str = "even") -> np.ndarray:
    """Gabor kernel of odd ``size`` elongated along ``theta`` with the
    carrier across it.

    ``exp(-(X^2 + gamma^2 Y^2) / (2 sigma^2)) * cos(omega X)`` (or ``sin``
    for the odd parity), with ``X`` the coordinate across the orientation
    and ``Y`` along it. The even kernel is mean-subtracted so a constant
    input yields no response; the odd kernel sums to zero by antisymmetry.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    x, y = _lattice(size)
    across = -x * math.sin(theta) + y * math.cos(theta)
    along = x * math.cos(theta) + y * math.sin(theta)
    envelope = np.exp(
        -(across**2 + (params.gamma**2) * along**2) / (2 * params.sigma**2)
    )
    if parity == "even":
        kernel = envelope * np.cos(params.omega * across)
        return kernel - kernel.mean()
    return envelope * np.sin(params.omega * across)


def gabor_bank(params: GaborParams, thetas, size: int, parity: str) -> np.ndarray:
    """The ``(len(thetas), size, size)`` bank of :func:`make_gabor`
    kernels of one ``parity``, one per orientation. A quadrature bank
    stacks an even and an odd bank
    (``channels.compute_orientation_channels``)."""
    return np.array([make_gabor(params, theta, size, parity) for theta in thetas])


@dataclass(frozen=True)
class DoGParams:
    sigma_in: float = 0.90
    sigma_out: float = 2.70

    def __post_init__(self):
        if not 0 < self.sigma_in < self.sigma_out:
            raise ValueError(
                f"need 0 < sigma_in < sigma_out, got {self.sigma_in}, {self.sigma_out}"
            )

    @property
    def size(self) -> int:
        """The nominal odd support, covering three outer sigmas each way."""
        return odd_size_for(6 * self.sigma_out + 1)


def make_center_surround(params: DoGParams, size: int) -> np.ndarray:
    """Isotropic on-center difference-of-Gaussians kernel of odd ``size``.

    The normalized inner Gaussian minus the normalized outer one,
    mean-subtracted so that truncation leaves the kernel exactly
    zero-sum (a flat region then drives neither polarity). Off-center
    evidence is the rectified negation of this kernel's response.
    """
    x, y = _lattice(size)
    rho2 = x**2 + y**2
    inner = np.exp(-rho2 / (2 * params.sigma_in**2)) / (2 * math.pi * params.sigma_in**2)
    outer = np.exp(-rho2 / (2 * params.sigma_out**2)) / (2 * math.pi * params.sigma_out**2)
    on = inner - outer
    return on - on.mean()


def ring_size(r0: float) -> int:
    """The nominal odd support of a radius-``r0`` ring kernel."""
    return odd_size_for(4 * r0 + 5)


def make_von_mises(direction: float, r0: float, size: int) -> np.ndarray:
    """Annular kernel of odd ``size`` concentrated on a radius-r0 ring
    toward ``direction``.

    ``exp((rho - r0) * cos(phi - direction)) / I0(|rho - r0|)``,
    normalized to a peak of one. ``phi`` is the full-quadrant cell angle,
    so the kernel is mirror-symmetric about the ownership direction.
    """
    x, y = _lattice(size)
    rho = np.hypot(x, y)
    phi = np.arctan2(y, x)
    radial = rho - r0
    kernel = np.exp(radial * np.cos(phi - direction)) / i0(np.abs(radial))
    return kernel / kernel.max()
