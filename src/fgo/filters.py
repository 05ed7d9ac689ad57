"""Filter kernel factories and the oriented complex response.

Kernels are built on a centered odd-sized lattice where the cell at
offset ``(row, col)`` has coordinates ``x = col`` and ``y = row``, matching
the package-wide frame (angle a -> direction (cos a, sin a) = (dx, dy)).

An orientation ``theta`` always names the direction an edge runs, so a
kernel tuned to ``theta = pi/2`` responds to vertical edges. The Gabor
carrier therefore runs across the stated orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0

from .grid import correlate2d


def odd_size_for(extent: float, minimum: int = 3) -> int:
    """Next odd integer >= extent (and >= minimum)."""
    size = max(minimum, math.ceil(extent))
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
    theta: float
    sigma: float = 2.24
    gamma: float = 0.5
    omega: float = 1.57
    size: int | None = None

    def __post_init__(self):
        if self.sigma <= 0 or self.gamma <= 0 or self.omega <= 0:
            raise ValueError("sigma, gamma and omega must all be positive")
        if self.size is not None and (self.size < 1 or self.size % 2 == 0):
            raise ValueError(f"size must be a positive odd integer, got {self.size}")

    def resolved_size(self) -> int:
        if self.size is not None:
            return self.size
        return odd_size_for(6 * self.sigma + 1)


def make_gabor(params: GaborParams, parity: str = "even", dc_correct: bool = True) -> np.ndarray:
    """Gabor kernel elongated along ``theta`` with the carrier across it.

    ``exp(-(X^2 + gamma^2 Y^2) / (2 sigma^2)) * cos(omega X)`` (or ``sin``
    for the odd parity), with ``X`` the coordinate across the orientation
    and ``Y`` along it. The even kernel is mean-subtracted so a constant
    input yields no response; the odd kernel sums to zero by antisymmetry.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    x, y = _lattice(params.resolved_size())
    across = -x * math.sin(params.theta) + y * math.cos(params.theta)
    along = x * math.cos(params.theta) + y * math.sin(params.theta)
    envelope = np.exp(
        -(across**2 + (params.gamma**2) * along**2) / (2 * params.sigma**2)
    )
    if parity == "even":
        kernel = envelope * np.cos(params.omega * across)
        if dc_correct:
            kernel = kernel - kernel.mean()
        return kernel
    return envelope * np.sin(params.omega * across)


def complex_response(image, params: GaborParams) -> np.ndarray:
    """Orientation energy: magnitude of the even/odd quadrature pair."""
    even = correlate2d(image, make_gabor(params, "even"))
    odd = correlate2d(image, make_gabor(params, "odd"))
    return np.hypot(even, odd)


@dataclass(frozen=True)
class DoGParams:
    sigma_in: float = 0.90
    sigma_out: float = 2.70
    size: int | None = None

    def __post_init__(self):
        if not 0 < self.sigma_in < self.sigma_out:
            raise ValueError(
                f"need 0 < sigma_in < sigma_out, got {self.sigma_in}, {self.sigma_out}"
            )
        if self.size is not None and (self.size < 1 or self.size % 2 == 0):
            raise ValueError(f"size must be a positive odd integer, got {self.size}")

    def resolved_size(self) -> int:
        if self.size is not None:
            return self.size
        return odd_size_for(6 * self.sigma_out + 1)


def make_center_surround(params: DoGParams, polarity: str = "on") -> np.ndarray:
    """Isotropic difference-of-Gaussians center-surround kernel.

    The on-center kernel is the normalized inner Gaussian minus the
    normalized outer one, mean-subtracted so that truncation leaves the
    kernel exactly zero-sum (a flat region then drives neither polarity).
    The off-center kernel is its negation.
    """
    if polarity not in ("on", "off"):
        raise ValueError(f"polarity must be 'on' or 'off', got {polarity!r}")
    x, y = _lattice(params.resolved_size())
    rho2 = x**2 + y**2
    inner = np.exp(-rho2 / (2 * params.sigma_in**2)) / (2 * math.pi * params.sigma_in**2)
    outer = np.exp(-rho2 / (2 * params.sigma_out**2)) / (2 * math.pi * params.sigma_out**2)
    on = inner - outer
    on = on - on.mean()
    return on if polarity == "on" else -on


@dataclass(frozen=True)
class VonMisesParams:
    bo_direction: float
    r0: float = 2.0
    size: int | None = None
    form: str = "cosine"

    def __post_init__(self):
        if self.r0 <= 0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if self.form not in ("cosine", "printed"):
            raise ValueError(f"form must be 'cosine' or 'printed', got {self.form!r}")
        if self.size is not None and (self.size < 1 or self.size % 2 == 0):
            raise ValueError(f"size must be a positive odd integer, got {self.size}")

    def resolved_size(self) -> int:
        if self.size is not None:
            return self.size
        return odd_size_for(4 * self.r0 + 5)


def make_von_mises(params: VonMisesParams) -> np.ndarray:
    """Annular kernel concentrated on a radius-r0 ring toward bo_direction.

    ``exp((rho - r0) * cos(phi - bo_direction)) / I0(|rho - r0|)``,
    normalized to a peak of one. ``phi`` is the full-quadrant cell angle.
    The 'printed' form uses ``sin`` in place of ``cos``; it is kept as a
    switch for sensitivity checks but is not mirror-symmetric about the
    ownership direction, so the cosine form is the default.
    """
    x, y = _lattice(params.resolved_size())
    rho = np.hypot(x, y)
    phi = np.arctan2(y, x)
    radial = rho - params.r0
    rel = phi - params.bo_direction
    angular = np.cos(rel) if params.form == "cosine" else np.sin(rel)
    kernel = np.exp(radial * angular) / i0(np.abs(radial))
    return kernel / kernel.max()
