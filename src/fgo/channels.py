"""Feature channels: intensity, color opponency and orientation energy.

The image is one plain (3, rows, cols) RGB array in [0, 1], or a
(rows, cols) gray map standing for its three equal channels;
:func:`as_image` is its one check, run where an image enters the model.
The thirteen sub-channel maps are plain arrays that the ownership
stage consumes: the intensity map, the (4, rows, cols) opponency stack
(RG, GR, BY, YB) and the (8, rows, cols) orientation energies, each
map decomposed into a pyramid by ``grid.pyramid_levels``.
The eight orientation energies are the carriers of every route and are
pyramided once, as one list of (8, rows, cols) levels; each
isotropic feature's pyramid is built level by level as its route reads
it. :func:`compute_orientation_channels` is the one quadrature-energy
builder: spectral anisotropy (``cues.compute_sa_maps``) samples the
same energy, at its own filter sizes, beside each edge.
"""

from __future__ import annotations

import math

import numpy as np

from .filters import GaborParams, gabor_bank
from .grid import correlate_stack

N_ORIENTATIONS = 8
N_SIDES = 2
ORIENTATIONS = tuple(i * math.pi / N_ORIENTATIONS for i in range(N_ORIENTATIONS))


def bo_direction(orientation_index: int, side_index: int) -> float:
    """Ownership direction angle of an (orientation, side) pair: side 0
    is ``theta + pi/2`` and side 1 is ``theta - pi/2``, in the package
    frame (angle a -> (dx, dy) = (cos a, sin a), y down the rows)."""
    return ORIENTATIONS[orientation_index] + (1.0, -1.0)[side_index] * math.pi / 2


# the unit ownership directions, (8, 2, 2): DIRECTIONS[t, s] is (dx, dy) =
# (cos, sin) of bo_direction(t, s), the one table every module steps along
DIRECTIONS = np.array([
    [[math.cos(a), math.sin(a)] for a in (bo_direction(t, s) for s in range(N_SIDES))]
    for t in range(N_ORIENTATIONS)
])
DIRECTIONS.flags.writeable = False


def as_image(values) -> np.ndarray:
    """The one image check: ``values`` as a (3, rows, cols) float64 RGB
    array, returned as a read-only view (``np.broadcast_to``): a
    (3, rows, cols) array passes through, and a (rows, cols) gray map
    becomes its three equal channels without a copy. Any other shape, an
    empty image, or a value outside [0, 1], which every non-finite value
    is, is refused, naming the limit."""
    image = np.asarray(values, dtype=np.float64)
    if image.ndim < 2 or image.shape[:-2] not in ((), (3,)) or image.size == 0:
        raise ValueError(
            f"an image must be a non-empty (rows, cols) gray map or a (3, rows, cols) "
            f"RGB array, got shape {image.shape}"
        )
    low, high = image.min(), image.max()
    if not (low >= 0 and high <= 1):  # a NaN fails both comparisons
        raise ValueError(f"image values must lie in [0, 1], got values in [{low:g}, {high:g}]")
    return np.broadcast_to(image, (3,) + image.shape[-2:])


def compute_intensity(image) -> np.ndarray:
    """The mean of a (3, rows, cols) image's channels."""
    return (image[0] + image[1] + image[2]) / 3.0


def compute_color_opponency(image, intensity) -> np.ndarray:
    """Rectified double-opponency maps of a (3, rows, cols) image, one
    (4, rows, cols) array in the order RG, GR, BY, YB.

    r, g, b are first normalized by ``intensity``, the image's
    :func:`compute_intensity` map, wherever it exceeds a tenth of its
    image-wide maximum (zero elsewhere, which decouples hue from
    brightness while muting the unstable dark pixels), then combined
    into rectified broadly-tuned R, G, B, Y responses and finally into
    the four opponency differences.
    """
    cutoff = 0.1 * intensity.max()
    safe = intensity > cutoff
    denom = np.where(safe, intensity, 1.0)
    r = np.where(safe, image[0] / denom, 0.0)
    g = np.where(safe, image[1] / denom, 0.0)
    b = np.where(safe, image[2] / denom, 0.0)
    red = np.maximum(0.0, r - (g + b) / 2)
    green = np.maximum(0.0, g - (r + b) / 2)
    blue = np.maximum(0.0, b - (r + g) / 2)
    yellow = np.maximum(0.0, (r + g) / 2 - np.abs(r - g) / 2 - b)
    return np.maximum(0.0, np.stack([red - green, green - red, blue - yellow, yellow - blue]))


def compute_orientation_channels(intensity, even: GaborParams, odd: GaborParams, size: int):
    """Complex-cell energy of the intensity map at the eight
    orientations, an (8, rows, cols) array.

    The energy is the magnitude ``hypot(even, odd)`` of the quadrature
    pair: the map is correlated with one (8, 2) bank of size ``size``,
    the even Gabors of ``even`` beside the odd Gabors of ``odd``
    (:func:`gabor_bank`, :func:`correlate_stack`), so it is transformed
    once. The carriers use one ``GaborParams`` for both parities; SA
    gives each parity its own carrier frequency.
    """
    bank = np.stack([gabor_bank(even, ORIENTATIONS, size, "even"),
                     gabor_bank(odd, ORIENTATIONS, size, "odd")], axis=1)
    responses = correlate_stack(intensity, bank)
    return np.hypot(responses[:, 0], responses[:, 1])


def compute_channels(image, gabor: GaborParams = GaborParams()) -> tuple:
    """``(intensity, opponency, orientation)`` of a (3, rows, cols)
    image (:func:`as_image`): the intensity map, computed once, the
    (4, rows, cols) opponency stack and the (8, rows, cols) orientation
    energies, all non-negative and of the image's dimensions."""
    intensity = compute_intensity(image)
    return (
        intensity,
        compute_color_opponency(image, intensity),
        compute_orientation_channels(intensity, gabor, gabor, gabor.size),
    )
