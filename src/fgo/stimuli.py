"""Synthetic stimuli with exact figure-ground ground truth.

Every generator returns a :class:`Stimulus`: a grayscale image in
[0, 1], a signed ground-truth map (+1 marks the figure-side boundary
chain, -1 the chain of scored boundary pixels beside it, 0 elsewhere)
and, where the geometry defines them, contour/segmentation label maps;
``cues.detect_t_junctions`` finds the junctions those maps describe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

MIN_SIZE = 32
_BOX = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class Stimulus:
    image: np.ndarray
    signed: np.ndarray
    contours: np.ndarray | None = None
    segments: np.ndarray | None = None


def _check_size(size: int) -> None:
    if size < MIN_SIZE:
        raise ValueError(f"stimulus size must be at least {MIN_SIZE}, got {size}")


def _rim(mask: np.ndarray) -> np.ndarray:
    """Cells of the mask with at least one 8-neighbor outside it."""
    return mask & ~ndimage.binary_erosion(mask, structure=_BOX)


def _paint_figure(signed: np.ndarray, mask: np.ndarray, visible=True) -> None:
    """Mark a figure's rim -1 and its inner rim (the rim of its 3x3
    erosion) +1 where ``visible`` (a mask, or True): the truth of the
    square, the occluder and the occluded square's visible part.

    The chains are disjoint by construction: the inner rim lies inside
    the erosion, which the rim excludes, and the occluded square is
    painted only outside the occluder, whose chains lie inside it.
    """
    inner = ndimage.binary_erosion(mask, structure=_BOX)
    signed[_rim(mask) & visible] = -1
    signed[_rim(inner) & visible] = 1


def isolated_square(
    size: int = 64,
    first: int = 20,
    last: int = 43,
) -> Stimulus:
    """A uniform square figure (0.75) on a uniform ground (0.25)."""
    _check_size(size)
    if not 0 < first < last < size - 1 or last - first < 4:
        raise ValueError(f"square [{first}, {last}] does not fit in {size} px")
    image = np.full((size, size), 0.25)
    mask = np.zeros((size, size), dtype=bool)
    mask[first : last + 1, first : last + 1] = True
    image[mask] = 0.75
    signed = np.zeros((size, size), dtype=np.int64)
    _paint_figure(signed, mask)
    return Stimulus(image=image, signed=signed)


def overlapping_squares(
    size: int = 96,
    a_first: int = 20,
    a_last: int = 60,
    b_first: int = 36,
    b_last: int = 76,
    a_gray: float = 0.35,
    b_gray: float = 0.85,
    background: float = 0.10,
    gradient: float = 0.0,
) -> Stimulus:
    """Square B partially occluding square A, forming two T-junctions.

    The occluder may carry a vertical shading gradient (strongest at its
    top edge, fading over half its height). Contour labels: 1 =
    A's visible boundary, 2 = B's boundary against the background, 3 =
    B's boundary across A. Segment labels: 1 = visible part of A, 2 = B,
    3 = background.
    """
    _check_size(size)
    if not (0 < a_first < b_first <= a_last < b_last < size - 1):
        raise ValueError(
            "need 0 < a_first < b_first <= a_last < b_last < size-1 for an overlap"
        )
    if gradient < 0:
        raise ValueError(f"gradient must be non-negative, got {gradient}")

    a_mask = np.zeros((size, size), dtype=bool)
    a_mask[a_first : a_last + 1, a_first : a_last + 1] = True
    b_mask = np.zeros((size, size), dtype=bool)
    b_mask[b_first : b_last + 1, b_first : b_last + 1] = True
    a_visible = a_mask & ~b_mask

    image = np.full((size, size), float(background))
    image[a_visible] = a_gray
    rows = np.arange(size, dtype=float)[:, None]
    fade = (rows - b_first) / ((b_last - b_first) / 2.0)
    shade = b_gray + gradient * np.maximum(0.0, 1.0 - fade)
    image = np.where(b_mask, shade, image)
    image = np.clip(image, 0.0, 1.0)

    signed = np.zeros((size, size), dtype=np.int64)
    _paint_figure(signed, b_mask)
    _paint_figure(signed, a_mask, visible=~b_mask)

    contours = np.zeros((size, size), dtype=np.int64)
    contours[_rim(a_mask) & ~b_mask] = 1
    contours[_rim(b_mask) & ~a_mask] = 2
    contours[_rim(b_mask) & a_mask] = 3
    segments = np.full((size, size), 3, dtype=np.int64)
    segments[a_visible] = 1
    segments[b_mask] = 2

    return Stimulus(image=image, signed=signed, contours=contours, segments=segments)


def shaded_edge(
    size: int = 64,
    edge_row: int | None = None,
    base: float = 0.4,
    gradient: float = 0.5,
    extent: float = 16.0,
    figure: str = "above",
    ground: float | None = None,
    ramp: str = "toward",
    texture_amp: float = 0.0,
    texture_period: float = 6.0,
) -> Stimulus:
    """A horizontal boundary whose figure side carries shading/texture.

    With ``ramp="toward"`` the figure side brightens by ``gradient``
    right at the boundary and fades back to ``base`` over ``extent``
    rows; ``ramp="away"`` starts at ``base`` on the boundary and
    brightens with distance instead. ``texture_amp`` superposes
    horizontal stripes of the given period on the figure side. The
    ground side is flat at ``ground`` (defaults to ``base``, so the
    boundary contrast then comes entirely from the figure structure).
    With zero gradient and texture and matching levels the image is
    constant. Label maps mark the boundary contour (1) and the two
    half-plane segments (figure 1, ground 2).
    """
    _check_size(size)
    row = size // 2 if edge_row is None else edge_row
    if not 4 <= row <= size - 4:
        raise ValueError(f"edge row {row} too close to the border for {size} px")
    if figure not in ("above", "below"):
        raise ValueError(f"figure must be 'above' or 'below', got {figure!r}")
    if ramp not in ("toward", "away"):
        raise ValueError(f"ramp must be 'toward' or 'away', got {ramp!r}")
    if extent <= 0 or texture_period <= 0:
        raise ValueError("extent and texture_period must be positive")
    ground_level = base if ground is None else ground

    rows = np.arange(size, dtype=float)
    if figure == "above":
        depth = (row - 1) - rows
        fig_mask = rows < row
    else:
        depth = rows - row
        fig_mask = rows >= row
    if ramp == "toward":
        shade = base + gradient * np.maximum(0.0, 1.0 - depth / extent)
    else:
        shade = base + gradient * np.minimum(np.maximum(depth, 0.0) / extent, 1.0)
    shade = shade + texture_amp * np.sin(2.0 * np.pi * rows / texture_period)
    column = np.where(fig_mask, shade, ground_level)
    image = np.clip(np.repeat(column[:, None], size, axis=1), 0.0, 1.0)

    signed = np.zeros((size, size), dtype=np.int64)
    boundary = row - 1 if figure == "above" else row
    inside = row - 2 if figure == "above" else row + 1
    signed[boundary, :] = -1
    signed[inside, :] = 1
    contours = np.zeros((size, size), dtype=np.int64)
    contours[boundary, :] = 1
    segments = np.where(fig_mask, 1, 2).astype(np.int64)[:, None]
    segments = np.repeat(segments, size, axis=1)
    return Stimulus(image=image, signed=signed, contours=contours, segments=segments)


def annulus(
    size: int = 64,
    r_outer: float | None = None,
    r_inner: float | None = None,
) -> Stimulus:
    """A bright ring figure (0.75) on a dark ground (0.25); ground truth
    covers its outer boundary: the ring cells beside the outside (-1)
    and, disjoint from them by construction, the other ring cells
    beside those (+1)."""
    _check_size(size)
    r_out = 0.32 * size if r_outer is None else float(r_outer)
    r_in = r_out - 8.0 if r_inner is None else float(r_inner)
    if not 2.0 <= r_in <= r_out - 3.0 or r_out > (size - 2) / 2.0:
        raise ValueError(
            f"need 2 <= r_inner <= r_outer - 3 and r_outer <= (size-2)/2, "
            f"got inner {r_in}, outer {r_out}"
        )
    center = (size - 1) / 2.0
    rr, cc = np.mgrid[0:size, 0:size]
    dist = np.hypot(rr - center, cc - center)
    mask = (dist <= r_out) & (dist >= r_in)
    image = np.where(mask, 0.75, 0.25)

    outside = dist > r_out
    minus = mask & ndimage.binary_dilation(outside, structure=_BOX)
    plus = mask & ~minus & ndimage.binary_dilation(minus, structure=_BOX)
    signed = np.zeros((size, size), dtype=np.int64)
    signed[minus] = -1
    signed[plus] = 1
    return Stimulus(image=image, signed=signed)


GENERATORS = {
    "isolated-square": isolated_square,
    "overlapping-squares": overlapping_squares,
    "shaded-edge": shaded_edge,
    "annulus": annulus,
}


def generate(kind: str, **params) -> Stimulus:
    """Dispatch to a stimulus generator by its dashed name."""
    try:
        maker = GENERATORS[kind]
    except KeyError:
        known = ", ".join(sorted(GENERATORS))
        raise ValueError(f"unknown stimulus kind {kind!r} (known: {known})") from None
    return maker(**params)
