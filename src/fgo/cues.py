"""Local figure-ground cues: spectral anisotropy and T-junctions.

Both cues produce directed maps indexed ``[orientation, side, row, col]``
with eight orientations and two sides per orientation, each side
pointing in its unit direction ``channels.DIRECTIONS[t, s]``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .channels import DIRECTIONS, N_ORIENTATIONS, N_SIDES, compute_orientation_channels
from .filters import GaborParams

log = logging.getLogger(__name__)

# ======================================================================
# spectral anisotropy
# ======================================================================

@dataclass(frozen=True)
class SAParams:
    """Log-Gabor-like bank probing luminance structure beside an edge."""

    min_size: int = 9
    max_size: int = 25
    size_step: int = 2
    gamma: float = 0.8
    sigma_factor: float = 0.6
    n_lobes_even: int = 4
    n_lobes_odd: int = 5

    def __post_init__(self):
        if self.min_size % 2 == 0 or self.min_size < 3:
            raise ValueError(f"min_size must be odd and >= 3, got {self.min_size}")
        if self.max_size < self.min_size:
            raise ValueError(f"max_size must be >= min_size, got {self.max_size}")
        if self.size_step < 2 or self.size_step % 2 != 0:
            raise ValueError(f"size_step must be even and >= 2, got {self.size_step}")
        if not (self.gamma > 0 and self.sigma_factor > 0):
            raise ValueError("gamma and sigma_factor must be positive")
        for name in ("n_lobes_even", "n_lobes_odd"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def sizes(self):
        return tuple(range(self.min_size, self.max_size + 1, self.size_step))

    def frequencies(self, size: int):
        """(even, odd) carrier frequencies pi*n/size for a filter size."""
        return (
            math.pi * self.n_lobes_even / size,
            math.pi * self.n_lobes_odd / size,
        )


def sample_shifted(arr: np.ndarray, drow: float, dcol: float) -> np.ndarray:
    """Bilinear sample of ``arr`` at every cell displaced by (drow, dcol).

    Sample points outside the map contribute zero. The map is padded
    once with zeros, by ``|floor(d)| + 1`` cells per axis, and each of
    the up to four taps ``arr[r + floor(drow) + a, c + floor(dcol) + b]``
    (a, b in {0, 1}; a tap of zero weight is skipped) is a slice of it.
    """
    arr = np.asarray(arr, dtype=np.float64)
    ir, fr = math.floor(drow), drow - math.floor(drow)
    ic, fc = math.floor(dcol), dcol - math.floor(dcol)
    pr, pc = abs(ir) + 1, abs(ic) + 1
    padded = np.pad(arr, ((pr, pr), (pc, pc)))
    tap = lambda a, b: padded[pr + ir + a :, pc + ic + b :][: arr.shape[0], : arr.shape[1]]
    out = (1 - fr) * (1 - fc) * tap(0, 0)
    if fc:
        out += (1 - fr) * fc * tap(0, 1)
    if fr:
        out += fr * (1 - fc) * tap(1, 0)
    if fr and fc:
        out += fr * fc * tap(1, 1)
    rows = np.arange(arr.shape[0]) + drow
    cols = np.arange(arr.shape[1]) + dcol
    out[(rows < 0) | (rows > arr.shape[0] - 1), :] = 0.0
    out[:, (cols < 0) | (cols > arr.shape[1] - 1)] = 0.0
    return out


def compute_sa_maps(intensity, params: SAParams = SAParams()) -> np.ndarray:
    """Directed spectral anisotropy stack of shape (8, 2, rows, cols).

    For every filter size the oriented complex-cell energy of the
    intensity map is sampled half a filter size away on both sides of
    each orientation and accumulated. A shading gradient beside an edge
    makes the two sides differ, which is the figure-direction signal.
    The energy is the orientation channel's
    (``channels.compute_orientation_channels``), at that size, with
    sigma ``sigma_factor * size / 2`` and each parity's own carrier
    frequency (:meth:`SAParams.frequencies`).
    """
    intensity = np.asarray(intensity, dtype=np.float64)
    out = np.zeros((N_ORIENTATIONS, N_SIDES) + intensity.shape)
    for size in params.sizes:
        radius = size / 2.0
        sigma = params.sigma_factor * radius
        even, odd = (GaborParams(sigma, params.gamma, omega) for omega in params.frequencies(size))
        energy = compute_orientation_channels(intensity, even, odd, size)
        for ti in range(N_ORIENTATIONS):
            for si, (dx, dy) in enumerate(DIRECTIONS[ti]):
                out[ti, si] += sample_shifted(energy[ti], radius * dy, radius * dx)
    return out


# ======================================================================
# T-junctions
# ======================================================================
# label_maps is the one label-map check: prepare_components runs it before
# any filtering, and the public detect_t_junctions and build_tj_maps run it
# on their own input; the functions below them take the checked int64 maps.

@dataclass(frozen=True)
class TJParams:
    area_mask_radius: int = 6
    angle_track_length: int = 7
    trace_search_radius: int = 3
    influence_radius: int = 15
    probe_min: int = 1
    probe_max: int = 3
    orientation_fit_radius: int = 3
    y_sector_center: float = 120.0
    y_sector_halfwidth: float = 10.0
    arrow_sector_threshold: float = 180.0

    def __post_init__(self):
        if not self.angle_track_length >= 3:
            raise ValueError("angle_track_length must be at least 3")
        if not 1 <= self.probe_min <= self.probe_max:
            raise ValueError("need 1 <= probe_min <= probe_max")
        # a negative radius would select no pixel of its disk
        for name in ("area_mask_radius", "trace_search_radius", "influence_radius",
                     "orientation_fit_radius"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # the junction's sectors are angles that sum to 360 degrees
        for name in ("y_sector_center", "y_sector_halfwidth", "arrow_sector_threshold"):
            if not 0 <= getattr(self, name) <= 360:
                raise ValueError(f"{name} must lie in [0, 360] degrees, got {getattr(self, name)}")


@dataclass(frozen=True)
class TJunction:
    row: int
    col: int
    contour_ids: tuple
    region_ids: tuple
    figure_region: int | None
    hat_by_area: tuple | None
    hat_by_angle: tuple | None
    sectors: tuple | None
    matched: bool
    rejected: str  # none | yJunction | arrowJunction | tie


def label_maps(contours, segments, shape=None):
    """The contour and segment maps as int64 arrays, checked.

    Each must be a non-empty 2D array of non-negative integers (0 means
    unlabeled), the two must share their shape, and each must match the
    image's ``(rows, cols)`` ``shape`` when one is given.
    """
    maps = []
    for name, values in (("contours", contours), ("segments", segments)):
        arr = np.asarray(values)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"{name} must be a non-empty 2D array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name} must hold integers")
        if arr.min() < 0:
            raise ValueError(f"{name} must be non-negative (0 means unlabeled)")
        if shape is not None and arr.shape != shape:
            raise ValueError(
                f"the {name[:-1]} map is {arr.shape[0]}x{arr.shape[1]} but the image is "
                f"{shape[0]}x{shape[1]}: label maps must match the image"
            )
        maps.append(arr.astype(np.int64, copy=False))
    if maps[0].shape != maps[1].shape:
        raise ValueError("contour and segmentation maps must share dimensions")
    return maps


def _distinct_nonzero_counts(labels: np.ndarray, radius: int) -> np.ndarray:
    """Per cell: number of distinct nonzero labels in the (2r+1)^2 window."""
    padded = np.pad(labels, radius, constant_values=0)
    rows, cols = labels.shape
    span = 2 * radius + 1
    stack = np.stack(
        [
            padded[di : di + rows, dj : dj + cols]
            for di in range(span)
            for dj in range(span)
        ]
    )
    stack.sort(axis=0)
    first_seen = np.ones_like(stack, dtype=bool)
    first_seen[1:] = stack[1:] != stack[:-1]
    return ((stack != 0) & first_seen).sum(axis=0)


def _window_ids(labels, row, col, radius):
    """Sorted distinct nonzero labels of the square window, clipped to the map."""
    ids = np.unique(labels[max(0, row - radius) : row + radius + 1,
                           max(0, col - radius) : col + radius + 1])
    return tuple(int(v) for v in ids if v)


def _disk_pixels(labels, row, col, radius, ids):
    """(rows, cols) of the pixels labelled with one of ``ids`` in the disk
    of ``radius`` around (row, col), clipped to the map, in row-major order.

    Only the disk's bounding window of ``labels`` is read.
    """
    r0, c0 = max(0, row - radius), max(0, col - radius)
    window = labels[r0 : row + radius + 1, c0 : col + radius + 1]
    dr = np.arange(r0, r0 + window.shape[0])[:, None] - row
    dc = np.arange(c0, c0 + window.shape[1]) - col
    in_disk = dr**2 + dc**2 <= radius**2
    rows, cols = np.nonzero(in_disk & (window[..., None] == ids).any(axis=2))
    return rows + r0, cols + c0


def _chained_groups(mask: np.ndarray):
    """The pixels of ``mask`` in row-major order, and each one's group.

    A group is a chain of pixels each within two pixels (Chebyshev
    distance) of the next. Groups are numbered from 0 in the row-major
    order of their first pixels.
    """
    # every pixel grown by a 2x2 box toward +row and +col: two boxes touch
    # (8-connected) exactly when their pixels lie within distance 2, and
    # labels follow the row-major order of each component's first cell
    rows, cols = mask.shape
    grown = np.zeros((rows + 1, cols + 1), dtype=bool)
    for dr in (0, 1):
        for dc in (0, 1):
            grown[dr : dr + rows, dc : dc + cols] |= mask
    pixels = np.argwhere(mask)
    labels = ndimage.label(grown, np.ones((3, 3)))[0]
    return pixels, labels[pixels[:, 0], pixels[:, 1]] - 1


def find_junction_candidates(contours, segments) -> list:
    """Locations where three contour pieces and three regions meet.

    A pixel qualifies when its 3x3 contour neighborhood holds exactly
    three distinct pieces and its 5x5 segmentation neighborhood exactly
    three distinct regions. Qualifying pixels chained within two pixels
    of each other merge into one candidate at their rounded centroid,
    carrying the pieces and regions around its first pixel. Returns
    ``(row, col, contour_ids, region_ids)`` per candidate, in the
    row-major order of the first pixels.
    """
    mask = (_distinct_nonzero_counts(contours, 1) == 3) & (
        _distinct_nonzero_counts(segments, 2) == 3
    )
    pixels, group = _chained_groups(mask)
    sums = np.stack([np.bincount(group, pixels[:, k]) for k in (0, 1)], axis=1)
    centres = np.rint(sums / np.bincount(group)[:, None]).astype(int)
    anchors = pixels[np.unique(group, return_index=True)[1]]
    return [
        (int(row), int(col), _window_ids(contours, ar, ac, 1), _window_ids(segments, ar, ac, 2))
        for (row, col), (ar, ac) in zip(centres, anchors)
    ]


def classify_junction_area(segments, contours, candidate,
                           params: TJParams = TJParams()):
    """Pick the figure region as the one covering most of a small disk.

    ``candidate`` is one ``(row, col, contour_ids, region_ids)`` of
    :func:`find_junction_candidates`. Returns ``(figure_region, hat,
    counts)``, ``counts`` being each region's pixels in the disk; on a
    tie for the most, region and hat are None. The hat is the pair of
    contours leaning on the winning region inside the disk (most contour
    pixels 8-adjacent to winner pixels); the stem only touches the winner
    at the junction point, so it loses.
    """
    row, col, contour_ids, region_ids = candidate
    radius = params.area_mask_radius
    counts = tuple(
        len(_disk_pixels(segments, row, col, radius, [rid])[0]) for rid in region_ids
    )
    if min(counts) == 0:
        raise ValueError(f"region absent from the area disk at ({row}, {col})")
    ranked = sorted(zip(counts, region_ids), reverse=True)
    if ranked[0][0] == ranked[1][0]:
        return None, None, counts
    winner = ranked[0][1]
    near = np.stack(_disk_pixels(segments, row, col, radius, [winner]), axis=1)
    scores = []
    for cid in contour_ids:
        on = np.stack(_disk_pixels(contours, row, col, radius, [cid]), axis=1)
        abutting = (np.abs(on[:, None] - near[None]).max(axis=2) <= 1).any(axis=1)
        scores.append((int(abutting.sum()), cid))
    scores.sort(key=lambda s: (-s[0], s[1]))
    if scores[1][0] == 0:
        raise ValueError(f"fewer than two contours abut region {winner} at ({row}, {col})")
    return winner, tuple(sorted((scores[0][1], scores[1][1]))), counts


def trace_contour(contours, cid: int, row: int, col: int,
                  params: TJParams = TJParams()):
    """Endpoint of the first ``angle_track_length`` pixels of a piece.

    Tracing starts at the piece's pixel closest to the junction and walks
    outward over 8-connected same-id pixels (breadth first, row-major tie
    breaks). Pieces shorter than three pixels are malformed.
    """
    rows, cols = _disk_pixels(contours, row, col, params.trace_search_radius, [cid])
    if not rows.size:
        raise ValueError(f"contour {cid} not found near ({row}, {col})")
    distances = (rows - row) ** 2 + (cols - col) ** 2
    start = min(zip(distances.tolist(), rows.tolist(), cols.tolist()))[1:]
    frontier, seen, traced = [start], {start}, 1
    while traced < params.angle_track_length:
        step = sorted({
            (rr, cc)
            for r, c in frontier
            for rr in range(max(0, r - 1), min(contours.shape[0], r + 2))
            for cc in range(max(0, c - 1), min(contours.shape[1], c + 2))
            if (rr, cc) not in seen and contours[rr, cc] == cid
        })
        if not step:
            break
        seen.update(step)
        frontier, traced = step, traced + 1
    if traced < 3:
        raise ValueError(f"contour {cid} shorter than 3 px near ({row}, {col})")
    return frontier[0]


def classify_junction_angle(contours, candidate, params: TJParams = TJParams()):
    """Classify by the three sector angles between the traced contours.

    Returns ``(hat, sectors, rejected)``. A sector over 180 degrees marks
    an arrow junction and three sectors near 120 degrees a Y junction;
    both are rejected (``rejected`` names which, and ``hat`` is None).
    Otherwise the hat is the pair bounding the largest sector.
    """
    row, col, contour_ids, _ = candidate
    eps = 1e-6
    rays = []
    for cid in contour_ids:
        er, ec = trace_contour(contours, cid, row, col, params)
        rays.append((math.degrees(math.atan2(er - row, ec - col)) % 360.0, cid))
    rays.sort()
    sectors = (
        rays[1][0] - rays[0][0],
        rays[2][0] - rays[1][0],
        360.0 - (rays[2][0] - rays[0][0]),
    )
    largest = max(range(3), key=lambda i: sectors[i])
    if sectors[largest] > params.arrow_sector_threshold + eps:
        return None, sectors, "arrowJunction"
    if all(
        abs(s - params.y_sector_center) <= params.y_sector_halfwidth + eps
        for s in sectors
    ):
        return None, sectors, "yJunction"
    return tuple(sorted((rays[largest][1], rays[(largest + 1) % 3][1]))), sectors, None


def detect_t_junctions(contours, segments,
                       params: TJParams = TJParams()) -> list:
    """Full candidate -> classify -> match pipeline.

    Candidates whose geometry cannot be classified (a region missing from
    the disk, an untraceable contour) are dropped with a log message; Y
    and arrow junctions and area ties are kept as rejected records. A
    junction is matched only when both methods agree on the hat pair.
    """
    contours, segments = label_maps(contours, segments)
    junctions = []
    for cand in find_junction_candidates(contours, segments):
        try:
            figure, hat_by_area, _ = classify_junction_area(segments, contours, cand, params)
            hat_by_angle, sectors, rejected = classify_junction_angle(contours, cand, params)
        except ValueError as err:
            log.info("dropping junction candidate: %s", err)
            continue
        if rejected is None:
            rejected = "tie" if figure is None else "none"
        junctions.append(TJunction(
            *cand,
            figure_region=figure,
            hat_by_area=hat_by_area,
            hat_by_angle=hat_by_angle,
            sectors=sectors,
            matched=rejected == "none" and hat_by_area == hat_by_angle,
            rejected=rejected,
        ))
    return junctions


def contour_orientation(contours, row: int, col: int,
                        fit_radius: int = TJParams.orientation_fit_radius) -> float:
    """Orientation in [0, pi) of the contour through (row, col).

    Total-least-squares line fit over the same-id pixels within the fit
    radius (the principal axis of their scatter). NaN off every contour
    and at an isolated pixel.
    """
    cid = contours[row, col]
    rows, cols = _disk_pixels(contours, row, col, fit_radius, [cid])
    if cid == 0 or rows.size < 2:
        return math.nan
    y = rows - rows.mean()
    x = cols - cols.mean()
    sxx = float((x * x).sum())
    syy = float((y * y).sum())
    sxy = float((x * y).sum())
    return 0.5 * math.atan2(2 * sxy, sxx - syy) % math.pi


def quantize_orientation(theta: float) -> int:
    """Nearest of the eight orientation bins, wrapping pi back to 0."""
    return int(round(theta / (math.pi / N_ORIENTATIONS))) % N_ORIENTATIONS


def build_tj_maps(contours, segments, junctions,
                  params: TJParams = TJParams()) -> np.ndarray:
    """Directed T-junction stack of shape (8, 2, rows, cols).

    Every matched junction paints +1 along its hat contours (within the
    influence radius) into the orientation bin of the local contour
    direction, on the side whose short normal probe lands in the
    junction's figure region. Pixels whose probes hit both sides or
    neither are skipped.
    """
    contours, segments = label_maps(contours, segments)
    out = np.zeros((N_ORIENTATIONS, N_SIDES) + contours.shape)
    steps = range(params.probe_min, params.probe_max + 1)
    for junction in junctions:
        if not junction.matched:
            continue
        hat = _disk_pixels(contours, junction.row, junction.col, params.influence_radius,
                           junction.hat_by_area)
        for row, col in zip(*hat):
            theta = contour_orientation(contours, row, col, params.orientation_fit_radius)
            if math.isnan(theta):
                continue
            ti = quantize_orientation(theta)
            hits = []
            for dx, dy in DIRECTIONS[ti]:
                probes = [(int(round(row + t * dy)), int(round(col + t * dx))) for t in steps]
                hits.append(any(
                    0 <= rr < segments.shape[0] and 0 <= cc < segments.shape[1]
                    and segments[rr, cc] == junction.figure_region
                    for rr, cc in probes
                ))
            if hits[0] != hits[1]:
                out[ti, hits.index(True), row, col] = 1.0
    return out


def format_junction(j: TJunction) -> str:
    """One record per line: x y contours hat figureRegion matched reason."""
    hat = j.hat_by_area or (0, 0)
    return (
        f"{j.col} {j.row} "
        f"{j.contour_ids[0]} {j.contour_ids[1]} {j.contour_ids[2]} "
        f"{hat[0]} {hat[1]} {j.figure_region or 0} "
        f"{int(j.matched)} {j.rejected}"
    )
