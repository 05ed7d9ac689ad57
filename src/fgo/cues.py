"""Local figure-ground cues: spectral anisotropy and T-junctions.

Both cues produce directed maps indexed ``[orientation, side, row, col]``
with eight orientations and two sides per orientation, each side
pointing in its ``channels.bo_direction``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .channels import N_ORIENTATIONS, ORIENTATIONS, bo_direction
from .filters import GaborParams, make_gabor
from .grid import correlate_stack

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
        if self.gamma <= 0 or self.sigma_factor <= 0:
            raise ValueError("gamma and sigma_factor must be positive")

    @property
    def sizes(self):
        return tuple(range(self.min_size, self.max_size + 1, self.size_step))

    def frequencies(self, size: int):
        """(even, odd) carrier frequencies pi*n/size for a filter size."""
        return (
            math.pi * self.n_lobes_even / size,
            math.pi * self.n_lobes_odd / size,
        )


def integer_shift(arr: np.ndarray, drow: int, dcol: int) -> np.ndarray:
    """``out[r, c] = arr[r + drow, c + dcol]`` with zeros off the map."""
    out = np.zeros_like(arr)
    rows, cols = arr.shape
    r0, r1 = max(0, drow), min(rows, rows + drow)
    c0, c1 = max(0, dcol), min(cols, cols + dcol)
    if r0 < r1 and c0 < c1:
        out[r0 - drow : r1 - drow, c0 - dcol : c1 - dcol] = arr[r0:r1, c0:c1]
    return out


def sample_shifted(arr: np.ndarray, drow: float, dcol: float) -> np.ndarray:
    """Bilinear sample of ``arr`` at every cell displaced by (drow, dcol).

    Sample points outside the map contribute zero.
    """
    arr = np.asarray(arr, dtype=np.float64)
    ir, fr = math.floor(drow), drow - math.floor(drow)
    ic, fc = math.floor(dcol), dcol - math.floor(dcol)
    out = (1 - fr) * (1 - fc) * integer_shift(arr, ir, ic)
    if fc:
        out += (1 - fr) * fc * integer_shift(arr, ir, ic + 1)
    if fr:
        out += fr * (1 - fc) * integer_shift(arr, ir + 1, ic)
    if fr and fc:
        out += fr * fc * integer_shift(arr, ir + 1, ic + 1)
    rows = np.arange(arr.shape[0]) + drow
    cols = np.arange(arr.shape[1]) + dcol
    out[(rows < 0) | (rows > arr.shape[0] - 1), :] = 0.0
    out[:, (cols < 0) | (cols > arr.shape[1] - 1)] = 0.0
    return out


def compute_sa_maps(intensity, params: SAParams = SAParams()) -> np.ndarray:
    """Directed spectral anisotropy stack of shape (8, 2, rows, cols).

    For every filter size the oriented complex magnitude of the intensity
    map is sampled half a filter size away on both sides of each
    orientation and accumulated. A shading gradient beside an edge makes
    the two sides differ, which is the figure-direction signal.
    """
    intensity = np.asarray(intensity, dtype=np.float64)
    out = np.zeros((N_ORIENTATIONS, 2) + intensity.shape)
    for size in params.sizes:
        radius = size / 2.0
        sigma = params.sigma_factor * radius
        # one (8, 2) bank per size, [orientation, even/odd]: the
        # intensity map is transformed once for all sixteen filters
        bank = np.array([
            [
                make_gabor(GaborParams(theta=theta, sigma=sigma, gamma=params.gamma,
                                       omega=omega, size=size), parity)
                for omega, parity in zip(params.frequencies(size), ("even", "odd"))
            ]
            for theta in ORIENTATIONS
        ])
        responses = correlate_stack(intensity, bank)
        for ti in range(N_ORIENTATIONS):
            magnitude = np.hypot(responses[ti, 0], responses[ti, 1])
            for si in range(2):
                phi = bo_direction(ti, si)
                dx, dy = math.cos(phi), math.sin(phi)
                out[ti, si] += sample_shifted(magnitude, radius * dy, radius * dx)
    return out


# ======================================================================
# T-junctions
# ======================================================================

@dataclass(frozen=True)
class TJParams:
    area_mask_radius: int = 6
    angle_track_length: int = 7
    candidate_merge_radius: int = 2
    trace_search_radius: int = 3
    influence_radius: int = 15
    probe_min: int = 1
    probe_max: int = 3
    orientation_fit_radius: int = 3
    y_sector_center: float = 120.0
    y_sector_halfwidth: float = 10.0
    arrow_sector_threshold: float = 180.0

    def __post_init__(self):
        if self.angle_track_length < 3:
            raise ValueError("angle_track_length must be at least 3")
        if self.probe_min < 1 or self.probe_max < self.probe_min:
            raise ValueError("need 1 <= probe_min <= probe_max")


@dataclass(frozen=True)
class Candidate:
    row: int
    col: int
    contour_ids: tuple
    region_ids: tuple


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

    @property
    def x(self) -> int:
        return self.col

    @property
    def y(self) -> int:
        return self.row


def as_labels(values, name: str = "labels") -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 2D array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} must hold integers")
    if arr.min() < 0:
        raise ValueError(f"{name} must be non-negative (0 means unlabeled)")
    return arr.astype(np.int64, copy=False)


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


def _disk_offsets(radius: int):
    span = np.arange(-radius, radius + 1)
    dr, dc = np.meshgrid(span, span, indexing="ij")
    keep = dr**2 + dc**2 <= radius**2
    return dr[keep], dc[keep]


def _window_ids(labels, row, col, radius, nonzero=True):
    r0, r1 = max(0, row - radius), min(labels.shape[0], row + radius + 1)
    c0, c1 = max(0, col - radius), min(labels.shape[1], col + radius + 1)
    ids = np.unique(labels[r0:r1, c0:c1])
    return tuple(int(v) for v in ids if v != 0 or not nonzero)


def _merge_within(pixels: np.ndarray, radius: int) -> list:
    """Group (row, col) pixels whose Chebyshev distance is <= radius.

    Transitive closure via union-find; groups come out in the row-major
    order of their first member.
    """
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


def find_junction_candidates(contours, segments) -> list:
    """Locations where three contour pieces and three regions meet.

    A pixel qualifies when its 3x3 contour neighborhood holds exactly
    three distinct pieces and its 5x5 segmentation neighborhood exactly
    three distinct regions; qualifying pixels within two pixels of each
    other merge into one candidate at their rounded centroid.
    """
    contours = as_labels(contours, "contours")
    segments = as_labels(segments, "segments")
    if contours.shape != segments.shape:
        raise ValueError("contour and segmentation maps must share dimensions")
    mask = (_distinct_nonzero_counts(contours, 1) == 3) & (
        _distinct_nonzero_counts(segments, 2) == 3
    )
    if not mask.any():
        return []
    pixels_all = np.argwhere(mask)  # row-major order
    candidates = []
    for pixels in _merge_within(pixels_all, radius=2):
        row, col = (int(v) for v in np.rint(pixels.mean(axis=0)))
        anchor_r, anchor_c = (int(v) for v in pixels[0])
        cids = _window_ids(contours, anchor_r, anchor_c, 1)
        rids = _window_ids(segments, anchor_r, anchor_c, 2)
        if len(cids) != 3 or len(rids) != 3:
            continue
        candidates.append(
            Candidate(row=row, col=col, contour_ids=cids, region_ids=rids)
        )
    return candidates


@dataclass(frozen=True)
class AreaResult:
    figure_region: int | None
    hat: tuple | None
    tie: bool
    counts: tuple


def classify_junction_area(segments, contours, candidate: Candidate,
                           params: TJParams = TJParams()) -> AreaResult:
    """Pick the figure region as the one covering most of a small disk.

    The hat is the pair of contours leaning on the winning region inside
    the disk (most contour pixels 8-adjacent to winner pixels); the stem
    only touches the winner at the junction point, so it loses.
    """
    segments = as_labels(segments, "segments")
    contours = as_labels(contours, "contours")
    dr, dc = _disk_offsets(params.area_mask_radius)
    rows = candidate.row + dr
    cols = candidate.col + dc
    keep = (
        (rows >= 0) & (rows < segments.shape[0])
        & (cols >= 0) & (cols < segments.shape[1])
    )
    rows, cols = rows[keep], cols[keep]
    disk_ids = segments[rows, cols]
    counts = tuple(int((disk_ids == rid).sum()) for rid in candidate.region_ids)
    if min(counts) == 0:
        raise ValueError(
            f"region absent from the area disk at ({candidate.row}, {candidate.col})"
        )
    ranked = sorted(zip(counts, candidate.region_ids), reverse=True)
    if ranked[0][0] == ranked[1][0]:
        return AreaResult(figure_region=None, hat=None, tie=True, counts=counts)
    winner = ranked[0][1]
    return AreaResult(
        figure_region=winner,
        hat=_abutting_pair(segments, contours, candidate, winner, rows, cols),
        tie=False,
        counts=counts,
    )


def _abutting_pair(segments, contours, candidate, winner, disk_rows, disk_cols):
    disk = np.zeros(segments.shape, dtype=bool)
    disk[disk_rows, disk_cols] = True
    near_winner = ndimage.binary_dilation(
        (segments == winner) & disk, structure=np.ones((3, 3), dtype=bool)
    )
    scores = []
    for cid in candidate.contour_ids:
        on_contour = (contours == cid) & disk
        scores.append((int((on_contour & near_winner).sum()), cid))
    scores.sort(key=lambda s: (-s[0], s[1]))
    if scores[1][0] == 0:
        raise ValueError(
            f"fewer than two contours abut region {winner} "
            f"at ({candidate.row}, {candidate.col})"
        )
    return tuple(sorted((scores[0][1], scores[1][1])))


@dataclass(frozen=True)
class AngleResult:
    hat: tuple | None
    sectors: tuple
    rejected: str | None  # yJunction | arrowJunction


def trace_contour(contours, cid: int, row: int, col: int,
                  params: TJParams = TJParams()):
    """Endpoint of the first ``angle_track_length`` pixels of a piece.

    Tracing starts at the piece's pixel closest to the junction and walks
    outward over 8-connected same-id pixels (breadth first, row-major tie
    breaks). Pieces shorter than three pixels are malformed.
    """
    contours = as_labels(contours, "contours")
    near = _disk_offsets(params.trace_search_radius)
    starts = []
    for dr, dc in zip(*near):
        r, c = row + dr, col + dc
        if 0 <= r < contours.shape[0] and 0 <= c < contours.shape[1]:
            if contours[r, c] == cid:
                starts.append((dr * dr + dc * dc, r, c))
    if not starts:
        raise ValueError(f"contour {cid} not found near ({row}, {col})")
    _, sr, sc = min(starts)
    target = params.angle_track_length - 1
    frontier = [(sr, sc)]
    seen = {(sr, sc)}
    endpoint = (sr, sc)
    depth = 0
    while frontier and depth < target:
        nxt = []
        for r, c in frontier:
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if (
                        0 <= rr < contours.shape[0]
                        and 0 <= cc < contours.shape[1]
                        and (rr, cc) not in seen
                        and contours[rr, cc] == cid
                    ):
                        seen.add((rr, cc))
                        nxt.append((rr, cc))
        if not nxt:
            break
        depth += 1
        frontier = sorted(nxt)
        endpoint = frontier[0]
    if depth + 1 < 3:
        raise ValueError(
            f"contour {cid} shorter than 3 px near ({row}, {col})"
        )
    return endpoint


def classify_junction_angle(contours, candidate: Candidate,
                            params: TJParams = TJParams()) -> AngleResult:
    """Classify by the three sector angles between the traced contours.

    A sector over 180 degrees marks an arrow junction and three sectors
    near 120 degrees a Y junction; both are rejected. Otherwise the hat
    is the pair bounding the largest sector.
    """
    eps = 1e-6
    rays = []
    for cid in candidate.contour_ids:
        er, ec = trace_contour(contours, cid, candidate.row, candidate.col, params)
        angle = math.degrees(
            math.atan2(er - candidate.row, ec - candidate.col)
        ) % 360.0
        rays.append((angle, cid))
    rays.sort()
    sectors = (
        rays[1][0] - rays[0][0],
        rays[2][0] - rays[1][0],
        360.0 - (rays[2][0] - rays[0][0]),
    )
    largest = max(range(3), key=lambda i: sectors[i])
    if sectors[largest] > params.arrow_sector_threshold + eps:
        return AngleResult(hat=None, sectors=sectors, rejected="arrowJunction")
    if all(
        abs(s - params.y_sector_center) <= params.y_sector_halfwidth + eps
        for s in sectors
    ):
        return AngleResult(hat=None, sectors=sectors, rejected="yJunction")
    bounding = (rays[largest][1], rays[(largest + 1) % 3][1])
    return AngleResult(hat=tuple(sorted(bounding)), sectors=sectors, rejected=None)


def detect_t_junctions(contours, segments,
                       params: TJParams = TJParams()) -> list:
    """Full candidate -> classify -> match pipeline.

    Candidates whose geometry cannot be classified (a region missing from
    the disk, an untraceable contour) are dropped with a log message; Y
    and arrow junctions and area ties are kept as rejected records. A
    junction is matched only when both methods agree on the hat pair.
    """
    contours = as_labels(contours, "contours")
    segments = as_labels(segments, "segments")
    junctions = []
    for cand in find_junction_candidates(contours, segments):
        try:
            area = classify_junction_area(segments, contours, cand, params)
            angle = classify_junction_angle(contours, cand, params)
        except ValueError as err:
            log.info("dropping junction candidate: %s", err)
            continue
        if angle.rejected:
            rejected = angle.rejected
        elif area.tie:
            rejected = "tie"
        else:
            rejected = "none"
        matched = (
            rejected == "none"
            and area.hat is not None
            and area.hat == angle.hat
        )
        junctions.append(
            TJunction(
                row=cand.row,
                col=cand.col,
                contour_ids=cand.contour_ids,
                region_ids=cand.region_ids,
                figure_region=area.figure_region,
                hat_by_area=area.hat,
                hat_by_angle=angle.hat,
                sectors=angle.sectors,
                matched=matched,
                rejected=rejected,
            )
        )
    return junctions


def local_orientation_of_contours(contours,
                                  fit_radius: int = 3) -> np.ndarray:
    """Per-pixel contour orientation in [0, pi) by a local line fit.

    Total-least-squares over same-id pixels within the fit radius (the
    principal axis of their scatter). Non-contour or isolated pixels get
    NaN.
    """
    contours = as_labels(contours, "contours")
    out = np.full(contours.shape, np.nan)
    dr, dc = _disk_offsets(fit_radius)
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
    contours = as_labels(contours, "contours")
    segments = as_labels(segments, "segments")
    orientation_map = local_orientation_of_contours(
        contours, params.orientation_fit_radius
    )
    out = np.zeros((N_ORIENTATIONS, 2) + contours.shape)
    dr, dc = _disk_offsets(params.influence_radius)
    for junction in junctions:
        if not junction.matched or junction.figure_region is None:
            continue
        rows = junction.row + dr
        cols = junction.col + dc
        keep = (
            (rows >= 0) & (rows < contours.shape[0])
            & (cols >= 0) & (cols < contours.shape[1])
        )
        rows, cols = rows[keep], cols[keep]
        on_hat = np.isin(contours[rows, cols], junction.hat_by_area)
        for row, col in zip(rows[on_hat], cols[on_hat]):
            theta_local = orientation_map[row, col]
            if not np.isfinite(theta_local):
                continue
            ti = quantize_orientation(theta_local)
            hits = []
            for si in range(2):
                phi = bo_direction(ti, si)
                dx, dy = math.cos(phi), math.sin(phi)
                hit = False
                for t in range(params.probe_min, params.probe_max + 1):
                    rr = int(round(row + t * dy))
                    cc = int(round(col + t * dx))
                    if not (0 <= rr < segments.shape[0] and 0 <= cc < segments.shape[1]):
                        continue
                    if segments[rr, cc] == junction.figure_region:
                        hit = True
                        break
                hits.append(hit)
            if hits[0] != hits[1]:
                out[ti, hits.index(True), row, col] = 1.0
    return out


def format_junction(j: TJunction) -> str:
    """One record per line: x y contours hat figureRegion matched reason."""
    hat = j.hat_by_area or (0, 0)
    return (
        f"{j.x} {j.y} "
        f"{j.contour_ids[0]} {j.contour_ids[1]} {j.contour_ids[2]} "
        f"{hat[0]} {hat[1]} {j.figure_region or 0} "
        f"{int(j.matched)} {j.rejected}"
    )
