"""Scoring machinery: ground truth, figure decisions, FGCA, tuning.

Ground truth comes from signed maps: +1 cells mark the figure side of a
boundary, -1 cells the boundary pixels to score. A truth keeps the
shape of its map and scores only maps of that shape. A decision at a
scored pixel is the direction of the strongest final ownership response
nearby; it counts as correct when it points into the annotated figure
half-plane, and an undecidable pixel counts half.

:func:`compute_fgca` scores full final maps (``fgo run``). A weight
sweep (``fgo eval``, ``fgo tune``) scores each weight point with
:func:`score_weights` instead, from a :class:`ScoringState` that holds
the prepared image at the pyramid cells feeding the boundary windows
alone. It runs the finalize core (``pipeline.final_levels``) there;
both paths decide through :func:`decide_windows` and agree bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse, special

from .channels import DIRECTIONS, N_ORIENTATIONS, N_SIDES
from .grid import pool_operators_at
from .ownership import ALPHA_NAMES, ModelWeights
from .pipeline import PreparedImage, final_levels

_NEIGHBOR_OFFSETS = tuple(
    (dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)
)
# (row, col) offsets of the 3x3 window a decision reads
_WINDOW = np.array([(0, 0), *_NEIGHBOR_OFFSETS])
# unit ownership direction of every (orientation, side) map, in map order
_DIRECTIONS = DIRECTIONS.reshape(-1, 2)


@dataclass(frozen=True)
class FGGroundTruth:
    """Boundary pixels (x = col, y = row) with unit normals toward figure
    (NaN refused), from a signed map of ``shape`` ``(rows, cols)``.

    Coordinates must be integers and ``shape`` two positive integers:
    a fraction is refused, naming its field, not truncated. A record
    outside ``shape`` is refused when the truth is built, and the truth
    scores only maps of its own shape (:meth:`check_shape`).
    """

    x: np.ndarray
    y: np.ndarray
    nx: np.ndarray
    ny: np.ndarray
    shape: tuple

    def __post_init__(self):
        x, y, shape = (np.asarray(v) for v in (self.x, self.y, self.shape))
        for name, values in (("x", x), ("y", y), ("shape", shape)):
            fraction = values[~(np.isfinite(values) & (np.round(values) == values))]
            if fraction.size:
                raise ValueError(f"ground truth {name} must be integers, got {fraction.flat[0]}")
        if shape.shape != (2,) or not (shape > 0).all():
            raise ValueError(f"ground truth shape must be two positive integers, got {self.shape}")
        x, y = x.astype(np.int64), y.astype(np.int64)
        nx = np.asarray(self.nx, dtype=np.float64)
        ny = np.asarray(self.ny, dtype=np.float64)
        if not (x.shape == y.shape == nx.shape == ny.shape) or x.ndim != 1:
            raise ValueError("ground truth fields must be equal-length 1D arrays")
        if not (np.abs(np.hypot(nx, ny) - 1.0) <= 1e-6).all():
            raise ValueError("ground truth normals must have unit length")
        rows, cols = shape = tuple(int(n) for n in shape)
        if x.size and (min(x.min(), y.min()) < 0 or x.max() >= cols or y.max() >= rows):
            raise ValueError(
                f"ground truth records span x {x.min()}..{x.max()} and "
                f"y {y.min()}..{y.max()}, outside the {rows}x{cols} map"
            )
        for name, value in (("x", x), ("y", y), ("nx", nx), ("ny", ny), ("shape", shape)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.x.size

    def check_shape(self, shape) -> None:
        """Refuse to score this truth against an image of another
        ``shape``: its records would be read from another image."""
        if tuple(shape) != self.shape:
            raise ValueError(
                f"the ground-truth map is {'x'.join(map(str, self.shape))} but the "
                f"image is {'x'.join(map(str, shape))}: ground truth must match the image"
            )


def load_ground_truth(signed) -> FGGroundTruth:
    """Boundary records from a signed {-1, 0, +1} map.

    A -1 cell is a record exactly when its mean offset toward the +1
    cells among its 8 neighbors is non-zero, which implies it has such
    a neighbor; the record's normal is that offset, normalized. Cells
    whose +1 neighbors cancel out exactly are dropped, and a map with
    no -1/+1 interface yields an empty truth, which every scorer
    refuses.
    """
    signed = np.asarray(signed)
    if signed.ndim != 2:
        raise ValueError(f"signed map must be 2D, got shape {signed.shape}")
    if not np.isin(signed, (-1, 0, 1)).all():
        raise ValueError("signed map may only hold -1, 0, +1")

    figure = np.pad(signed == 1, 1)
    mean_dr = np.zeros(signed.shape)
    mean_dc = np.zeros(signed.shape)
    rows, cols = signed.shape
    for dr, dc in _NEIGHBOR_OFFSETS:
        hit = figure[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
        mean_dr += dr * hit
        mean_dc += dc * hit

    norm = np.hypot(mean_dr, mean_dc)
    usable = (signed == -1) & (norm > 0)
    yy, xx = np.nonzero(usable)
    return FGGroundTruth(
        x=xx,
        y=yy,
        nx=mean_dc[usable] / norm[usable],
        ny=mean_dr[usable] / norm[usable],
        shape=signed.shape,
    )


def _window_cells(gt: FGGroundTruth, rows: int, cols: int):
    """``(rr, cc)``, each ``(records, 9)``: the 3x3 window of every record.

    A truth of another shape than the ``rows x cols`` map is refused
    (:meth:`FGGroundTruth.check_shape`). Clipping a window index to the
    border repeats a cell of the clipped window, so window maxima over
    the clipped window are exact.
    """
    gt.check_shape((rows, cols))
    rr = np.clip(gt.y[:, None] + _WINDOW[:, 0], 0, rows - 1)
    cc = np.clip(gt.x[:, None] + _WINDOW[:, 1], 0, cols - 1)
    return rr, cc


def decide_windows(windows: np.ndarray):
    """Per-record decision directions and tie flags from window values.

    ``windows`` is ``(records, 9, 16)``: the final responses of the 16
    (orientation, side) maps, in map order, at the cells of each
    record's 3x3 window. The strongest response in the window wins, and
    its ownership direction is the decision; equal maxima of two
    orientations go to the first map index. No positive response at
    all, or an exact tie between the two sides of one orientation, is a
    tie with a zero direction. Like ``ownership.winning_bo``'s, the
    first-index rule is not symmetric under a mirror flip, which maps
    orientation t to (8 - t) % 8: a tie between nonzero orientations
    t < u goes to t, but in the mirrored image to 8 - u, the mirror of u.
    """
    strongest = windows.max(axis=1)
    best = strongest.max(axis=1)
    winners = strongest == best[:, None]
    ties = (best <= 0) | winners.reshape(-1, N_ORIENTATIONS, N_SIDES).all(axis=2).any(axis=1)
    first = winners.argmax(axis=1)
    dirs = np.where(ties[:, None], 0.0, _DIRECTIONS[first])
    return dirs, ties


def decisions_for(final: np.ndarray, gt: FGGroundTruth):
    """Per-record decision directions and tie flags of an (8, 2, rows,
    cols) final stack: :func:`decide_windows` on each record's 3x3
    window, clipped at the image border."""
    rows, cols = final.shape[-2:]
    rr, cc = _window_cells(gt, rows, cols)
    maps = final.reshape(len(_DIRECTIONS), rows, cols)
    return decide_windows(np.moveaxis(maps[:, rr, cc], 0, -1))


def score_directions(gt: FGGroundTruth, dirs, ties) -> np.ndarray:
    """Per-record correctness: 1 into the figure, 0 away, 0.5 on a tie."""
    dirs = np.asarray(dirs, dtype=np.float64)
    ties = np.asarray(ties, dtype=bool)
    if dirs.shape != (len(gt), 2) or ties.shape != (len(gt),):
        raise ValueError("decisions do not match the ground truth records")
    dots = dirs[:, 0] * gt.nx + dirs[:, 1] * gt.ny
    return np.where(ties, 0.5, (dots > 0).astype(np.float64))


@dataclass(frozen=True)
class FGCAResult:
    accuracy: float  # mean of the per-truth accuracies
    correct: float  # summed correctness over all records of all truths
    pixels: int
    ties: int


def _truths(gts) -> tuple:
    """One ground truth or a sequence of them, as a non-empty tuple of
    non-empty truths."""
    if isinstance(gts, FGGroundTruth):
        gts = (gts,)
    gts = tuple(gts)
    if not gts or any(len(gt) == 0 for gt in gts):
        raise ValueError("cannot score an empty ground truth")
    return gts


def fgca_of(gts, decisions) -> FGCAResult:
    """Pool ``(dirs, ties)`` decisions, one pair per truth, into FGCA.
    ``gts`` is one ground truth or a sequence of them, none empty."""
    gts = _truths(gts)
    accuracies, correct, pixels, ties = [], 0.0, 0, 0
    for gt, (dirs, tie_flags) in zip(gts, decisions, strict=True):
        scores = score_directions(gt, dirs, tie_flags)
        accuracies.append(float(scores.mean()))
        correct += float(scores.sum())
        pixels += len(gt)
        ties += int(tie_flags.sum())
    return FGCAResult(
        accuracy=float(np.mean(accuracies)), correct=correct, pixels=pixels, ties=ties
    )


def compute_fgca(final: np.ndarray, gts) -> FGCAResult:
    """Figure-ground classification accuracy of one image.

    ``gts`` is one ground truth or a sequence of them (two annotators);
    the reported accuracy is the mean of the per-truth accuracies while
    the correctness/pixel sums pool every record for pixel-weighted
    aggregation. A truth of another shape than the map is refused with
    a ValueError that names both shapes.
    """
    gts = _truths(gts)
    return fgca_of(gts, [decisions_for(final, gt) for gt in gts])


# ----------------------------------------------------------------------
# scoring weight points near the ground truth
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScoringState:
    """What scoring one image under any alpha triple needs, and no more.

    A decision reads the final maps only in the 3x3 windows of the
    boundary records, and the final maps are ``fixed`` plus the
    bilinear pool of the orientation levels, so a weight point needs
    ``fixed`` at those window cells and the level cells that feed them
    alone. Built by :func:`prepare_scoring`; it keeps no array of the
    full :class:`PreparedImage`.

    ``windows`` holds, per truth, the ``(records, 9)`` indexes of each
    window's cells among the pooled target cells; ``r1`` and ``r2`` are
    the restricted pool (:func:`grid.pool_operators_at`), None without
    an orientation route. ``prepared`` is the prepared image restricted
    to those cells: ``fixed`` at the target cells as an (8, 2, 1, T)
    stack, and each prepared entry of ``routes`` as the side imbalances
    at the level cells, all levels side by side, in one (8, 1, M) level
    (a None entry stays None), so :func:`pipeline.final_levels` runs on
    it unchanged.
    """

    gts: tuple
    windows: tuple
    r1: sparse.csr_array | None
    r2: sparse.csr_array | None
    prepared: PreparedImage


def prepare_scoring(prepared: PreparedImage, gts) -> ScoringState:
    """Gather from a prepared image what :func:`score_weights` reads for
    the given ground truths (one or a sequence, none empty, each of the
    image's shape, as :func:`compute_fgca` requires): ``fixed`` at
    the window cells, and the orientation routes' side imbalances at the
    level cells that the bilinear pool reads for them. The level dims
    are those of the contrast route, ``routes[0]``, which every route
    shares."""
    gts = _truths(gts)
    rows, cols = prepared.fixed.shape[-2:]
    flat = np.concatenate(
        [np.ravel_multi_index(_window_cells(gt, rows, cols), (rows, cols)) for gt in gts]
    )
    targets, where = np.unique(flat.ravel(), return_inverse=True)
    windows = tuple(
        np.split(where.reshape(flat.shape), np.cumsum([len(gt) for gt in gts])[:-1])
    )
    fixed = prepared.fixed.reshape(N_ORIENTATIONS, N_SIDES, -1)[:, :, None, targets]
    if prepared.routes is None:
        restricted = replace(prepared, fixed=fixed)
        return ScoringState(gts=gts, windows=windows, r1=None, r2=None, prepared=restricted)
    cells = np.stack(np.unravel_index(targets, (rows, cols)), axis=1)
    level_dims = [level.shape[-2:] for level in prepared.routes[0]]
    level_cells, r1, r2 = pool_operators_at(level_dims, rows, cols, cells)

    def gather(levels):
        """The side imbalances at the level cells, as a one-level list."""
        if levels is None:
            return None
        cells = [
            level.reshape(N_ORIENTATIONS, -1)[:, index]
            for level, index in zip(levels, level_cells, strict=True)
        ]
        return [np.concatenate(cells, axis=-1)[:, None, :]]

    restricted = replace(prepared, fixed=fixed, routes=tuple(map(gather, prepared.routes)))
    return ScoringState(gts=gts, windows=windows, r1=r1, r2=r2, prepared=restricted)


def score_weights(state: ScoringState, weights: ModelWeights) -> FGCAResult:
    """FGCA of one alpha triple, equal to ``compute_fgca(finalize_components(
    prepared, weights).final, gts)`` bit for bit, and refusing what they
    refuse: :func:`pipeline.final_levels` at the level cells, then the
    restricted pool added to ``fixed`` at the target cells."""
    levels, _ = final_levels(state.prepared, weights)
    final = state.prepared.fixed.reshape(len(_DIRECTIONS), -1).T
    if levels is not None:
        (level,) = levels
        final = state.r2 @ (state.r1 @ level.reshape(len(_DIRECTIONS), -1).T) + final
    return fgca_of(state.gts, [decide_windows(final[w]) for w in state.windows])


@dataclass(frozen=True)
class EvalReport:
    """Per-image scores plus the two dataset-level averages.

    ``per_image`` maps each image id to its :class:`FGCAResult`.
    ``aggregate`` weights every boundary pixel equally across the whole
    dataset; ``per_image_mean``/``std_dev`` treat images equally.
    """

    per_image: dict
    aggregate: float
    per_image_mean: float
    std_dev: float


def build_report(scores: dict) -> EvalReport:
    """Report over ``{image_id: FGCAResult}``, in the dict's order."""
    if not scores:
        raise ValueError("cannot build a report from zero scored images")
    results = scores.values()
    accuracies = [s.accuracy for s in results]
    std = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return EvalReport(
        per_image=scores,
        aggregate=sum(s.correct for s in results) / sum(s.pixels for s in results),
        per_image_mean=float(np.mean(accuracies)),
        std_dev=std,
    )


def format_report_text(report: EvalReport) -> str:
    lines = ["image accuracy pixels ties"]
    for image_id, s in report.per_image.items():
        lines.append(f"{image_id} {s.accuracy:.6f} {s.pixels} {s.ties}")
    lines.append(f"aggregate {report.aggregate:.6f}")
    lines.append(f"perImageMean {report.per_image_mean:.6f}")
    lines.append(f"stdDev {report.std_dev:.6f}")
    return "\n".join(lines) + "\n"


def format_keyvalues(pairs) -> str:
    """``key=value`` lines of ``(key, value)`` pairs, in order; each
    value is written as ``str`` gives it, so callers format numbers."""
    return "".join(f"{k}={v}\n" for k, v in pairs)


def format_report_keyvalues(report: EvalReport) -> str:
    return format_keyvalues([
        ("images", len(report.per_image)),
        ("pixels", sum(s.pixels for s in report.per_image.values())),
        ("aggregateFGCA", f"{report.aggregate:.6f}"),
        ("perImageMeanFGCA", f"{report.per_image_mean:.6f}"),
        ("stdDev", f"{report.std_dev:.6f}"),
    ])


# ----------------------------------------------------------------------
# weight tuning
# ----------------------------------------------------------------------

def _lattice_points(n: int, size: int, anchor=None):
    """The integer points of length ``size`` whose coordinates sum to
    ``n``, in lexicographic order; with ``anchor``, only those within 2
    of it in every coordinate."""
    if size == 1:
        return [(n,)] if anchor is None or abs(n - anchor[0]) <= 2 else []
    lo, hi = 0, n
    if anchor is not None:
        lo, hi = max(lo, anchor[0] - 2), min(hi, anchor[0] + 2)
    rest = None if anchor is None else anchor[1:]
    return [
        (i,) + tail for i in range(lo, hi + 1) for tail in _lattice_points(n - i, size - 1, rest)
    ]


# a refinement round that gains less than this ends the search, and
# the search ends after this many rounds in any case
_MIN_GAIN = 0.005
_ROUNDS = 12
# the default search, which ``fgo tune``'s flags also read: alpha_ref
# against alpha_sa from a coarse lattice of step 0.1
SEARCH_NAMES = ("alpha_ref", "alpha_sa")
COARSE_STEP = 0.1


def check_search(names, coarse_step: float) -> None:
    """Refuse the arguments :func:`grid_search_weights` refuses, before
    any objective is built."""
    names = tuple(names)
    if not names or any(n not in ALPHA_NAMES for n in names) or len(set(names)) != len(names):
        raise ValueError(f"names must be a distinct subset of {ALPHA_NAMES}, got {names}")
    if not 0 < coarse_step <= 1:
        raise ValueError(f"coarse_step must lie in (0, 1], got {coarse_step}")


def grid_search_weights(objective, names=SEARCH_NAMES, coarse_step: float = COARSE_STEP):
    """Multi-resolution search over cue weights on the simplex.

    ``objective`` maps a :class:`ModelWeights` to a score to maximize.
    The named weights (any subset of alpha_ref/alpha_sa/alpha_tj, the
    rest pinned to zero) take the values ``i / n`` of an integer
    lattice: the tuples of ``len(names)`` non-negative integers that sum
    to ``n``. The coarse round scans the whole lattice for ``n =
    round(1 / coarse_step)`` (at least 1), so its spacing is ``1 /
    round(1 / coarse_step)``. Each refinement round doubles ``n`` and
    scans the points within 2 steps of the incumbent in every
    coordinate, for at most 12 rounds, until a round improves the best
    score by less than 0.005. Every weight is treated alike, so
    reordering ``names`` only permutes the points, unless the objective
    ties. Rounds scan in lexicographic order and score each point once.
    Bad arguments are refused by :func:`check_search`, and a non-finite
    objective value by a ValueError naming its point. Returns
    ``(weights, best_objective, trace)`` where trace rows are ``(round,
    weights_tuple_in_name_order, objective)``.
    """
    names = tuple(names)
    check_search(names, coarse_step)

    def as_weights(point) -> ModelWeights:
        values = dict.fromkeys(ALPHA_NAMES, 0.0)
        values.update(zip(names, point))
        return ModelWeights(**values)

    seen = {}
    trace = []

    def scan(round_index, n, best, anchor=None):
        """The best ``(objective, lattice point)`` of ``best`` and the
        points of the lattice ``n`` (near ``anchor``)."""
        for point in _lattice_points(n, len(names), anchor):
            weights = tuple(i / n for i in point)
            if weights not in seen:
                seen[weights] = float(objective(as_weights(weights)))
                if not math.isfinite(seen[weights]):
                    raise ValueError(f"objective is {seen[weights]} at {dict(zip(names, weights))}")
                trace.append((round_index, weights, seen[weights]))
            if seen[weights] > best[0]:
                best = (seen[weights], point)
        return best

    n = max(1, round(1 / coarse_step))
    best, point = scan(0, n, (-np.inf, None))
    for round_index in range(1, _ROUNDS + 1):
        n, point = 2 * n, tuple(2 * i for i in point)
        round_best, point = scan(round_index, n, (best, point), point)
        improvement, best = round_best - best, round_best
        if improvement < _MIN_GAIN:
            break
    return as_weights(tuple(i / n for i in point)), best, trace


# ----------------------------------------------------------------------
# statistics and splits
# ----------------------------------------------------------------------

def right_tailed_t_test(sample_a, sample_b) -> float:
    """P(mean A <= mean B) under the pooled-variance two-sample t model.

    Small values support "A scores higher than B". Both samples need at
    least two observations, all finite. Two internally constant samples
    give the degenerate 0 or 1 when their means differ, and 0.5, the
    value at t = 0, when they are equal.
    """
    a = np.asarray(sample_a, dtype=np.float64).ravel()
    b = np.asarray(sample_b, dtype=np.float64).ravel()
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("both samples must be finite")
    dof = a.size + b.size - 2
    pooled = ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) / dof
    diff = a.mean() - b.mean()
    if pooled == 0:  # t is 0 or infinite
        return 0.5 if diff == 0 else float(diff < 0)
    t = diff / math.sqrt(pooled * (1 / a.size + 1 / b.size))
    half = 0.5 * special.betainc(dof / 2.0, 0.5, dof / (dof + t * t))
    return float(half if t > 0 else 1.0 - half)


def make_split(image_ids, seed: int) -> tuple:
    """Seeded shuffle of distinct ids: ``(train_ids, test_ids)``, the
    first half training and the rest testing."""
    ids = list(image_ids)
    if len(ids) < 2:
        raise ValueError(f"need at least 2 ids to split, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate image ids")
    order = np.random.default_rng(seed).permutation(len(ids))
    half = len(ids) // 2
    return tuple(ids[i] for i in order[:half]), tuple(ids[i] for i in order[half:])
