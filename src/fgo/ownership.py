"""Border-ownership responses from pooled region evidence.

A border cell sits on an oriented edge and prefers one of the two
ownership directions ``theta + pi/2`` (side index 0) or ``theta - pi/2``
(side index 1). Region evidence — center-surround contrast for the
global route, directed local-cue maps for the others — is normalized
per pyramid level, projected onto borders through an annular ring
kernel of radius ``ring_radius`` pointing in the ownership direction,
pooled across scales with geometrically decaying weights, and finally
gates the oriented carrier response multiplicatively.

Every route takes one path, :func:`compute_bo`. Its evidence is a
level list of stacks with a leading polarity axis: light and dark
center-surround contrast for the contrast route (:func:`cs_pyramids`),
shared by both sides, and one polarity with a map per side for a
directed local cue (SA, TJ). Each level's competing pairs are
normalized together, projected in one call against the (8, 2) ring
bank, pooled across scales, and then gate the carrier:
``B[t, s] = sum_p max(0, C_t * (1 + ctx[p, t, s] - w_opp * ctx[P-1-p, t, 1 - s]))``.
The contrast route thus gates with light exciting and dark inhibiting
and with the roles swapped, and keeps only the sum of the two: nothing
downstream reads the polarities apart.

Nothing downstream reads the two sides apart either: the winner of a
cell (:func:`winning_bo`) depends only on the side imbalance
``D[t] = B[t, 0] - B[t, 1]``, and the blend of routes
(:func:`combine_bo`) is linear. So a route's output is the level list
of (8, rows, cols) side imbalances, half the size of its (8, 2)
ownership stacks.

Directed data travels as "stacks": arrays of shape ``(8, 2, rows,
cols)`` indexed ``[orientation, side, row, col]``. A multiscale result
is a list of stacks, index 0 the finest (native) level. The carriers
are one such list of (8, 1, rows, cols) stacks. Evidence shared by every
orientation stays unbroadcast up to the ring projection, which
broadcasts it against the (8, 2) kernel bank.

The module ends at the per-level winners (:func:`winning_bo`);
``pipeline`` sums them across features and pools them to native
resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from scipy import ndimage

from .channels import N_ORIENTATIONS, bo_direction
from .filters import VonMisesParams, clamp_kernel_size, make_von_mises
from .grid import correlate_stack, pool_resampled

N_SIDES = 2
# the peak competition's window and the relative tolerance of a plateau
_PEAK_WINDOW = 3
_PLATEAU_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ModelWeights:
    """The alpha triple of one model run: the only weights a weight point
    sets.

    The three alpha weights blend the contrast route (light + dark) with
    the spectral-anisotropy and T-junction routes; each is non-negative
    (NaN refused) and they sum to one. Every other setting is model
    structure, a field of ``pipeline.PipelineParams``.
    """

    alpha_ref: float = 1.0
    alpha_sa: float = 0.0
    alpha_tj: float = 0.0

    def __post_init__(self):
        alphas = (self.alpha_ref, self.alpha_sa, self.alpha_tj)
        if not all(a >= 0 for a in alphas):
            raise ValueError(f"cue weights must be non-negative, got {alphas}")
        if not abs(sum(alphas) - 1.0) <= 1e-9:
            raise ValueError(f"cue weights must sum to 1, got {alphas}")


def cs_pyramids(feature, kernel_params, make_kernel):
    """Rectified center-surround evidence of one feature pyramid.

    ``feature`` holds the levels of an isotropic feature's pyramid
    (``grid.pyramid_levels``, read one level at a time) with its one
    difference of Gaussians (``make_center_surround``), or the carriers,
    whose levels are (8, 1, rows, cols) stacks, with an even
    Gabor at each orientation's own angle (``make_gabor``), since
    feature contrast along an edge is not isotropic. Each level is one
    :func:`correlate_stack` call with the kernels
    ``make_kernel(setting)``, one per map of the level, each clamped to
    fit the level. This generator yields, level by level, the
    two-polarity evidence stack that :func:`compute_bo` reads, so one
    level is alive at a time: index 0 is the light evidence
    ``max(0, response)`` (bright structure on a dark ground), index 1
    the dark evidence ``max(0, -response)``. An isotropic feature gives
    (2, rows, cols), shared by every orientation and side; the carriers
    give (2, 8, 1, rows, cols).
    """
    for level in feature:
        shape = level.shape[-2:]
        kernels = np.array([
            make_kernel(replace(s, size=clamp_kernel_size(s.resolved_size(), shape)))
            for s in kernel_params
        ])
        response = correlate_stack(level, kernels.reshape(level.shape[:-2] + kernels.shape[-2:]))
        yield np.stack([np.maximum(0.0, response), np.maximum(0.0, -response)])


def _peak_competition(scaled: np.ndarray) -> np.ndarray:
    """Multiply a map by ``(own_max - mean_of_its_other_peaks)^2``.

    A peak is a connected plateau of cells not exceeded anywhere in
    their 3x3 window, counted once however many cells it spans, so a lone
    ridge keeps its full weight while several equally tall ridges (a
    uniform band broken only by higher corners, say) crowd each other
    out. One peak — the global maximum — is dropped from the rival pool.
    Plateau membership allows a small relative tolerance so that
    float-level noise can neither fragment a flat ridge into many peaks
    nor promote near-zero specks into rivals.
    """
    top = scaled.max()
    if top <= 0:
        return np.zeros_like(scaled)
    window_max = ndimage.maximum_filter(scaled, size=_PEAK_WINDOW, mode="constant", cval=-np.inf)
    tol = _PLATEAU_TOLERANCE * top
    labels, count = ndimage.label(
        (scaled >= window_max - tol) & (scaled > tol), structure=np.ones((3, 3))
    )
    # per-peak maxima over the labelled cells alone
    cells = labels > 0
    peaks = np.full(count, -np.inf)
    np.maximum.at(peaks, labels[cells] - 1, scaled[cells])
    peaks = np.sort(peaks)[:-1]
    mean_rival = peaks.mean() if peaks.size else 0.0
    return scaled * (top - mean_rival) ** 2


def normalize_evidence_pair(a, b) -> tuple:
    """Normalize two antagonistic evidence maps onto one shared scale.

    The pair is rescaled jointly to ``[0, 1]`` — their relative
    strength is part of the signal, so they must not be stretched
    independently — and each map then receives its own peak-competition
    factor. A pair that is flat overall comes back as two zero maps.
    """
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return np.zeros_like(a), np.zeros_like(b)
    gain = 1.0 / (hi - lo)
    return _peak_competition((a - lo) * gain), _peak_competition((b - lo) * gain)


def _ring_bank(shape, ring_radius: float) -> np.ndarray:
    """The 16 ring kernels of radius ``ring_radius`` fitted to ``shape``,
    a read-only (8, 2, s, s) array."""
    nominal = VonMisesParams(bo_direction=0.0, r0=ring_radius)
    return _ring_kernels(clamp_kernel_size(nominal.resolved_size(), shape), ring_radius)


@functools.lru_cache(maxsize=64)
def _ring_kernels(size: int, ring_radius: float) -> np.ndarray:
    bank = np.array([
        [make_von_mises(VonMisesParams(bo_direction(ti, si), ring_radius, size))
         for si in range(N_SIDES)]
        for ti in range(N_ORIENTATIONS)
    ])
    bank.flags.writeable = False
    return bank


def scale_contexts(responses: list) -> list:
    """Pool projected evidence from every coarser level onto each level,
    in place: each response array is overwritten by its context.

    ``ctx[k] = sum_{j >= k} 2^{-(j+1)} * resample(responses[j] -> dims_k)``
    with the level index weighted 1-based, so coarser levels contribute
    geometrically less; every term is brought to level k in one hop.
    Level k reads only levels k and coarser, so the finest level is
    pooled first. Each level is one :func:`pool_resampled` call over
    the whole stack, written into the level's own array: that is safe
    map by map, because every map's inputs are read before its output
    is written. The pool reassociates the sum (exact to about 1e-15
    relative).
    """
    n = len(responses)
    for k in range(n):
        pool_resampled(
            responses[k:],
            *responses[k].shape[-2:],
            [2.0 ** -(j + 1) for j in range(k, n)],
            out=responses[k],
        )
    return responses


def _projected(level, ring_radius: float) -> np.ndarray:
    """Normalize the competing pairs of one (P, ..., r, c) evidence level
    and project it through the ring bank of radius ``ring_radius``: a
    (P, 8, 2, r, c) stack.

    With two polarities the pairs are the polarities of each map; with
    one, the two sides of each orientation. Moving the polarity axis
    next to the map axes lines both up as adjacent pairs.
    """
    moved = np.moveaxis(level, 0, -3)
    pairs = moved.reshape((-1, N_SIDES) + level.shape[-2:])
    normed = np.array([normalize_evidence_pair(a, b) for a, b in pairs])
    normed = np.moveaxis(normed.reshape(moved.shape), -3, 0)
    # (P, T, S, r, c), so that (T, S) broadcasts against the (8, 2) bank
    normed = normed.reshape(normed.shape[:1] + (1,) * (5 - normed.ndim) + normed.shape[1:])
    return correlate_stack(normed, _ring_bank(level.shape[-2:], ring_radius))


def compute_bo(
    carriers,
    evidence,
    w_opp: float,
    ring_radius: float,
    modulated: int | None = None,
) -> list:
    """Side imbalances of one route, level by level: an (8, rows, cols)
    array per level.

    ``carriers`` is the oriented-energy pyramid, a list whose level k
    is an (8, 1, rows, cols) stack. ``evidence`` (a generator keeps one raw
    level alive at a time) yields level k as one (P, ..., rows, cols)
    stack of P polarities whose middle axes broadcast against the
    (8, 2) ring bank: for the contrast route light and dark
    (:func:`cs_pyramids`), each shared by both sides, (2, rows, cols)
    for an isotropic feature and (2, 8, 1, rows, cols) for the
    carriers; for a directed local cue one polarity with a map per
    side, (1, 8, 2, rows, cols).

    Each level's competing pairs are normalized together
    (:func:`normalize_evidence_pair`) and projected in one
    :func:`correlate_stack` call, ``evidence[p, t, s]`` through the
    ring kernel of radius ``ring_radius`` toward (t, s). The projections are pooled across scales
    in place (:func:`scale_contexts`), and gate the carrier one
    orientation, side and polarity at a time::

        B[k][t, s] = sum_p max(0, C_t * (1 + ctx[p, t, s] - w_opp * ctx[P-1-p, t, 1-s]))
        D[k][t] = B[k][t, 0] - B[k][t, 1]

    Evidence on the owned side excites; evidence of the other polarity
    (of the same cue, for one polarity) on the opposite side inhibits.
    Only ``D`` is returned, and neither an (8, 2) level nor a full-size
    gate temporary is alive. Only the ``modulated`` finest levels are
    gated (None gates all; a local cue's ``top_layers_only``); the
    others pass the rectified carrier to both sides, so their imbalance
    is zero, and ``modulated = 0`` reads no evidence.
    """
    n = len(carriers)
    modulated = n if modulated is None else min(modulated, n)
    ctx = scale_contexts([_projected(e, ring_radius) for e in evidence]) if modulated else []
    out = []
    for k, carrier in enumerate(carriers):
        delta = np.zeros((N_ORIENTATIONS,) + carrier.shape[-2:])
        out.append(delta)
        if k >= modulated:
            continue
        c, ctx[k] = ctx[k], None  # free each context once it has gated its level
        for t in range(N_ORIENTATIONS):
            sides = []
            for s in range(N_SIDES):
                side = None
                for p in range(len(c)):
                    gated = np.maximum(
                        0.0, carrier[t, 0] * (1.0 + c[p, t, s] - w_opp * c[-1 - p, t, 1 - s])
                    )
                    side = gated if side is None else np.add(side, gated, out=side)
                sides.append(side)
            np.subtract(*sides, out=delta[t])
    return out


def combine_bo(
    bo_contrast,
    weights: ModelWeights,
    bo_sa=None,
    bo_tj=None,
) -> list:
    """Blend the side imbalances of the contrast and local-cue routes
    level by level.

    ``combined[k] = alpha_ref * contrast[k] + alpha_sa * sa[k]
    + alpha_tj * tj[k]``, with each route the (8, rows, cols) side
    imbalances of :func:`compute_bo` (``contrast`` of light + dark). The
    blend is linear, so it equals the imbalance of the blended (8, 2)
    stacks up to rounding. A route whose alpha is zero is never
    touched, so its stacks (present or not) cannot influence the result.
    """
    if weights.alpha_sa > 0 and bo_sa is None:
        raise ValueError("alpha_sa > 0 requires the spectral-anisotropy route")
    if weights.alpha_tj > 0 and bo_tj is None:
        raise ValueError("alpha_tj > 0 requires the T-junction route")
    out = []
    for k in range(len(bo_contrast)):
        level = weights.alpha_ref * bo_contrast[k]
        if weights.alpha_sa > 0:
            level += weights.alpha_sa * bo_sa[k]
        if weights.alpha_tj > 0:
            level += weights.alpha_tj * bo_tj[k]
        out.append(level)
    return out


def winning_bo(deltas: Sequence[np.ndarray]) -> list:
    """Keep only the orientation with the largest side imbalance.

    ``deltas`` holds per level the (8, rows, cols) side imbalances
    ``D[t] = B[t, 0] - B[t, 1]``. Per level and pixel the winning
    orientation maximizes ``|D[t]|`` (ties go to the lowest index); the
    output is the (8, 2, rows, cols) stack that holds the rectified
    imbalance on the winning side and zero everywhere else, so at most
    one of the 16 cells is nonzero.
    """
    out = []
    for delta in deltas:
        winner = np.abs(delta).argmax(axis=0)
        onehot = winner[None] == np.arange(N_ORIENTATIONS)[:, None, None]
        level = np.empty((N_ORIENTATIONS, N_SIDES) + delta.shape[1:])
        level[:, 0] = np.where(onehot, np.maximum(delta, 0.0), 0.0)
        level[:, 1] = np.where(onehot, np.maximum(-delta, 0.0), 0.0)
        out.append(level)
    return out
