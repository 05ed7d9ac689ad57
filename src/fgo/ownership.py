"""Border-ownership responses from pooled region evidence.

A border cell sits on an oriented edge and prefers one of the two
ownership directions ``theta + pi/2`` (side index 0) or ``theta - pi/2``
(side index 1). Region evidence — center-surround contrast for the
global route, directed local-cue maps for the others — is rescaled
per pyramid level, each competing pair jointly to ``[0, 1]`` with no
further per-map gain, projected onto borders through an annular ring
kernel of radius ``ring_radius`` pointing in the ownership direction,
pooled across scales with geometrically decaying weights, and finally
gates the oriented carrier response multiplicatively. The pool is
chained, coarsest level first: ``ctx[k] = 2^{-(k+1)} * resp[k] +
resample(ctx[k+1] -> level k)``, each level overwritten in place
(:func:`scale_contexts`).

Every route takes one path, :func:`compute_bo`, and its evidence one
layout: each level is a (P, T, S, rows, cols) stack of P polarities,
T orientations and S sides, T and S broadcasting against the (8, 2)
ring bank. Light and dark center-surround contrast (P = 2) is shared
by both sides (S = 1), and by every orientation for an isotropic
feature (T = 1, :func:`cs_pyramids`); a directed local cue (SA, TJ)
is one polarity with a map per orientation and side, (1, 8, 2). Each
gated pair, cells (p, t, 0) and (P-1-p, t, S-1), is rescaled jointly
(:func:`normalize_pairs`), projected against the (8, 2) ring bank,
pooled across scales, and then gates the carrier:
``B[t, s] = sum_p max(0, C_t * (1 + ctx[p, t, s] - w_opp * ctx[P-1-p, t, 1 - s]))``.
The contrast route thus gates with light exciting and dark inhibiting
and with the roles swapped, and keeps only the sum of the two: nothing
downstream reads the polarities apart. The gate reads the contexts of
cells (p, t, 0) and (P-1-p, t, 1) only together, and pooling is linear,
so each such pair is projected once, as the difference of its two
cells' projections (and their sum when ``w_opp`` is not 1): half the
inverse FFTs and half the contexts of projecting every cell.

Nothing downstream reads the two sides apart either: the winner of a
cell (:func:`winning_bo`) depends only on the side imbalance
``D[t] = B[t, 0] - B[t, 1]``, and the blend of routes
(:func:`combine_bo`) is linear. So a route's output is the level list
of (8, rows, cols) side imbalances, half the size of its (8, 2)
ownership stacks. The orientation routes travel as one tuple in the
order of the alpha triple (:data:`ALPHA_NAMES`): contrast, spectral
anisotropy, T-junctions.

Directed data travels as "stacks": arrays of shape ``(8, 2, rows,
cols)`` indexed ``[orientation, side, row, col]``. A multiscale result
is a list of stacks, index 0 the finest (native) level. The carriers
are the orientation channel's own pyramid, a list of (8, rows, cols)
levels. Evidence shared by every orientation or side stays unbroadcast
up to the ring projection, which reads it against the (8, 2) kernel
bank.

The module ends at the per-level winners (:func:`winning_bo`);
``pipeline`` sums them across features and pools them to native
resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .channels import N_ORIENTATIONS, N_SIDES, bo_direction
from .filters import clamp_kernel_size, make_von_mises, ring_size
from .grid import correlate_pairs, correlate_stack, pool_resampled

# the relative tolerance within which orientations tie for the winner
_TIE_TOLERANCE = 1e-12


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


# the alpha triple's names, in the order of the routes it blends
ALPHA_NAMES = tuple(f.name for f in fields(ModelWeights))


def cs_pyramids(feature, size: int, bank):
    """Rectified center-surround evidence of one feature pyramid.

    ``feature`` holds the levels of an isotropic feature's pyramid
    (``grid.pyramid_levels``, read one level at a time) with its one
    difference of Gaussians (``make_center_surround``), or the carriers,
    whose levels are (8, rows, cols) stacks, with an (8, kh, kw) bank of
    even Gabors at each orientation's own angle (``gabor_bank``), since
    feature contrast along an edge is not isotropic. ``size`` is the
    kernels' nominal support; each level clamps it to fit once
    (``clamp_kernel_size``) and is one :func:`correlate_stack` call with
    ``bank(size)``, one kernel per map of the level, its (T, rows, cols)
    response reshaped to (T, 1, rows, cols). This generator yields,
    level by level, the (2, T, 1, rows, cols) evidence stack that
    :func:`compute_bo` reads, so one level is alive at a time: polarity
    0 is the light evidence ``max(0, response)`` (bright structure on a
    dark ground), polarity 1 the dark evidence ``max(0, -response)``,
    with T = 1 for an isotropic feature, shared by every orientation,
    and T = 8 for the carriers; the one side cell is shared by both
    sides.
    """
    for level in feature:
        kernels = bank(clamp_kernel_size(size, level.shape[-2:]))
        if kernels.shape[:-2] != level.shape[:-2]:
            raise ValueError(f"{kernels.shape[:-2]} kernels for {level.shape[:-2]} maps")
        response = correlate_stack(level, kernels).reshape((-1, 1) + level.shape[-2:])
        yield np.stack([np.maximum(0.0, response), np.maximum(0.0, -response)])


def normalize_pairs(level) -> np.ndarray:
    """Rescale each gated pair of a (P, T, S, rows, cols) evidence level
    jointly to ``[0, 1]``.

    The gate pairs cell (p, t, 0) with cell (P-1-p, t, S-1): the light
    and dark evidence of one map (P = 2, S = 1), or the two sides of one
    orientation (P = 1, S = 2). Both cells of a pair share one offset and
    one gain, ``lo`` and ``1 / (hi - lo)`` over the pair's joint range:
    their relative strength is part of the signal, so they must not be
    stretched independently, and neither map is reshaped on its own. A
    pair that is flat overall comes back as zeros.
    """
    lo = level.min(axis=(-2, -1), keepdims=True)
    hi = level.max(axis=(-2, -1), keepdims=True)
    # each cell's partner is the cell mirrored in P and in S
    lo = np.minimum(lo, lo[::-1, :, ::-1])
    hi = np.maximum(hi, hi[::-1, :, ::-1])
    return (level - lo) * np.divide(1.0, hi - lo, out=np.zeros_like(lo), where=hi > lo)


@functools.lru_cache(maxsize=64)
def _ring_bank(size: int, ring_radius: float) -> np.ndarray:
    """The 16 ring kernels of radius ``ring_radius`` and odd ``size``, a
    read-only (8, 2, size, size) array."""
    bank = np.array([
        [make_von_mises(bo_direction(ti, si), ring_radius, size) for si in range(N_SIDES)]
        for ti in range(N_ORIENTATIONS)
    ])
    bank.flags.writeable = False
    return bank


def scale_contexts(responses: list) -> list:
    """Pool projected evidence from every coarser level onto each level,
    in place: each response array is overwritten by its context.

    The pool is chained, coarsest level first, over ``n`` levels::

        ctx[n-1] = 2^{-n} * responses[n-1]
        ctx[k] = 2^{-(k+1)} * responses[k] + resample(ctx[k+1] -> dims_k)

    with the level index weighted 1-based, so coarser levels contribute
    geometrically less. Each level is scaled in place, then the finished
    context of the next coarser level is resampled to it and added one
    map at a time, so every level is resampled once and the only
    temporary is one map. Level j thus reaches level k through the
    j - k bilinear steps between them, not in one hop.
    """
    coarser = None
    for k in reversed(range(len(responses))):
        level = responses[k]
        level *= 2.0 ** -(k + 1)
        if coarser is not None:
            for idx in np.ndindex(level.shape[:-2]):
                level[idx] += pool_resampled([coarser[idx]], *level.shape[-2:])
        coarser = level
    return responses


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
    is an (8, rows, cols) stack of non-negative energies, so
    ``C_t`` factors out of the gate's rectification. ``evidence`` (a
    generator keeps one raw level alive at a time) yields level k as
    one (P, T, S, rows, cols) stack of P polarities whose (T, S) axes
    are (1 or 8, 1 or 2) against the (8, 2) ring bank: for the contrast
    route light and dark (:func:`cs_pyramids`), each shared by both
    sides, (2, 1, 1, rows, cols) for an isotropic feature and (2, 8, 1,
    rows, cols) for the carriers; for a directed local cue one polarity
    with a map per side, (1, 8, 2, rows, cols).

    Each gated pair is rescaled jointly to ``[0, 1]``, one offset and
    one gain per pair and nothing else (:func:`normalize_pairs`), so
    the pair's relative strength reaches the ring kernels unchanged.
    The gate pairs cell (p, t, 0) with cell (P-1-p, t, S-1), projected
    toward sides 0 and 1: evidence on the owned side excites, and
    evidence of the other polarity (of the same cue, for one polarity)
    on the opposite side inhibits. With ``a`` and ``b`` the two cells'
    contexts (their evidence through the ring kernel of radius
    ``ring_radius`` toward (t, s), pooled across scales), the pair's
    cells gate as ``max(0, C_t * (1 + a - w_opp * b))`` and ``max(0,
    C_t * (1 + b - w_opp * a))``. Pooling is linear, so the pair is read
    through ``g = (1 + w_opp)/2 * (a - b)`` and ``h = 1 + (1 - w_opp)/2 *
    (a + b)``, and every pair adds its side-0 cell and subtracts its
    side-1 cell::

        D[k][t] = C_t * sum_p (max(0, h + g) - max(0, h - g))

    which at ``w_opp = 1`` (``h = 1``) is ``C_t * sum_p (g + clip(g, -1,
    1))``. The difference ``a - b`` is projected as one
    :func:`correlate_pairs` output per pair, and the sum only when its
    weight ``(1 - w_opp)/2`` is not zero. The projections are pooled
    across scales in place (:func:`scale_contexts`) and gate one
    orientation at a time. Only the ``modulated`` finest levels are
    gated (None gates all; a local cue's ``top_layers_only``); the
    others pass the rectified carrier to both sides, so their imbalance
    is zero, and ``modulated = 0`` reads no evidence.
    """
    n = len(carriers)
    modulated = n if modulated is None else min(modulated, n)
    excite, inhibit = (1.0 + w_opp) / 2, (1.0 - w_opp) / 2
    ctx = []
    for e in evidence if modulated else ():
        bank = _ring_bank(clamp_kernel_size(ring_size(ring_radius), e.shape[-2:]), ring_radius)
        ctx.append(correlate_pairs(normalize_pairs(e), bank, bool(inhibit)))
    ctx = scale_contexts(ctx)
    out = []
    for k, carrier in enumerate(carriers):
        delta = np.zeros((N_ORIENTATIONS,) + carrier.shape[-2:])
        out.append(delta)
        if k >= modulated:
            continue
        c, ctx[k] = ctx[k], None  # free each context once it has gated its level
        if inhibit:  # g and h in place of the pooled difference and sum
            c[0] *= excite
            c[1] *= inhibit
            c[1] += 1.0
        for t in range(N_ORIENTATIONS):
            g = c[0, :, t]
            if inhibit:
                h = c[1, :, t]
                term = h + g
                np.maximum(0.0, term, out=term)
                h -= g
                term -= np.maximum(0.0, h, out=h)
            else:
                term = np.clip(g, -1.0, 1.0)
                term += g
            np.multiply(term.sum(axis=0), carrier[t], out=delta[t])
    return out


def combine_bo(routes, weights: ModelWeights) -> list:
    """Blend the side imbalances of the orientation routes level by
    level.

    ``routes`` holds one route per alpha, in :data:`ALPHA_NAMES` order:
    contrast (light + dark), spectral anisotropy and T-junctions, each
    the level list of (8, rows, cols) side imbalances of
    :func:`compute_bo`, or None when it was not prepared. ``combined[k]
    = alpha_ref * contrast[k] + alpha_sa * sa[k] + alpha_tj * tj[k]``,
    added in that order. The blend is linear, so it equals the imbalance
    of the blended (8, 2) stacks up to rounding. The contrast route is
    always read; a local cue whose alpha is zero is never touched, so its
    stacks (present or not) cannot influence the result. A positive
    alpha whose route was not prepared is refused, naming the alpha.
    """
    alphas = [getattr(weights, name) for name in ALPHA_NAMES]
    for name, alpha, route in zip(ALPHA_NAMES, alphas, routes, strict=True):
        if alpha > 0 and route is None:
            raise ValueError(f"{name} > 0 but its route was not prepared")
    out = []
    for k, contrast in enumerate(routes[0]):
        level = alphas[0] * contrast
        for alpha, route in zip(alphas[1:], routes[1:]):
            if alpha > 0:
                level += alpha * route[k]
        out.append(level)
    return out


def winning_bo(deltas: Sequence[np.ndarray]) -> list:
    """Keep only the orientation with the largest side imbalance.

    ``deltas`` holds per level the (8, rows, cols) side imbalances
    ``D[t] = B[t, 0] - B[t, 1]``. Per level and pixel the winner is the
    lowest orientation whose ``|D[t]|`` is within 1e-12 relative of the
    pixel's largest ``|D|``, so ties that symmetry makes exact and
    rounding breaks are decided by that rule, not by the rounding; the
    output is the (8, 2, rows, cols) stack that holds the rectified
    imbalance on the winning side and zero everywhere else, so at most
    one of the 16 cells is nonzero. The lowest-index rule is not
    symmetric under a mirror flip, which maps orientation t to
    (8 - t) % 8: a tie between nonzero orientations t < u goes to t,
    but in the mirrored image to 8 - u, the mirror of u. Exact ties are
    rare on real inputs.
    """
    out = []
    for delta in deltas:
        size = np.abs(delta)
        winner = (size >= (1 - _TIE_TOLERANCE) * size.max(axis=0)).argmax(axis=0)
        onehot = winner[None] == np.arange(N_ORIENTATIONS)[:, None, None]
        level = np.empty((N_ORIENTATIONS, N_SIDES) + delta.shape[1:])
        level[:, 0] = np.where(onehot, np.maximum(delta, 0.0), 0.0)
        level[:, 1] = np.where(onehot, np.maximum(-delta, 0.0), 0.0)
        out.append(level)
    return out
