"""Border-ownership responses from pooled region evidence.

A border cell sits on an oriented edge and prefers one of the two
ownership directions ``theta + pi/2`` (side index 0) or ``theta - pi/2``
(side index 1). Region evidence — center-surround contrast for the
global route, directed local-cue maps for the others — is normalized
per pyramid level, projected onto borders through an annular ring
kernel pointing in the ownership direction, pooled across scales with
geometrically decaying weights, and finally gates the oriented carrier
response multiplicatively.

Directed data travels as "stacks": arrays of shape ``(8, 2, rows,
cols)`` indexed ``[orientation, side, row, col]``. A multiscale result
is a list of stacks, index 0 the finest (native) level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from scipy import ndimage

from .channels import N_ORIENTATIONS, ORIENTATIONS
from .cues import SIDE_SIGNS
from .filters import (
    DoGParams,
    GaborParams,
    VonMisesParams,
    clamp_kernel_size,
    make_center_surround,
    make_gabor,
    make_von_mises,
)
from .grid import (
    NormalizationParams,
    Pyramid,
    build_pyramid,
    correlate2d,
    cross_scale_sum,
    pool_resampled,
)

N_SIDES = 2


def bo_direction(orientation_index: int, side_index: int) -> float:
    """Ownership direction angle for an (orientation, side) pair."""
    return ORIENTATIONS[orientation_index] + SIDE_SIGNS[side_index] * math.pi / 2


@dataclass(frozen=True)
class ModelWeights:
    """Cue-mixing weights for one model run.

    The three alpha weights blend the contrast route (light + dark) with
    the spectral-anisotropy and T-junction routes and must sum to one.
    ``w_opp`` scales the inhibition a border cell receives from evidence
    for the opposite ownership direction. ``feature_weights`` order the
    color, intensity and orientation channels in the final combination.
    ``top_layers_only`` restricts local-cue modulation to that many of
    the finest pyramid levels (None modulates every level).
    """

    alpha_ref: float = 1.0
    alpha_sa: float = 0.0
    alpha_tj: float = 0.0
    w_opp: float = 1.0
    feature_weights: tuple = (1.0, 1.0, 1.0)
    top_layers_only: int | None = None

    def __post_init__(self):
        alphas = (self.alpha_ref, self.alpha_sa, self.alpha_tj)
        if any(a < 0 for a in alphas):
            raise ValueError(f"cue weights must be non-negative, got {alphas}")
        if abs(sum(alphas) - 1.0) > 1e-9:
            raise ValueError(f"cue weights must sum to 1, got {alphas}")
        if self.w_opp < 0:
            raise ValueError(f"w_opp must be non-negative, got {self.w_opp}")
        object.__setattr__(
            self, "feature_weights", tuple(float(w) for w in self.feature_weights)
        )
        if len(self.feature_weights) != 3 or any(w < 0 for w in self.feature_weights):
            raise ValueError(
                f"feature_weights needs three non-negative entries, "
                f"got {self.feature_weights}"
            )
        if self.top_layers_only is not None and self.top_layers_only < 1:
            raise ValueError(
                f"top_layers_only must be None or >= 1, got {self.top_layers_only}"
            )

    def contrast_only(self) -> "ModelWeights":
        """The same configuration with both local cues switched off."""
        return replace(self, alpha_ref=1.0, alpha_sa=0.0, alpha_tj=0.0)


@dataclass(frozen=True)
class CSPyramidPair:
    """Rectified on-center (light) and off-center (dark) pyramids."""

    light: Pyramid
    dark: Pyramid

    def __post_init__(self):
        if len(self.light) != len(self.dark) or self.light.dims != self.dark.dims:
            raise ValueError("light and dark pyramids must align level by level")


@dataclass(frozen=True)
class OrientedCSParams:
    """Even-Gabor surrogate for center-surround on oriented features."""

    sigma1: float = 3.2
    gamma1: float = 0.8
    omega1: float = 0.7854

    def __post_init__(self):
        if self.sigma1 <= 0 or self.gamma1 <= 0 or self.omega1 <= 0:
            raise ValueError("sigma1, gamma1 and omega1 must all be positive")


@dataclass(frozen=True)
class ContextParams:
    """How region evidence is pooled onto border cells.

    ``ring_radius``/``ring_form`` shape the annular projection kernel;
    ``normalization`` is the per-level competition normalization applied
    to every evidence map before projection.
    """

    ring_radius: float = 2.0
    ring_form: str = "cosine"
    normalization: NormalizationParams = NormalizationParams()


def cs_pyramids_symmetric(
    feature: Pyramid, params: DoGParams = DoGParams()
) -> CSPyramidPair:
    """Center-surround pair of a feature pyramid (isotropic kernel).

    Each level is correlated with the on-center kernel (clamped to fit
    the level) and half-wave rectified; the off-center response is the
    rectified negation, so a light blob excites ``light`` inside and
    ``dark`` just outside.
    """
    light, dark = [], []
    for level in feature:
        size = clamp_kernel_size(params.resolved_size(), level.shape)
        response = correlate2d(level, make_center_surround(replace(params, size=size)))
        light.append(np.maximum(0.0, response))
        dark.append(np.maximum(0.0, -response))
    return CSPyramidPair(
        light=Pyramid(tuple(light), feature.factor),
        dark=Pyramid(tuple(dark), feature.factor),
    )


def cs_pyramids_oriented(
    feature: Pyramid, theta: float, params: OrientedCSParams = OrientedCSParams()
) -> CSPyramidPair:
    """Center-surround pair for an oriented feature pyramid.

    Feature contrast along an edge is not isotropic, so the kernel is an
    even Gabor at the feature's own orientation: its positive response
    marks bright oriented structure on a dark ground (light), the
    negative response the opposite polarity (dark).
    """
    base = GaborParams(
        theta=theta, sigma=params.sigma1, gamma=params.gamma1, omega=params.omega1
    )
    light, dark = [], []
    for level in feature:
        size = clamp_kernel_size(base.resolved_size(), level.shape)
        response = correlate2d(level, make_gabor(replace(base, size=size), "even"))
        light.append(np.maximum(0.0, response))
        dark.append(np.maximum(0.0, -response))
    return CSPyramidPair(
        light=Pyramid(tuple(light), feature.factor),
        dark=Pyramid(tuple(dark), feature.factor),
    )


def _peak_competition(scaled: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """Multiply a map by ``(own_max - mean_of_its_other_peaks)^2``.

    A peak is a connected plateau of cells not exceeded anywhere in
    their window, counted once however many cells it spans, so a lone
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
    w = params.local_max_window
    window_max = ndimage.maximum_filter(scaled, size=w, mode="constant", cval=-np.inf)
    tol = params.plateau_tolerance * top
    labels, count = ndimage.label(
        (scaled >= window_max - tol) & (scaled > tol), structure=np.ones((3, 3))
    )
    peaks = np.sort(ndimage.maximum(scaled, labels, np.arange(1, count + 1)))[:-1]
    mean_rival = peaks.mean() if peaks.size else 0.0
    return scaled * (top - mean_rival) ** 2


def normalize_evidence_pair(
    a, b, params: NormalizationParams = NormalizationParams()
) -> tuple:
    """Normalize two antagonistic evidence maps onto one shared scale.

    The pair is rescaled jointly to ``[0, upper]`` — their relative
    strength is part of the signal, so they must not be stretched
    independently — and each map then receives its own peak-competition
    factor. A pair that is flat overall comes back as two zero maps.
    """
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return np.zeros_like(a), np.zeros_like(b)
    gain = params.upper / (hi - lo)
    return (
        _peak_competition((a - lo) * gain, params),
        _peak_competition((b - lo) * gain, params),
    )


def as_directed_stack(values, name: str = "stack") -> np.ndarray:
    """Coerce to a finite (8, 2, rows, cols) float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[:2] != (N_ORIENTATIONS, N_SIDES):
        raise ValueError(
            f"{name} must have shape (8, 2, rows, cols), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _check_carriers(carriers) -> tuple:
    carriers = tuple(carriers)
    if len(carriers) != N_ORIENTATIONS:
        raise ValueError(f"need {N_ORIENTATIONS} carrier pyramids, got {len(carriers)}")
    for c in carriers[1:]:
        if c.dims != carriers[0].dims:
            raise ValueError("carrier pyramids must align level by level")
    return carriers


def _carrier_stack(carriers, k: int) -> np.ndarray:
    return np.stack([c[k] for c in carriers])


def _ring_bank(shape, params: ContextParams) -> np.ndarray:
    """The 16 ring kernels fitted to ``shape``, a read-only (8, 2, s, s) array."""
    nominal = VonMisesParams(bo_direction=0.0, r0=params.ring_radius, form=params.ring_form)
    size = clamp_kernel_size(nominal.resolved_size(), shape)
    return _ring_kernels(size, params.ring_radius, params.ring_form)


@functools.lru_cache(maxsize=64)
def _ring_kernels(size: int, ring_radius: float, ring_form: str) -> np.ndarray:
    bank = np.array([
        [make_von_mises(VonMisesParams(bo_direction(ti, si), ring_radius, size, ring_form))
         for si in range(N_SIDES)]
        for ti in range(N_ORIENTATIONS)
    ])
    bank.flags.writeable = False
    return bank


def _ring_responses(evidence, params: ContextParams) -> np.ndarray:
    """Project ``evidence[ti][si]`` through the ring kernel toward (ti, si)."""
    shape = evidence[0][0].shape
    bank = _ring_bank(shape, params)
    out = np.empty((N_ORIENTATIONS, N_SIDES) + shape)
    for ti in range(N_ORIENTATIONS):
        for si in range(N_SIDES):
            out[ti, si] = correlate2d(evidence[ti][si], bank[ti, si])
    return out


def scale_contexts(responses: Sequence[np.ndarray]) -> list:
    """Pool projected evidence from every coarser level onto each level.

    ``ctx[k] = sum_{j >= k} 2^{-(j+1)} * resample(responses[j] -> dims_k)``
    with the level index weighted 1-based, so coarser levels contribute
    geometrically less; every term is brought to level k in one hop.
    Each level is one :func:`pool_resampled` call over the whole stack,
    which reassociates the sum (exact to about 1e-15 relative).
    """
    n = len(responses)
    return [
        pool_resampled(
            responses[k:],
            *responses[k].shape[-2:],
            [2.0 ** -(j + 1) for j in range(k, n)],
        )
        for k in range(n)
    ]


def _unmodulated(carriers, k: int) -> np.ndarray:
    c = _carrier_stack(carriers, k)[:, None]
    return np.repeat(np.maximum(0.0, c), N_SIDES, axis=1)


def compute_bo_light_dark(
    carriers,
    cs_pairs,
    weights: ModelWeights = ModelWeights(),
    context: ContextParams = ContextParams(),
):
    """Contrast-route ownership stacks, one per polarity.

    ``carriers`` are the eight oriented-energy pyramids. ``cs_pairs`` is
    a single :class:`CSPyramidPair` shared by every orientation
    (symmetric features) or a sequence of eight orientation-specific
    pairs (the oriented feature). Returns ``(light, dark)`` level lists
    of (8, 2, rows, cols) stacks where, per level k::

        light[k][t, s] = max(0, C_t * (1 + ctx_light[t, s]
                                         - w_opp * ctx_dark[t, 1 - s]))

    and ``dark`` swaps the two context roles: same-polarity evidence on
    the owned side excites, opposite polarity on the opposite side
    inhibits.
    """
    carriers = _check_carriers(carriers)
    n = len(carriers[0])
    shared = isinstance(cs_pairs, CSPyramidPair)
    pairs = (cs_pairs,) if shared else tuple(cs_pairs)
    if not shared and len(pairs) != N_ORIENTATIONS:
        raise ValueError(f"need one CS pair or {N_ORIENTATIONS}, got {len(pairs)}")
    for pair in pairs:
        if pair.light.dims != carriers[0].dims:
            raise ValueError("CS pyramids must align with the carriers level by level")

    resp_light, resp_dark = [], []
    for j in range(n):
        normed = [
            normalize_evidence_pair(p.light[j], p.dark[j], context.normalization) for p in pairs
        ]
        if shared:
            normed *= N_ORIENTATIONS
        # both sides of an orientation project the same evidence map
        resp_light.append(_ring_responses([(nl, nl) for nl, _ in normed], context))
        resp_dark.append(_ring_responses([(nd, nd) for _, nd in normed], context))
    ctx_light = scale_contexts(resp_light)
    ctx_dark = scale_contexts(resp_dark)

    bo_light, bo_dark = [], []
    for k in range(n):
        c = _carrier_stack(carriers, k)[:, None]
        gain_l = 1.0 + ctx_light[k] - weights.w_opp * ctx_dark[k][:, ::-1]
        gain_d = 1.0 + ctx_dark[k] - weights.w_opp * ctx_light[k][:, ::-1]
        bo_light.append(np.maximum(0.0, c * gain_l))
        bo_dark.append(np.maximum(0.0, c * gain_d))
    return bo_light, bo_dark


def compute_bo_local_cue(
    carriers,
    cue_maps,
    weights: ModelWeights = ModelWeights(),
    context: ContextParams = ContextParams(),
) -> list:
    """Ownership stacks modulated by one directed local-cue stack.

    The native (8, 2, rows, cols) cue stack is pyramided by successive
    downsampling, normalized per level and side, projected through the
    ring kernel of its own direction, and pooled across scales exactly
    like the contrast route; the cue on a cell's own side excites it and
    the opposite side inhibits. With ``weights.top_layers_only = m``
    only the ``m`` finest levels are modulated and the rest pass the
    carrier through unchanged.
    """
    carriers = _check_carriers(carriers)
    n = len(carriers[0])
    cue_maps = as_directed_stack(cue_maps, "cue stack")
    expected = (N_ORIENTATIONS, N_SIDES) + carriers[0][0].shape
    if cue_maps.shape != expected:
        raise ValueError(
            f"cue stack must have shape {expected}, got {cue_maps.shape}"
        )
    limit = n if weights.top_layers_only is None else min(weights.top_layers_only, n)
    if not cue_maps.any():
        # an absent cue modulates nothing anywhere
        return [_unmodulated(carriers, k) for k in range(n)]

    responses = [
        _ring_responses(
            [
                normalize_evidence_pair(level[ti, 0], level[ti, 1], context.normalization)
                for ti in range(N_ORIENTATIONS)
            ],
            context,
        )
        for level in build_pyramid(cue_maps, n, carriers[0].factor)
    ]
    ctx = scale_contexts(responses)

    out = []
    for k in range(n):
        if k >= limit:
            out.append(_unmodulated(carriers, k))
            continue
        c = _carrier_stack(carriers, k)[:, None]
        gain = 1.0 + ctx[k] - weights.w_opp * ctx[k][:, ::-1]
        out.append(np.maximum(0.0, c * gain))
    return out


def _require_aligned(a, b, name_a: str, name_b: str):
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} has {len(a)} levels but {name_b} has {len(b)}"
        )
    for k, (sa, sb) in enumerate(zip(a, b)):
        if sa.shape != sb.shape:
            raise ValueError(
                f"{name_a} and {name_b} disagree at level {k}: "
                f"{sa.shape} vs {sb.shape}"
            )


def combine_bo(
    bo_light,
    bo_dark,
    weights: ModelWeights,
    bo_sa=None,
    bo_tj=None,
) -> list:
    """Blend the contrast and local-cue routes level by level.

    ``combined[k] = alpha_ref * (light[k] + dark[k]) + alpha_sa * sa[k]
    + alpha_tj * tj[k]``. A route whose alpha is zero is never touched,
    so its stacks (present or not) cannot influence the result.
    """
    _require_aligned(bo_light, bo_dark, "light", "dark")
    if weights.alpha_sa > 0:
        if bo_sa is None:
            raise ValueError("alpha_sa > 0 requires the spectral-anisotropy route")
        _require_aligned(bo_light, bo_sa, "light", "sa")
    if weights.alpha_tj > 0:
        if bo_tj is None:
            raise ValueError("alpha_tj > 0 requires the T-junction route")
        _require_aligned(bo_light, bo_tj, "light", "tj")
    out = []
    for k in range(len(bo_light)):
        level = weights.alpha_ref * (bo_light[k] + bo_dark[k])
        if weights.alpha_sa > 0:
            level = level + weights.alpha_sa * bo_sa[k]
        if weights.alpha_tj > 0:
            level = level + weights.alpha_tj * bo_tj[k]
        out.append(level)
    return out


def winning_bo(combined: Sequence[np.ndarray]) -> list:
    """Keep only the orientation with the largest side imbalance.

    Per level and pixel the winning orientation maximizes
    ``|B[t, 0] - B[t, 1]|`` (ties go to the lowest index); the output
    holds the rectified imbalance on the winning side and zero
    everywhere else, so at most one of the 16 cells is nonzero.
    """
    out = []
    for stack in combined:
        stack = as_directed_stack(stack, "combined")
        delta = stack[:, 0] - stack[:, 1]
        winner = np.abs(delta).argmax(axis=0)
        onehot = winner[None] == np.arange(N_ORIENTATIONS)[:, None, None]
        level = np.zeros_like(stack)
        level[:, 0] = np.where(onehot, np.maximum(delta, 0.0), 0.0)
        level[:, 1] = np.where(onehot, np.maximum(-delta, 0.0), 0.0)
        out.append(level)
    return out


def sum_bo_sets(sets: Sequence) -> list:
    """Element-wise sum of aligned level lists (e.g. the opponency four)."""
    sets = [list(s) for s in sets]
    if not sets:
        raise ValueError("need at least one set to sum")
    for other in sets[1:]:
        _require_aligned(sets[0], other, "first set", "another set")
    return [np.sum([s[k] for s in sets], axis=0) for k in range(len(sets[0]))]


def final_bo_maps(winning_per_feature, weights: ModelWeights = ModelWeights()) -> np.ndarray:
    """Native-resolution ownership maps summed across scales and features.

    Feature sets are ordered (color, intensity, orientation) to match
    ``weights.feature_weights``; passing fewer sets uses the leading
    weights. Every level of the weighted feature sum is up-sampled to
    the native (level 0) dimensions and added, giving one
    (8, 2, rows, cols) stack: one :func:`cross_scale_sum` (the pooled
    sparse operator) over whole stacks, which reassociates the sum of
    per-level resamples (exact to about 1e-15 relative).
    """
    sets = [list(s) for s in winning_per_feature]
    if not sets:
        raise ValueError("need at least one winning set")
    if len(sets) > len(weights.feature_weights):
        raise ValueError(
            f"got {len(sets)} winning sets for {len(weights.feature_weights)} weights"
        )
    for other in sets[1:]:
        _require_aligned(sets[0], other, "first feature", "another feature")
    weighted = [
        sum(w * feature_set[k] for w, feature_set in zip(weights.feature_weights, sets))
        for k in range(len(sets[0]))
    ]
    return cross_scale_sum(weighted, *weighted[0].shape[-2:])
