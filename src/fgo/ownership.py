"""Border-ownership responses from pooled region evidence.

A border cell sits on an oriented edge and prefers one of the two
ownership directions ``theta + pi/2`` (side index 0) or ``theta - pi/2``
(side index 1). Region evidence — center-surround contrast for the
global route, directed local-cue maps for the others — is normalized
per pyramid level, projected onto borders through an annular ring
kernel pointing in the ownership direction, pooled across scales with
geometrically decaying weights, and finally gates the oriented carrier
response multiplicatively.

Every route takes one path. Its evidence is a level list of
``(..., 2, rows, cols)`` stacks — center-surround light (side index 0)
and dark (1) for the contrast route, the two sides of a directed cue
for the others — whose ``[t, 0]``/``[t, 1]`` pairs are normalized
together, then projected, pooled and used as the gate
``max(0, C_t * (1 + excite[t, s] - w_opp * inhibit[t, 1 - s]))``. The
contrast route gates with light exciting and dark inhibiting and with
the roles swapped, and keeps only the sum of the two: nothing
downstream reads the polarities apart.

Directed data travels as "stacks": arrays of shape ``(8, 2, rows,
cols)`` indexed ``[orientation, side, row, col]``. A multiscale result
is a list of stacks, index 0 the finest (native) level. Evidence shared
by every orientation stays (1, 2, rows, cols) up to the ring projection,
which broadcasts it against the (8, 2) kernel bank.

The module ends at the per-level winners (:func:`winning_bo`);
``pipeline`` sums them across features and pools them to native
resolution.
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
from .filters import VonMisesParams, clamp_kernel_size, make_von_mises
from .grid import NormalizationParams, build_pyramid, correlate_stack, pool_resampled

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


def cs_pyramids(features, kernel_params, make_kernel) -> list:
    """Rectified center-surround evidence of aligned feature pyramids.

    ``features`` holds one pyramid per kernel setting in
    ``kernel_params``: a single isotropic feature with its difference of
    Gaussians (``make_center_surround``), or the eight orientation
    pyramids with an even Gabor at each one's own orientation
    (``make_gabor``), since feature contrast along an edge is not
    isotropic. Each level is one :func:`correlate_stack` call over the
    stacked pyramids and their kernels ``make_kernel(setting)``, each
    clamped to fit the level. Level k comes back as one
    (n, 2, rows, cols) stack, n the number of pyramids: side index 0 is
    the light evidence ``max(0, response)`` (bright structure on a dark
    ground), index 1 the dark evidence ``max(0, -response)``. A single
    shared (1, 2, rows, cols) stack broadcasts to every orientation.
    """
    features = tuple(features)
    kernel_params = tuple(kernel_params)
    if len(kernel_params) != len(features):
        raise ValueError(
            f"got {len(kernel_params)} kernel settings for {len(features)} feature pyramids"
        )
    dims = features[0].dims
    if any(f.dims != dims for f in features[1:]):
        raise ValueError("feature pyramids must align level by level")
    out = []
    for k, shape in enumerate(dims):
        kernels = np.array([
            make_kernel(replace(s, size=clamp_kernel_size(s.resolved_size(), shape)))
            for s in kernel_params
        ])
        response = correlate_stack(np.array([f[k] for f in features]), kernels)
        out.append(np.stack([np.maximum(0.0, response), np.maximum(0.0, -response)], axis=1))
    return out


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
    # per-peak maxima over the labelled cells alone
    cells = labels > 0
    peaks = np.full(count, -np.inf)
    np.maximum.at(peaks, labels[cells] - 1, scaled[cells])
    peaks = np.sort(peaks)[:-1]
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


def _carrier_levels(carriers) -> list:
    """Check the eight carrier pyramids; per level, their (8, 1, r, c) stack."""
    carriers = tuple(carriers)
    if len(carriers) != N_ORIENTATIONS:
        raise ValueError(f"need {N_ORIENTATIONS} carrier pyramids, got {len(carriers)}")
    for c in carriers[1:]:
        if c.dims != carriers[0].dims:
            raise ValueError("carrier pyramids must align level by level")
    return [np.stack(level)[:, None] for level in zip(*carriers)]


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
    """Project ``evidence[t, s]`` through the ring kernel toward (t, s).

    ``evidence`` is a (1 or 8, 1 or 2, r, c) stack that broadcasts
    against the (8, 2) ring bank, so a map shared by several kernels is
    transformed once (:func:`correlate_stack`); the result is
    (8, 2, r, c).
    """
    return correlate_stack(evidence, _ring_bank(evidence.shape[-2:], params))


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


def _normalized(level, params: NormalizationParams) -> np.ndarray:
    """Normalize every ``[t, 0]``/``[t, 1]`` pair of a ``(..., 2, r, c)`` level.

    The result is an (m, 2, r, c) stack, m the number of pairs: a level
    shared by every orientation ((2, r, c) or (1, 2, r, c)) is
    normalized once and stays (1, 2, r, c), not tiled to eight
    orientations.
    """
    shape = level.shape[-2:]
    return np.array([
        normalize_evidence_pair(a, b, params)
        for a, b in level.reshape((-1, N_SIDES) + shape)
    ])


def _pooled_contexts(evidence, params: ContextParams) -> list:
    """Project each level's evidence through the ring kernels
    (:func:`_ring_responses`), then pool the (8, 2, r, c) projections
    across scales (:func:`scale_contexts`).

    ``evidence`` may be a generator, so that only one level of it is
    alive at a time."""
    return scale_contexts([_ring_responses(level, params) for level in evidence])


def _gate(carrier, excite, inhibit, w_opp: float) -> np.ndarray:
    """``max(0, C_t * (1 + excite[t, s] - w_opp * inhibit[t, 1 - s]))``."""
    return np.maximum(0.0, carrier * (1.0 + excite - w_opp * inhibit[:, ::-1]))


def _unmodulated(carrier) -> np.ndarray:
    return np.repeat(np.maximum(0.0, carrier), N_SIDES, axis=1)


def compute_bo_contrast(
    carriers,
    cs_levels,
    weights: ModelWeights = ModelWeights(),
    context: ContextParams = ContextParams(),
) -> list:
    """Contrast-route ownership stacks, light and dark polarity summed.

    ``carriers`` are the eight oriented-energy pyramids. ``cs_levels`` is
    the :func:`cs_pyramids` output: per level a (2, rows, cols) or
    (1, 2, rows, cols) stack shared by every orientation (symmetric
    features) or an (8, 2, rows, cols) stack (the oriented feature),
    side index 0 light and 1 dark. A shared level is normalized once and
    projected as one map per polarity, not tiled to eight orientations.
    Both sides of an orientation project the same polarity map, so per
    level k::

        gate(e, i)[t, s] = max(0, C_t * (1 + e[t, s] - w_opp * i[t, 1 - s]))
        contrast[k] = gate(ctx_light, ctx_dark) + gate(ctx_dark, ctx_light)

    Same-polarity evidence on the owned side excites, opposite polarity
    on the opposite side inhibits.
    """
    carrier_levels = _carrier_levels(carriers)
    dims = [c.shape[-2:] for c in carrier_levels]
    cs_levels = list(cs_levels)
    leads = ((), (1,), (N_ORIENTATIONS,))
    for k, (level, shape) in enumerate(zip(cs_levels, dims, strict=True)):
        if level.shape not in [lead + (N_SIDES,) + shape for lead in leads]:
            raise ValueError(
                f"CS level {k} must be (2,), (1, 2) or (8, 2) + {shape}, got {level.shape}"
            )

    normed = [_normalized(level, context.normalization) for level in cs_levels]
    ctx_light = _pooled_contexts((n[:, :1] for n in normed), context)
    ctx_dark = _pooled_contexts((n[:, 1:] for n in normed), context)
    return [
        _gate(c, light, dark, weights.w_opp) + _gate(c, dark, light, weights.w_opp)
        for c, light, dark in zip(carrier_levels, ctx_light, ctx_dark)
    ]


def compute_bo_local_cue(
    carriers,
    cue_maps,
    weights: ModelWeights = ModelWeights(),
    context: ContextParams = ContextParams(),
) -> list:
    """Ownership stacks modulated by one directed local-cue stack.

    The native (8, 2, rows, cols) cue stack is pyramided by successive
    downsampling, then takes the contrast route's path: normalized per
    level and orientation, projected through the ring kernel of its own
    direction, and pooled across scales; the cue on a cell's own side
    excites it and the opposite side inhibits (``gate(ctx, ctx)``).
    With ``weights.top_layers_only = m`` only the ``m`` finest levels
    are modulated and the rest pass the carrier through unchanged.
    """
    carrier_levels = _carrier_levels(carriers)
    n = len(carrier_levels)
    cue_maps = as_directed_stack(cue_maps, "cue stack")
    expected = (N_ORIENTATIONS, N_SIDES) + carrier_levels[0].shape[-2:]
    if cue_maps.shape != expected:
        raise ValueError(
            f"cue stack must have shape {expected}, got {cue_maps.shape}"
        )
    limit = n if weights.top_layers_only is None else min(weights.top_layers_only, n)
    if not cue_maps.any():
        # an absent cue modulates nothing anywhere
        return [_unmodulated(c) for c in carrier_levels]

    ctx = _pooled_contexts(
        (
            _normalized(level, context.normalization)
            for level in build_pyramid(cue_maps, n, carriers[0].factor)
        ),
        context,
    )
    return [
        _gate(c, ctx[k], ctx[k], weights.w_opp) if k < limit else _unmodulated(c)
        for k, c in enumerate(carrier_levels)
    ]


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
    bo_contrast,
    weights: ModelWeights,
    bo_sa=None,
    bo_tj=None,
) -> list:
    """Blend the contrast and local-cue routes level by level.

    ``combined[k] = alpha_ref * contrast[k] + alpha_sa * sa[k]
    + alpha_tj * tj[k]``, with ``contrast`` the light + dark sum of
    :func:`compute_bo_contrast`. A route whose alpha is zero is never
    touched, so its stacks (present or not) cannot influence the result.
    """
    if weights.alpha_sa > 0:
        if bo_sa is None:
            raise ValueError("alpha_sa > 0 requires the spectral-anisotropy route")
        _require_aligned(bo_contrast, bo_sa, "contrast", "sa")
    if weights.alpha_tj > 0:
        if bo_tj is None:
            raise ValueError("alpha_tj > 0 requires the T-junction route")
        _require_aligned(bo_contrast, bo_tj, "contrast", "tj")
    out = []
    for k in range(len(bo_contrast)):
        level = weights.alpha_ref * bo_contrast[k]
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
