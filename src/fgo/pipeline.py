"""End-to-end run: image -> channels -> pyramids -> ownership maps.

The channels are plain arrays (``channels.compute_channels``) and every
pyramid is a plain level list from ``grid.pyramid_levels``. The three
feature channels share one set of oriented-energy carriers, built once
as a list of (8, 1, rows, cols) levels. Every route is one
``ownership.compute_bo`` call on them, which returns the route's
(8, rows, cols) side imbalances per level: color and intensity
contribute through the contrast route alone, each feature's pyramid
built level by level as the route reads it; the orientation channel
additionally takes the two local cues, weighted by the model's alpha
triple. :class:`PipelineParams` holds every other setting, each as a
field of the kernel or weight that uses it, and ``ModelWeights`` holds
the alpha triple, the only weights a weight point sets.

The run splits into a heavy, weight-independent preparation step and a
cheap combination step, so weight sweeps (tuning, preset comparison)
pay the filter bank once per image. No alpha touches colour or
intensity, so preparation sums their winners and pools them once into
one native ``fixed`` stack; a weight point then only combines and
selects the orientation routes (:func:`final_levels`).
:func:`finalize_components` adds the pool of those levels to
``fixed``, and ``evaluation.score_weights`` runs the same core on a
:class:`PreparedImage` restricted to the cells that feed the boundary
windows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .channels import N_ORIENTATIONS, ORIENTATIONS, RGBImage, compute_channels
from .cues import SAParams, TJParams, build_tj_maps, compute_sa_maps, detect_t_junctions
from .filters import DoGParams, GaborParams, VonMisesParams, make_center_surround, make_gabor
from .grid import SQRT2, check_pyramid_factor, next_level_dims, pool_resampled, pyramid_levels
from .ownership import N_SIDES, ModelWeights, combine_bo, compute_bo, cs_pyramids, winning_bo

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineParams:
    """Every setting of one model configuration but the alpha triple,
    each held by the kernel or weight that uses it: ``gabor`` the
    carriers' Gabor, ``dog`` the isotropic center-surround,
    ``oriented_cs`` the oriented center-surround's even Gabor (each bank
    fills in every kernel's ``theta``), ``ring_radius`` the ring
    kernels' radius, ``sa``/``tj`` the local cues, ``w_opp`` the
    opposite side's inhibition, ``feature_*`` the feature channels'
    weights in the final sum, and ``top_layers_only`` the number of
    finest levels a local cue modulates (None: every level)."""

    n_scales: int = 10
    pyramid_factor: float = SQRT2
    gabor: GaborParams = GaborParams(theta=0.0)
    dog: DoGParams = DoGParams()
    oriented_cs: GaborParams = GaborParams(theta=0.0, sigma=3.2, gamma=0.8, omega=0.7854)
    ring_radius: float = 2.0
    sa: SAParams = SAParams()
    tj: TJParams = TJParams()
    w_opp: float = 1.0
    feature_color: float = 1.0
    feature_intensity: float = 1.0
    feature_orientation: float = 1.0
    top_layers_only: int | None = None

    def __post_init__(self):
        if self.n_scales < 1:
            raise ValueError(f"n_scales must be >= 1, got {self.n_scales}")
        check_pyramid_factor(self.pyramid_factor)
        # the ring kernels' own check, so a bad radius is refused here
        # and not in the first compute_bo
        VonMisesParams(bo_direction=0.0, r0=self.ring_radius)
        if not self.w_opp >= 0:
            raise ValueError(f"w_opp must be non-negative, got {self.w_opp}")
        features = (self.feature_color, self.feature_intensity, self.feature_orientation)
        if not all(w >= 0 for w in features):
            raise ValueError(f"feature weights must be non-negative, got {features}")
        if self.top_layers_only is not None and self.top_layers_only < 1:
            raise ValueError(
                f"top_layers_only must be None or >= 1, got {self.top_layers_only}"
            )


@dataclass(frozen=True)
class RunResult:
    """Everything a single model run produces.

    ``final`` is the (8, 2, rows, cols) ownership stack at native
    resolution; ``weights`` are the weights actually applied (they can
    differ from the requested ones when the T-junction cue had to be
    dropped); ``junctions`` is the detected junction list when label
    maps were supplied.
    """

    final: np.ndarray
    weights: ModelWeights
    junctions: tuple = ()


def _fixed_term(intensity, opponency, carriers, params: PipelineParams) -> np.ndarray:
    """The native (8, 2, rows, cols) pool of ``feature_color * C +
    feature_intensity * I`` per level: ``C`` the winners of the
    non-empty opponency maps summed in channel order, in place, ``I``
    the intensity winners. Each takes the contrast route alone, and one
    feature is computed at a time, its pyramid built level by level as
    the route reads it. Zero when neither feature is weighted."""
    opponency = [native for native in opponency if native.any()]
    terms = None
    for weight, features in (
        (params.feature_color, opponency), (params.feature_intensity, [intensity])
    ):
        if weight == 0 or not features:
            continue
        total = None
        for feature in features:
            levels = pyramid_levels(feature, params.n_scales, params.pyramid_factor)
            cs = cs_pyramids(levels, [params.dog], make_center_surround)
            winners = winning_bo(compute_bo(carriers, cs, params.w_opp, params.ring_radius))
            if total is not None:  # summed in place, so one feature is alive beside it
                winners = [np.add(t, w, out=t) for t, w in zip(total, winners)]
            total = winners
        for level in total:
            level *= weight
        terms = total if terms is None else [np.add(a, b, out=a) for a, b in zip(terms, total)]
    rows, cols = carriers[0].shape[-2:]
    if terms is None:
        return np.zeros((N_ORIENTATIONS, N_SIDES, rows, cols))
    return pool_resampled(terms, rows, cols, (1.0,) * len(terms))


def _check_image_fits(shape, params: PipelineParams, sa_route: bool) -> None:
    """Refuse an image that a native-size filter bank or the pyramid does
    not fit, naming the limit.

    The carrier Gabor and, on the SA route, the spectral-anisotropy bank
    run at native size and must be smaller than the image in both axes.
    Every pyramid level must keep at least 2x2 cells, the least any
    clamped kernel fits.
    """
    rows, cols = shape
    banks = [("the carrier Gabor", params.gabor.resolved_size())]
    if sa_route:
        banks.append(("the spectral-anisotropy bank's largest filter", params.sa.sizes[-1]))
    for name, size in banks:
        if min(shape) <= size:
            raise ValueError(
                f"a {rows}x{cols} image is too small for {name} ({size} px): "
                f"both sides must be at least {size + 1} px"
            )
    dims = shape
    for level in range(1, params.n_scales):
        dims = next_level_dims(*dims, params.pyramid_factor)
        if min(dims) < 2:
            raise ValueError(
                f"n_scales={params.n_scales} with pyramid_factor={params.pyramid_factor:g} "
                f"shrinks a {rows}x{cols} image to {dims[0]}x{dims[1]} at level {level}; "
                f"at most {level} levels fit (every level needs 2x2 cells)"
            )


@dataclass(frozen=True)
class PreparedImage:
    """Weight-independent building blocks of one image's run.

    ``params`` are the settings the image was prepared with; a finalize
    reads ``feature_orientation`` from them. ``fixed`` is the weighted
    colour plus intensity term, which no alpha changes, pooled to one
    native (8, 2, rows, cols) stack. ``bo_contrast`` (light and dark
    summed) and ``bo_sa``/``bo_tj`` are the orientation routes, each a
    level list of (8, r_j, c_j) side imbalances
    (``ownership.compute_bo``), None when not prepared. ``have_labels``
    records whether contour and segment maps were given; without them
    :func:`finalize_components` folds the T-junction weight into the
    contrast route.

    At 321x481 with every route, ``fixed`` holds 18.8 MiB and each route
    about 19 MiB over its ten levels: about 76 MiB in all.
    """

    params: PipelineParams
    have_labels: bool
    fixed: np.ndarray
    bo_contrast: list | None
    bo_sa: list | None
    bo_tj: list | None
    junctions: tuple = ()

    @property
    def level_dims(self) -> tuple:
        """The ``(rows, cols)`` of every level of the orientation
        routes; empty without them."""
        return tuple(level.shape[-2:] for level in self.bo_contrast or ())


def prepare_components(
    image,
    params: PipelineParams = PipelineParams(),
    contours=None,
    segments=None,
    need_sa: bool = False,
    need_tj: bool = False,
) -> PreparedImage:
    """Run every weight-independent stage of the model once.

    ``need_sa``/``need_tj`` build the local-cue routes, so that weight
    points with a non-zero ``alpha_sa``/``alpha_tj`` can be finalized;
    neither is built without the orientation feature. The T-junction
    route additionally requires the label maps; an image that needs it
    without them is warned about once here, and every finalize of it
    folds the T-junction weight into the contrast route. An image too
    small for the native filter banks or for ``n_scales`` pyramid levels
    is refused with a ValueError that names the limit, and so is one
    label map without the other, or one whose shape is not the image's,
    before any filtering or junction detection.
    """
    if not isinstance(image, RGBImage):
        image = RGBImage.from_gray(image)
    if (contours is None) != (segments is None):
        raise ValueError("contour and segment maps must be given together")
    have_labels = contours is not None
    _check_image_fits(image.shape, params, need_sa and params.feature_orientation > 0)
    for name, labels in (("contour", contours), ("segment", segments)):
        if labels is not None and np.shape(labels) != image.shape:
            raise ValueError(
                f"the {name} map is {'x'.join(map(str, np.shape(labels)))} but the "
                f"image is {image.shape[0]}x{image.shape[1]}: label maps must match the image"
            )

    if need_tj and not have_labels:
        log.warning(
            "T-junction weight alphaTJ given without contour/segment maps for a "
            "%dx%d image; reassigning it to alphaRef, so its mass moves to the "
            "contrast route",
            *image.shape,
        )

    intensity, opponency, orientation = compute_channels(image, params.gabor)
    carriers = list(pyramid_levels(orientation[:, None], params.n_scales, params.pyramid_factor))
    fixed = _fixed_term(intensity, opponency, carriers, params)

    junctions: tuple = ()
    if have_labels:
        junctions = tuple(detect_t_junctions(contours, segments, params.tj))

    bo_contrast = bo_sa = bo_tj = None
    if params.feature_orientation > 0:
        gabors = [replace(params.oriented_cs, theta=theta) for theta in ORIENTATIONS]
        cs = cs_pyramids(carriers, gabors, make_gabor)
        bo_contrast = compute_bo(carriers, cs, params.w_opp, params.ring_radius)

        def local_cue(cue):
            """One polarity with a map per side; an absent cue modulates
            nothing. The pyramid is built level by level, and its
            generator holds the only reference to the native cue."""
            modulated = params.top_layers_only if cue.any() else 0
            levels = pyramid_levels(cue, params.n_scales, params.pyramid_factor)
            del cue
            return compute_bo(
                carriers, (level[None] for level in levels), params.w_opp, params.ring_radius,
                modulated,
            )

        if need_sa:
            bo_sa = local_cue(compute_sa_maps(intensity, params.sa))
        if need_tj and have_labels:
            bo_tj = local_cue(build_tj_maps(contours, segments, junctions, params.tj))

    return PreparedImage(
        params=params,
        have_labels=have_labels,
        fixed=fixed,
        bo_contrast=bo_contrast,
        bo_sa=bo_sa,
        bo_tj=bo_tj,
        junctions=junctions,
    )


def applied_weights(weights: ModelWeights, have_labels: bool, orientation: bool) -> ModelWeights:
    """The weights a finalize of a prepared image applies.

    Without label maps the T-junction weight is folded into the contrast
    route (``alpha_tj`` moves to ``alpha_ref``). Local-cue weights need
    the ``orientation`` route to have been prepared, and are refused
    otherwise.
    """
    if weights.alpha_tj > 0 and not have_labels:
        weights = replace(weights, alpha_ref=weights.alpha_ref + weights.alpha_tj, alpha_tj=0.0)
    if not orientation and (weights.alpha_sa > 0 or weights.alpha_tj > 0):
        raise ValueError("local-cue weights need the orientation feature")
    return weights


def final_levels(prepared: PreparedImage, weights: ModelWeights) -> tuple:
    """``(levels, applied)``: the orientation term of every level under
    one alpha triple, and the weights applied.

    The weights pass through :func:`applied_weights`; the orientation
    routes' side imbalances are blended (:func:`ownership.combine_bo`),
    the winning orientation kept (:func:`ownership.winning_bo`), and
    each level is ``feature_orientation * winners``, an (8, 2, r_j,
    c_j) stack, with ``feature_orientation`` from ``prepared.params``.
    Without an orientation route ``levels`` is None.
    """
    weights = applied_weights(weights, prepared.have_labels, prepared.bo_contrast is not None)
    if prepared.bo_contrast is None:
        return None, weights
    winners = winning_bo(
        combine_bo(prepared.bo_contrast, weights, bo_sa=prepared.bo_sa, bo_tj=prepared.bo_tj)
    )
    w_orientation = prepared.params.feature_orientation
    return [np.multiply(level, w_orientation, out=level) for level in winners], weights


def finalize_components(prepared: PreparedImage, weights: ModelWeights) -> RunResult:
    """Apply one alpha triple to prepared building blocks.

    :func:`final_levels`, then every level up-sampled to the native
    dimensions and added, in one unit-weight :func:`grid.pool_resampled`
    call over whole stacks, and the pool added to ``prepared.fixed``.
    Both the pool and pooling ``fixed`` apart from it reassociate the
    sum of per-level resamples (exact to about 1e-15 relative).
    ``RunResult.weights`` holds the weights applied. This is the
    full-map path of ``fgo run``.
    """
    levels, weights = final_levels(prepared, weights)
    if levels is None:
        final = prepared.fixed.copy()
    else:
        final = pool_resampled(levels, *prepared.fixed.shape[-2:], (1.0,) * len(levels))
        final += prepared.fixed
    return RunResult(final=final, weights=weights, junctions=prepared.junctions)


def run_model(
    image,
    weights: ModelWeights = ModelWeights(),
    params: PipelineParams = PipelineParams(),
    contours=None,
    segments=None,
) -> RunResult:
    """Compute the final border-ownership maps for one image.

    ``image`` is an :class:`RGBImage` or a single [0, 1] grayscale map.
    ``contours``/``segments`` are integer label maps enabling the
    T-junction cue, given both or neither; without them any T-junction
    weight falls back to the contrast route with a warning.
    """
    prepared = prepare_components(
        image,
        params,
        contours=contours,
        segments=segments,
        need_sa=weights.alpha_sa > 0,
        need_tj=weights.alpha_tj > 0,
    )
    return finalize_components(prepared, weights)
