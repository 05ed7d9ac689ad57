"""Fixtures and oracles that only the tests need."""

import math
from dataclasses import replace

import numpy as np

from fgo.channels import RGBImage, compute_channels
from fgo.cues import build_tj_maps, compute_sa_maps, detect_t_junctions
from fgo.filters import make_center_surround, make_gabor
from fgo.grid import pool_resampled, pyramid_levels
from fgo.ownership import _projected, cs_pyramids, scale_contexts
from fgo.stimuli import annulus, isolated_square, overlapping_squares, shaded_edge


def junction_label_maps(angles_deg, size: int = 41, ray_len: int = 14):
    """Contour/segment maps of rays meeting at the center.

    One contour id per ray; segment ids fill the angular sectors between
    consecutive rays. Useful for exercising the junction classifier on
    T, Y, arrow and plus configurations.
    """
    center = size // 2
    contours = np.zeros((size, size), dtype=np.int64)
    for cid, deg in enumerate(angles_deg, start=1):
        phi = math.radians(deg)
        for t in range(1, ray_len + 1):
            r = center + int(round(t * math.sin(phi)))
            c = center + int(round(t * math.cos(phi)))
            if 0 <= r < size and 0 <= c < size:
                contours[r, c] = cid
    segments = np.zeros((size, size), dtype=np.int64)
    rr, cc = np.mgrid[0:size, 0:size]
    ang = np.degrees(np.arctan2(rr - center, cc - center)) % 360.0
    bounds = sorted(a % 360.0 for a in angles_deg)
    segments[:] = len(bounds)
    for rid in range(len(bounds) - 1):
        segments[(ang >= bounds[rid]) & (ang < bounds[rid + 1])] = rid + 1
    return contours, segments


def scoring_battery():
    """``(name, image, signed, contours, segments)`` of the fixtures."""
    over = overlapping_squares()
    square = isolated_square(size=48, first=16, last=31)
    shaded = shaded_edge()
    rng = np.random.default_rng(11)
    wide = np.pad(square.signed, ((0, 0), (0, 8)))
    return [
        # colour, so every feature route carries signal, with labels
        ("overlap", RGBImage(over.image, over.image**2, 1.0 - over.image),
         over.signed, over.contours, over.segments),
        ("annulus", annulus().image, annulus().signed, None, None),  # mirror ties
        ("square", isolated_square().image, isolated_square().signed, None, None),
        ("shaded", shaded.image, shaded.signed, shaded.contours, shaded.segments),
        ("random", RGBImage(*rng.random((3, 48, 56))), wide, None, None),
        # a flat image: its final responses are FFT round-off (about
        # 1e-14), so the decisions hang on the last bits
        ("flat", np.full((48, 48), 0.5), square.signed, None, None),
    ]


# ------------------------------------------------------------------
# the full path: (8, 2) ownership stacks at every level
# ------------------------------------------------------------------

def full_bo(carriers, evidence, w_opp, ring_radius, modulated=None):
    """A route's (8, 2, r, c) ownership stacks ``B``, level by level:
    the stacks whose side imbalance ``B[:, 0] - B[:, 1]`` is what
    ``ownership.compute_bo`` returns. Same contexts, whole-stack gate."""
    n = len(carriers)
    modulated = n if modulated is None else min(modulated, n)
    ctx = scale_contexts([_projected(e, ring_radius) for e in evidence]) if modulated else []
    out = []
    for k, carrier in enumerate(carriers):
        if k >= modulated:
            out.append(np.repeat(np.maximum(0.0, carrier), 2, axis=1))
            continue
        c = ctx[k]
        gated = [
            np.maximum(0.0, carrier * (1.0 + c[p] - w_opp * c[-1 - p, :, ::-1]))
            for p in range(len(c))
        ]
        out.append(gated[0] if len(gated) == 1 else gated[0] + gated[1])
    return out


def full_winners(delta):
    """(8, 2) winners of one (8, r, c) imbalance level, first maximum
    of ``|delta|`` winning."""
    winner = np.abs(delta).argmax(axis=0)
    onehot = winner == np.arange(8)[:, None, None]
    return np.stack(
        [np.where(onehot, np.maximum(delta, 0.0), 0.0),
         np.where(onehot, np.maximum(-delta, 0.0), 0.0)],
        axis=1,
    )


def full_prepared(image, params, contours=None, segments=None):
    """The full path's building blocks of one image: ``fixed``, the
    level list ``(0 + w_c * C) + w_i * I`` of (8, 2) stacks (``C`` the
    opponency winners summed in channel order, ``I`` the intensity
    winners), the (8, 2) stacks of the contrast, SA and TJ routes
    (None without the orientation feature, TJ None without labels) and
    the orientation feature's weight ``w_o``."""
    if not isinstance(image, RGBImage):
        image = RGBImage.from_gray(image)
    intensity, opponency, orientation = compute_channels(image, params.gabor)

    def pyramid(native):
        return list(pyramid_levels(native, params.n_scales, params.pyramid_factor))

    carriers = pyramid(orientation[:, None])
    w_c, w_i, w_o = params.feature_color, params.feature_intensity, params.feature_orientation

    def winners(feature):
        cs = cs_pyramids(pyramid(feature), [params.dog], make_center_surround)
        stacks = full_bo(carriers, cs, params.w_opp, params.ring_radius)
        return [full_winners(b[:, 0] - b[:, 1]) for b in stacks]

    fixed = [np.zeros((8, 2) + c.shape[-2:]) for c in carriers]
    opponency = [native for native in opponency if native.any()]
    if w_c and opponency:
        colour = [sum(levels) for levels in zip(*map(winners, opponency))]
        fixed = [f + w_c * c for f, c in zip(fixed, colour)]
    if w_i:
        fixed = [f + w_i * i for f, i in zip(fixed, winners(intensity))]
    full = {"fixed": fixed, "contrast": None, "sa": None, "tj": None, "w_o": w_o}
    if not w_o:
        return full
    gabors = [replace(params.oriented_cs, theta=t * np.pi / 8) for t in range(8)]
    full["contrast"] = full_bo(
        carriers, cs_pyramids(carriers, gabors, make_gabor), params.w_opp, params.ring_radius
    )

    def local_cue(cue):
        levels = [level[None] for level in pyramid(cue)]
        modulated = params.top_layers_only if cue.any() else 0
        return full_bo(carriers, levels, params.w_opp, params.ring_radius, modulated)

    full["sa"] = local_cue(compute_sa_maps(intensity, params.sa))
    if contours is not None and segments is not None:
        junctions = detect_t_junctions(contours, segments, params.tj)
        full["tj"] = local_cue(build_tj_maps(contours, segments, junctions, params.tj))
    return full


def oracle_levels(full, weights, chosen=None, tie=1e-12):
    """The full path's feature sum of every level under the applied
    alpha ``weights``: blend the (8, 2) route stacks, keep the
    orientation with the largest ``|B[:, 0] - B[:, 1]|``, and add
    ``w_o * winners`` to the ``fixed`` level.

    The blend runs in extended precision: in float64 the difference of
    two blended sides loses the bits the sides' magnitude takes, which
    the side imbalances do not. Where a cell's largest ``|imbalance|``
    ties within ``tie`` relative with others, rounding decides the
    winner, and the winner of ``chosen`` (per level an (8, 2) stack of
    the path under test) is taken if it is one of the tied ones.
    """
    levels = []
    for k, fixed in enumerate(full["fixed"]):
        if full["contrast"] is None:
            levels.append(fixed)
            continue
        blend = weights.alpha_ref * full["contrast"][k].astype(np.longdouble)
        for alpha, route in ((weights.alpha_sa, full["sa"]), (weights.alpha_tj, full["tj"])):
            if alpha > 0:
                blend += alpha * route[k]
        delta = (blend[:, 0] - blend[:, 1]).astype(np.float64)
        if chosen is not None:
            size = np.abs(delta)
            pick = chosen[k].sum(axis=1).argmax(axis=0)
            tied = np.take_along_axis(size, pick[None], 0)[0] >= (1 - tie) * size.max(axis=0)
            # a tied cell keeps only the chosen orientation in the running
            delta = np.where(tied & (np.arange(8)[:, None, None] != pick), 0.0, delta)
        levels.append(fixed + full["w_o"] * full_winners(delta))
    return levels


def oracle_final(full, weights, chosen=None):
    """:func:`oracle_levels` pooled to native size in one unit-weight
    pool: the final maps of the full path."""
    levels = oracle_levels(full, weights, chosen)
    return pool_resampled(levels, *levels[0].shape[-2:], (1.0,) * len(levels))
