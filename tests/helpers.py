"""Fixtures and oracles that only the tests need."""

import math

import numpy as np
from scipy import fft

from fgo import grid
from fgo.channels import as_image, bo_direction, compute_channels
from fgo.cues import build_tj_maps, compute_sa_maps, detect_t_junctions
from fgo.filters import (
    clamp_kernel_size,
    make_center_surround,
    make_gabor,
    make_von_mises,
    ring_size,
)
from fgo.grid import pool_resampled, pyramid_levels
from fgo.io import _pnm_tokens
from fgo.ownership import cs_pyramids
from fgo.stimuli import annulus, isolated_square, overlapping_squares, shaded_edge


def read_pgm(path) -> np.ndarray:
    """The raster of a binary P5 PGM, the format of the visualizations
    ``fgo run`` writes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: unsupported PGM magic")
    (width, height, _), offset = _pnm_tokens(path, blob, 4)
    # a short raster is refused by frombuffer
    raster = np.frombuffer(blob, dtype=np.uint8, count=width * height, offset=offset)
    return raster.reshape(height, width).copy()


def count_transforms(monkeypatch):
    """Count the forward and inverse real FFTs that ``fgo.grid`` takes
    from here on: a dict of ``rfftn`` and ``irfftn`` calls."""
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        transform = getattr(grid.fft, name)

        def counted(*args, name=name, transform=transform, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        monkeypatch.setattr(grid.fft, name, counted)
    return calls


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
        ("overlap", np.stack([over.image, over.image**2, 1.0 - over.image]),
         over.signed, over.contours, over.segments),
        ("annulus", annulus().image, annulus().signed, None, None),  # mirror ties
        ("square", isolated_square().image, isolated_square().signed, None, None),
        ("shaded", shaded.image, shaded.signed, shaded.contours, shaded.segments),
        ("random", rng.random((3, 48, 56)), wide, None, None),
        # a flat image: its final responses are FFT round-off (about
        # 1e-14), so the decisions hang on the last bits
        ("flat", np.full((48, 48), 0.5), square.signed, None, None),
    ]


# ------------------------------------------------------------------
# the full path: (8, 2) ownership stacks at every level
# ------------------------------------------------------------------

def _resampler(n_out, n_in):
    """Bilinear, corner-aligned resampling along one axis, an (n_out,
    n_in) extended-precision matrix."""
    if n_out == 1:
        coords = np.array([(n_in - 1) / 2.0])
    else:
        coords = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
    lo = np.minimum(np.floor(coords).astype(int), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = coords - lo
    matrix = np.zeros((n_out, n_in), dtype=np.longdouble)
    np.add.at(matrix, (np.arange(n_out), lo), 1.0 - frac)
    np.add.at(matrix, (np.arange(n_out), hi), frac)
    return matrix


def _ring_projection(normed, ring_radius):
    """Each normalized (P, 8, 2, r, c) map correlated in extended
    precision with the ring kernel of its (t, s), edges replicated."""
    rows, cols = normed.shape[-2:]
    size = clamp_kernel_size(ring_size(ring_radius), (rows, cols))
    half = size // 2
    padded = np.pad(normed.astype(np.longdouble), [(0, 0)] * 3 + [(half, half)] * 2, mode="edge")
    shape = (rows + 4 * half, cols + 4 * half)  # the full correlation, unwrapped
    out = np.empty(normed.shape, dtype=np.longdouble)
    for t in range(8):
        for s in range(2):
            kernel = make_von_mises(bo_direction(t, s), ring_radius, size)
            flipped = fft.rfftn(kernel[::-1, ::-1].astype(np.longdouble), shape)
            for p in range(len(normed)):
                full = fft.irfftn(fft.rfftn(padded[p, t, s], shape) * flipped, shape)
                out[p, t, s] = full[size - 1 : size - 1 + rows, size - 1 : size - 1 + cols]
    return out


def joint_rescale(a, b):
    """Two evidence maps on one shared scale: ``(x - lo) / (hi - lo)``
    over the pair's joint range ``[lo, hi]``, two zero maps for a flat
    pair."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return np.zeros_like(a), np.zeros_like(b)
    return (a - lo) / (hi - lo), (b - lo) / (hi - lo)


def full_bo(carriers, evidence, w_opp, ring_radius, modulated=None):
    """A route's (8, 2, r, c) ownership stacks ``B``, level by level,
    in extended precision (``np.longdouble``): the stacks whose side
    imbalance ``B[:, 0] - B[:, 1]`` is what ``ownership.compute_bo``
    returns. Each level's competing pairs are rescaled jointly to
    ``[0, 1]`` (:func:`joint_rescale`), every map is
    projected through its own ring kernel, the projections are pooled
    by the chained formula of ``scale_contexts`` and every cell gates
    on its own: ``B[t, s] = sum_p max(0, C_t * (1 + ctx[p, t, s] -
    w_opp * ctx[P-1-p, t, 1-s]))``."""
    n = len(carriers)
    modulated = n if modulated is None else min(modulated, n)
    responses = []
    for level in evidence if modulated else ():
        normed = np.empty(np.broadcast_shapes(level.shape, (1, 8, 2, 1, 1)))
        if len(level) == 2:  # light and dark of each map
            wide = np.broadcast_to(level, normed.shape)
            for t, s in np.ndindex(8, 2):
                normed[0, t, s], normed[1, t, s] = joint_rescale(*wide[:, t, s])
        else:  # the two sides of each orientation
            for t in range(8):
                normed[0, t] = joint_rescale(*level[0, t])
        responses.append(_ring_projection(normed, ring_radius))
    ctx = [None] * len(responses)
    for k in reversed(range(len(responses))):
        ctx[k] = 2.0 ** -(k + 1) * responses[k]
        if k + 1 < len(responses):
            rows, cols = ctx[k].shape[-2:]
            coarse_rows, coarse_cols = ctx[k + 1].shape[-2:]
            ctx[k] += (
                _resampler(rows, coarse_rows) @ ctx[k + 1] @ _resampler(cols, coarse_cols).T
            )
    out = []
    for k, carrier in enumerate(carriers):
        if k >= modulated:
            passed = np.repeat(np.maximum(0.0, carrier[:, None]), 2, axis=1)
            out.append(passed.astype(np.longdouble))
            continue
        c = ctx[k]
        out.append(sum(
            np.maximum(0.0, carrier[:, None] * (1.0 + c[p] - w_opp * c[-1 - p, :, ::-1]))
            for p in range(len(c))
        ))
    return out


TIE = 1e-12  # the relative tie tolerance of ``ownership.winning_bo``


def full_winners(delta):
    """(8, 2) winners of one (8, r, c) imbalance level: the lowest
    orientation whose ``|delta|`` is within :data:`TIE` relative of the
    cell's largest wins."""
    size = np.abs(delta)
    winner = (size >= (1 - TIE) * size.max(axis=0)).argmax(axis=0)
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
    intensity, opponency, orientation = compute_channels(as_image(image), params.gabor)

    def pyramid(native):
        return list(pyramid_levels(native, params.n_scales, params.pyramid_factor))

    carriers = pyramid(orientation)
    w_c, w_i, w_o = params.feature_color, params.feature_intensity, params.feature_orientation

    def winners(feature):
        cs = cs_pyramids(
            pyramid(feature), params.dog.size, lambda size: make_center_surround(params.dog, size)
        )
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
    def gabors(size):
        return np.array([make_gabor(params.oriented_cs, t * np.pi / 8, size) for t in range(8)])

    cs = cs_pyramids(carriers, params.oriented_cs.size, gabors)
    full["contrast"] = full_bo(carriers, cs, params.w_opp, params.ring_radius)

    def local_cue(cue):
        levels = [level[None] for level in pyramid(cue)]
        modulated = params.top_layers_only if cue.any() else 0
        return full_bo(carriers, levels, params.w_opp, params.ring_radius, modulated)

    full["sa"] = local_cue(compute_sa_maps(intensity, params.sa))
    if contours is not None and segments is not None:
        junctions = detect_t_junctions(contours, segments, params.tj)
        full["tj"] = local_cue(build_tj_maps(contours, segments, junctions, params.tj))
    return full


def oracle_levels(full, weights):
    """The full path's feature sum of every level under the applied
    alpha ``weights``: blend the (8, 2) route stacks, keep the
    orientation with the largest ``|B[:, 0] - B[:, 1]|`` (ties by
    :func:`full_winners`' rule), and add ``w_o * winners`` to the
    ``fixed`` level.

    The blend runs in extended precision: in float64 the difference of
    two blended sides loses the bits the sides' magnitude takes, which
    the side imbalances do not.
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
        levels.append(fixed + full["w_o"] * full_winners(delta))
    return levels


def oracle_final(full, weights):
    """:func:`oracle_levels` pooled to native size in one pool: the
    final maps of the full path."""
    levels = oracle_levels(full, weights)
    return pool_resampled(levels, *levels[0].shape[-2:])
