from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import ndimage

from fgo.channels import compute_orientation_channels
from fgo.grid import SQRT2, correlate_stack, pool_resampled, pyramid_levels
from fgo.filters import (
    DoGParams,
    VonMisesParams,
    clamp_kernel_size,
    make_center_surround,
    make_gabor,
    make_von_mises,
)
from fgo.ownership import (
    ModelWeights,
    _peak_competition,
    _ring_bank,
    bo_direction,
    combine_bo,
    compute_bo,
    cs_pyramids,
    normalize_evidence_pair,
    scale_contexts,
    winning_bo,
)
from fgo.pipeline import (
    PipelineParams,
    PreparedImage,
    final_levels,
    finalize_components,
    prepare_components,
)
from fgo.stimuli import annulus, overlapping_squares
from helpers import full_bo, full_prepared, oracle_levels

RING = PipelineParams().ring_radius


# ------------------------------------------------------------- oracles

def oracle_winning(stack):
    """Per-pixel scan over all orientations, first maximum wins."""
    out = np.zeros_like(stack)
    n_t, _, rows, cols = stack.shape
    for r in range(rows):
        for c in range(cols):
            best_t, best_abs = 0, -1.0
            for t in range(n_t):
                d = stack[t, 0, r, c] - stack[t, 1, r, c]
                if abs(d) > best_abs:
                    best_abs, best_t = abs(d), t
            d = stack[best_t, 0, r, c] - stack[best_t, 1, r, c]
            if d > 0:
                out[best_t, 0, r, c] = d
            elif d < 0:
                out[best_t, 1, r, c] = -d
    return out


def oracle_final_sets(sets, feature_weights):
    """Sequential resample-and-add, scalar weights applied per level."""
    rows, cols = sets[0][0].shape[-2:]
    out = np.zeros((8, 2, rows, cols))
    for ti in range(8):
        for si in range(2):
            for k in range(len(sets[0])):
                level = sum(w * s[k][ti, si] for w, s in zip(feature_weights, sets))
                out[ti, si] += pool_resampled([level], rows, cols, (1.0,))
    return out


def oracle_scale_contexts(responses):
    """The scale_contexts docstring formula, evaluated map by map."""
    out = []
    for k, target in enumerate(responses):
        rows, cols = target.shape[-2:]
        ctx = np.zeros_like(target)
        for ti in range(8):
            for si in range(2):
                for j in range(k, len(responses)):
                    ctx[ti, si] += 2.0 ** -(j + 1) * pool_resampled(
                        [responses[j][ti, si]], rows, cols, (1.0,)
                    )
        out.append(ctx)
    return out


def oracle_ring_responses(evidence, shape):
    """``evidence(t, s)`` correlated with a freshly built ring kernel."""
    size = clamp_kernel_size(VonMisesParams(0.0).resolved_size(), shape)
    out = np.empty((8, 2) + shape)
    for t in range(8):
        for s in range(2):
            kernel = make_von_mises(VonMisesParams(bo_direction(t, s), size=size))
            out[t, s] = correlate_stack(evidence(t, s), kernel)
    return out


def oracle_peak_competition(scaled):
    """The peak factor with each plateau's maximum from ``ndimage.maximum``:
    3x3 windows, plateaus within 1e-9 of the map's maximum."""
    top = scaled.max()
    if top <= 0:
        return np.zeros_like(scaled)
    window_max = ndimage.maximum_filter(scaled, size=3, mode="constant", cval=-np.inf)
    tol = 1e-9 * top
    labels, count = ndimage.label(
        (scaled >= window_max - tol) & (scaled > tol), structure=np.ones((3, 3))
    )
    peaks = np.sort(ndimage.maximum(scaled, labels, np.arange(1, count + 1)))[:-1]
    mean_rival = peaks.mean() if peaks.size else 0.0
    return scaled * (top - mean_rival) ** 2


def oracle_gate(c, excite, inhibit, s, w_opp):
    return np.maximum(0.0, c * (1.0 + excite[s] - w_opp * inhibit[1 - s]))


def oracle_contrast(carriers, cs_levels, w_opp):
    """Normalize each orientation's light/dark pair, project the light
    and the dark map toward both sides, pool, gate both ways and add."""
    resp_light, resp_dark = [], []
    for level in cs_levels:
        shape = level.shape[-2:]
        tiled = np.broadcast_to(level, (8, 2) + shape)
        pairs = [normalize_evidence_pair(tiled[t, 0], tiled[t, 1]) for t in range(8)]
        resp_light.append(oracle_ring_responses(lambda t, s: pairs[t][0], shape))
        resp_dark.append(oracle_ring_responses(lambda t, s: pairs[t][1], shape))
    ctx_light = oracle_scale_contexts(resp_light)
    ctx_dark = oracle_scale_contexts(resp_dark)
    out = []
    for k in range(len(cs_levels)):
        level = np.empty_like(ctx_light[k])
        for t in range(8):
            c = carriers[t][k]
            for s in range(2):
                level[t, s] = oracle_gate(
                    c, ctx_light[k][t], ctx_dark[k][t], s, w_opp
                ) + oracle_gate(c, ctx_dark[k][t], ctx_light[k][t], s, w_opp)
        out.append(level)
    return out


def oracle_local_cue(carriers, cue, params, factor):
    """Pyramid every cue map on its own, normalize each orientation's
    side pair, project toward its own side, pool and gate."""
    n = len(carriers[0])
    pyramids = [
        [list(pyramid_levels(cue[t, s], n, factor)) for s in range(2)] for t in range(8)
    ]
    responses = []
    for k in range(n):
        pairs = [normalize_evidence_pair(pyramids[t][0][k], pyramids[t][1][k]) for t in range(8)]
        responses.append(
            oracle_ring_responses(lambda t, s: pairs[t][s], carriers[0][k].shape)
        )
    ctx = oracle_scale_contexts(responses)
    limit = n if params.top_layers_only is None else params.top_layers_only
    out = []
    for k in range(n):
        level = np.empty_like(ctx[k])
        for t in range(8):
            c = carriers[t][k]
            for s in range(2):
                level[t, s] = (
                    oracle_gate(c, ctx[k][t], ctx[k][t], s, params.w_opp)
                    if k < limit
                    else np.maximum(0.0, c)
                )
        out.append(level)
    return out


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


def side_imbalance(stack):
    """``B[:, 0] - B[:, 1]`` of an (8, 2, r, c) stack."""
    return stack[:, 0] - stack[:, 1]


# ------------------------------------------------------------ fixtures

def square_image(size=64, lo=0.0, hi=1.0, first=20, last=43):
    img = np.full((size, size), lo)
    img[first : last + 1, first : last + 1] = hi
    return img


def make_carriers(image, n_scales=4, factor=SQRT2):
    """The carrier pyramid of (8, 1, r, c) levels, as the pipeline builds it."""
    return list(pyramid_levels(compute_orientation_channels(image)[:, None], n_scales, factor))


def per_orientation(carriers):
    """The carriers as eight pyramids of maps, ``[t][k]``, for the oracles."""
    return [[level[t, 0] for level in carriers] for t in range(8)]


def pair_layout(level):
    """A (2, ..., r, c) contrast evidence level as (m, 2, r, c), polarity
    second, the layout the oracles read."""
    return np.moveaxis(level, 0, -3).reshape((-1, 2) + level.shape[-2:])


def zero_cs(shape, n_scales=4, factor=SQRT2):
    levels = pyramid_levels(np.zeros(shape), n_scales, factor)
    return [np.zeros((2,) + level.shape) for level in levels]


def symmetric_cs(pyr):
    return list(cs_pyramids(pyr, [DoGParams()], make_center_surround))


def cue_bo(carriers, cue, params=PipelineParams(), factor=SQRT2):
    """The local-cue route: the native (8, 2, r, c) cue pyramided like the
    carriers (built with ``factor``), one polarity with a map per side."""
    levels = (level[None] for level in pyramid_levels(cue, len(carriers), factor))
    return compute_bo(carriers, levels, params.w_opp, RING, params.top_layers_only)


def oriented_gabor(theta):
    return replace(PipelineParams().oriented_cs, theta=theta)


def oriented_cs(pyr, theta):
    return list(cs_pyramids(pyr, [oriented_gabor(theta)], make_gabor))


# --------------------------------------------------------- ModelWeights

def test_weights_simplex_enforced():
    ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80)
    with pytest.raises(ValueError):
        ModelWeights(alpha_ref=0.5, alpha_sa=0.5, alpha_tj=0.5)
    with pytest.raises(ValueError):
        ModelWeights(alpha_ref=1.5, alpha_sa=-0.5, alpha_tj=0.0)


def test_weights_other_fields_validated():
    # the weights outside the alpha triple are pipeline settings
    assert [f.name for f in fields(ModelWeights)] == ["alpha_ref", "alpha_sa", "alpha_tj"]
    with pytest.raises(ValueError, match="w_opp must be non-negative"):
        PipelineParams(w_opp=-0.1)
    with pytest.raises(ValueError, match="feature weights must be non-negative"):
        PipelineParams(feature_intensity=-1.0)
    with pytest.raises(ValueError, match="top_layers_only must be None or >= 1"):
        PipelineParams(top_layers_only=0)


# ------------------------------------------------------- center-surround

def test_cs_symmetric_constant_silent():
    pyr = list(pyramid_levels(np.full((40, 40), 0.7), 4))
    for level, raw in zip(symmetric_cs(pyr), pyr, strict=True):
        assert level.shape == (2,) + raw.shape
        assert np.abs(level).max() < 1e-12


def test_cs_symmetric_disk_geometry():
    img = np.zeros((64, 64))
    rr, cc = np.mgrid[0:64, 0:64]
    radius = np.hypot(rr - 32.0, cc - 32.0)
    img[radius <= 15] = 1.0
    light, dark = symmetric_cs(pyramid_levels(img, 1))[0]
    lr, lc = np.unravel_index(light.argmax(), light.shape)
    assert radius[lr, lc] < 15  # light peaks inside the disk
    dr, dc = np.unravel_index(dark.argmax(), dark.shape)
    assert 15 <= radius[dr, dc] <= 23  # dark peaks just outside the rim
    # deep inside, the zero-sum kernel sees a flat patch: both silent
    assert light[32, 32] == pytest.approx(0.0, abs=1e-12)
    assert dark[32, 32] == pytest.approx(0.0, abs=1e-12)
    assert light[32, 44] > dark[32, 44] > -1e-15  # just inside the rim


def test_cs_symmetric_inversion_swaps_polarities():
    rng = np.random.default_rng(7)
    img = rng.random((32, 32))
    a = symmetric_cs(pyramid_levels(img, 3))
    b = symmetric_cs(pyramid_levels(1.0 - img, 3))
    for k in range(3):
        assert np.abs(a[k][0] - b[k][1]).max() < 1e-10
        assert np.abs(a[k][1] - b[k][0]).max() < 1e-10


def test_cs_oriented_constant_silent():
    pyr = list(pyramid_levels(np.full((40, 40), 0.3), 3))
    for level in oriented_cs(pyr, 0.0):
        assert np.abs(level[0]).max() < 1e-12


def test_cs_oriented_prefers_its_own_orientation():
    img = np.zeros((64, 64))
    img[:, 30:35] = 1.0  # vertical bright bar
    pyr = list(pyramid_levels(img, 1))
    at_bar = oriented_cs(pyr, np.pi / 2)[0][0, 32, 32]
    across = oriented_cs(pyr, 0.0)[0][0, 32, 32]
    assert at_bar > 0
    assert at_bar > across


def test_cs_oriented_inversion_swaps_polarities():
    rng = np.random.default_rng(8)
    img = rng.random((32, 32))
    a = oriented_cs(pyramid_levels(img, 2), np.pi / 4)
    b = oriented_cs(pyramid_levels(1.0 - img, 2), np.pi / 4)
    for k in range(2):
        assert np.abs(a[k][0] - b[k][1]).max() < 1e-10


def test_cs_pair_alignment_validated():
    # one kernel setting per map of the level
    with pytest.raises(ValueError):
        list(cs_pyramids(
            pyramid_levels(np.zeros((16, 16)), 2), [DoGParams()] * 2, make_center_surround
        ))
    with pytest.raises(ValueError):
        list(cs_pyramids(
            make_carriers(np.zeros((16, 16)), 2), [oriented_gabor(0.0)] * 7, make_gabor
        ))
    with pytest.raises(ValueError):
        replace(PipelineParams().oriented_cs, sigma=0.0)


def test_cs_stack_holds_each_pyramid_with_its_own_kernel():
    carriers = make_carriers(square_image(32, first=10, last=21), 3)
    thetas = [ti * np.pi / 8 for ti in range(8)]
    stacked = list(cs_pyramids(carriers, [oriented_gabor(t) for t in thetas], make_gabor))
    for ti, theta in enumerate(thetas):
        for k, level in enumerate(oriented_cs(per_orientation(carriers)[ti], theta)):
            assert stacked[k].shape == (2, 8, 1) + level.shape[-2:]
            assert np.array_equal(stacked[k][:, ti, 0], level)


# --------------------------------------------------------- normalization

def _competition_maps():
    rng = np.random.default_rng(8)
    maps = {}
    for k in range(3):
        # coarse random levels give plateaus of equal peaks
        maps[f"plateaus{k}"] = np.round(rng.random((23, 31)) * 4) / 4
        maps[f"smooth{k}"] = ndimage.uniform_filter(rng.random((23, 31)), 5)
    single = np.zeros((17, 19))
    single[8, 9] = 0.7
    maps["single_peak"] = single
    maps["no_peak"] = np.zeros((17, 19))
    maps["negative"] = -rng.random((9, 9))
    return maps


COMPETITION_MAPS = _competition_maps()


@pytest.mark.parametrize("name", sorted(COMPETITION_MAPS), ids=lambda name: f"default-{name}")
def test_peak_competition_matches_label_maximum_oracle(name):
    scaled = COMPETITION_MAPS[name]
    assert np.array_equal(_peak_competition(scaled), oracle_peak_competition(scaled))


# ------------------------------------------------------- contrast route

def test_bo_zero_cs_passes_carrier_through():
    rng = np.random.default_rng(5)
    carriers = make_carriers(rng.random((32, 32)), n_scales=3)
    contrast = compute_bo(carriers, zero_cs((32, 32), 3), 1.0, RING)
    full = full_bo(carriers, zero_cs((32, 32), 3), 1.0, RING)
    for k in range(3):
        # light and dark each pass the carrier to both sides: no imbalance
        assert contrast[k].shape == (8,) + carriers[k].shape[-2:]
        assert np.array_equal(contrast[k], np.zeros_like(contrast[k]))
        for ti in range(8):
            for si in range(2):
                assert np.array_equal(full[k][ti, si], 2.0 * carriers[k][ti, 0])


@pytest.mark.parametrize("route", ["isotropic", "oriented", "cue", "cue top 2"])
def test_bo_is_the_side_imbalance_of_the_full_stacks(route):
    # the (8, 2) stacks of the full path, reduced to B[:, 0] - B[:, 1],
    # bit for bit: the gate is the same arithmetic one orientation at a time
    img = square_image(32, first=9, last=20)
    carriers = make_carriers(img, 4)
    rng = np.random.default_rng(21)
    cue = rng.random((8, 2, 32, 32)) * (rng.random((8, 2, 32, 32)) < 0.1)
    evidence, modulated = {
        "isotropic": (lambda: symmetric_cs(pyramid_levels(img, 4)), None),
        "oriented": (lambda: list(cs_pyramids(
            carriers, [oriented_gabor(ti * np.pi / 8) for ti in range(8)], make_gabor
        )), None),
        "cue": (lambda: [lvl[None] for lvl in pyramid_levels(cue, 4)], None),
        "cue top 2": (lambda: [lvl[None] for lvl in pyramid_levels(cue, 4)], 2),
    }[route]
    got = compute_bo(carriers, evidence(), 0.7, RING, modulated)
    want = full_bo(carriers, evidence(), 0.7, RING, modulated)
    for got_k, want_k in zip(got, want, strict=True):
        assert np.array_equal(got_k, side_imbalance(want_k))


def test_bo_inversion_swaps_light_and_dark():
    # inversion swaps the two polarities, which leaves their sum alone
    rng = np.random.default_rng(6)
    img = rng.random((32, 32))
    n = 3
    a = compute_bo(make_carriers(img, n), symmetric_cs(pyramid_levels(img, n)), 1.0, RING)
    b = compute_bo(
        make_carriers(1.0 - img, n), symmetric_cs(pyramid_levels(1.0 - img, n)), 1.0, RING
    )
    for k in range(n):
        assert np.abs(a[k] - b[k]).max() < 1e-10


def test_bo_square_owned_from_inside():
    img = square_image()
    n = 5
    carriers = make_carriers(img, n)
    contrast = compute_bo(carriers, symmetric_cs(pyramid_levels(img, n)), 1.0, RING)
    # top edge of the bright square: theta = 0, inside is downward (side 0)
    assert (contrast[0][0, 20, 24:40] > 0).mean() >= 0.9


def test_bo_per_orientation_cs_accepted():
    img = square_image(32, first=10, last=21)
    n = 2
    carriers = make_carriers(img, n)
    cs = cs_pyramids(carriers, [oriented_gabor(ti * np.pi / 8) for ti in range(8)], make_gabor)
    contrast = compute_bo(carriers, cs, 1.0, RING)
    assert len(contrast) == n
    assert contrast[0].shape == (8, 32, 32)
    assert np.isfinite(contrast[0]).all() and contrast[0].any()


@pytest.mark.parametrize("w_opp", [1.0, 0.7])
def test_bo_contrast_matches_route_oracle(w_opp):
    img = square_image(32, first=9, last=20)
    n = 4
    carriers = make_carriers(img, n)
    # bare (2, r, c), as cs_pyramids gives it; shared (2, 1, 1, r, c);
    # tiled to every orientation (2, 8, 1, r, c)
    bare = symmetric_cs(pyramid_levels(img, n))
    shared = [level[:, None, None] for level in bare]
    tiled = [np.repeat(level, 8, axis=1) for level in shared]
    got_shared = compute_bo(carriers, shared, w_opp, RING)
    got_bare = compute_bo(carriers, bare, w_opp, RING)
    got_tiled = compute_bo(carriers, tiled, w_opp, RING)
    want = oracle_contrast(per_orientation(carriers), [pair_layout(b) for b in bare], w_opp)
    for got, want_k in zip(got_shared, want, strict=True):
        assert want_k.any()
        assert_rel_close(got, side_imbalance(want_k))
    for a, b, c in zip(got_shared, got_bare, got_tiled):
        assert np.array_equal(a, b) and np.array_equal(a, c)

    oriented = list(cs_pyramids(
        carriers, [oriented_gabor(ti * np.pi / 8) for ti in range(8)], make_gabor
    ))
    got = compute_bo(carriers, oriented, w_opp, RING)
    want = oracle_contrast(per_orientation(carriers), [pair_layout(o) for o in oriented], w_opp)
    for got_k, want_k in zip(got, want, strict=True):
        assert_rel_close(got_k, side_imbalance(want_k))


# ------------------------------------------------------ local-cue route

def test_local_cue_zero_stack_passes_carrier():
    carriers = make_carriers(square_image(32, first=10, last=21), 3)
    gated = cue_bo(carriers, np.zeros((8, 2, 32, 32)))
    # modulating no level reads no evidence at all
    passed = compute_bo(carriers, iter(()), 1.0, RING, modulated=0)
    full = full_bo(carriers, iter(()), 1.0, RING, modulated=0)
    for out in (gated, passed):
        for k in range(3):
            # both sides pass the carrier: no imbalance
            assert np.array_equal(out[k], np.zeros((8,) + carriers[k].shape[-2:]))
            for ti in range(8):
                for si in range(2):
                    assert np.array_equal(full[k][ti, si], carriers[k][ti, 0])


def test_local_cue_one_sided_bias():
    img = square_image()
    carriers = make_carriers(img, 4)
    cue = np.zeros((8, 2, 64, 64))
    cue[0, 0, 20, 22:42] = 1.0  # figure below the top edge
    out = cue_bo(carriers, cue)
    assert (out[0][0] >= -1e-12).all()
    assert out[0][0, 20, 32] > 0


def test_local_cue_top_layers_only_passthrough():
    img = square_image()
    n = 4
    carriers = make_carriers(img, n)
    cue = np.zeros((8, 2, 64, 64))
    cue[0, 0, 20, 22:42] = 1.0
    out = cue_bo(carriers, cue, PipelineParams(top_layers_only=2))
    for k in (2, 3):
        # passed through to both sides: no imbalance
        assert np.array_equal(out[k], np.zeros((8,) + carriers[k].shape[-2:]))
    assert out[0][0].any()


@pytest.mark.parametrize(
    "weights, factor",
    [
        ({}, SQRT2),
        ({"w_opp": 0.7, "top_layers_only": 2}, SQRT2),
        ({"w_opp": 0.7}, 2.0),
    ],
)
def test_local_cue_matches_route_oracle(weights, factor):
    # ``weights``: the antagonism weight and layer restriction to set
    params = PipelineParams(**weights)
    rng = np.random.default_rng(19)
    carriers = make_carriers(square_image(32, first=9, last=20), 4, factor)
    cue = rng.random((8, 2, 32, 32)) * (rng.random((8, 2, 32, 32)) < 0.1)
    got = cue_bo(carriers, cue, params, factor)
    want = oracle_local_cue(per_orientation(carriers), cue, params, factor)
    for got_k, want_k in zip(got, want, strict=True):
        assert_rel_close(got_k, side_imbalance(want_k))


# -------------------------------------------------------------- combine

def random_stacks(rng, n_levels=3, dims=((8, 8), (6, 6), (4, 4))):
    """Side-imbalance levels, (8, r, c) each."""
    return [rng.random((8,) + dims[k]) for k in range(n_levels)]


def test_combine_reference_is_light_plus_dark():
    rng = np.random.default_rng(1)
    light, dark = random_stacks(rng), random_stacks(rng)
    contrast = [l + d for l, d in zip(light, dark)]
    combined = combine_bo(contrast, ModelWeights())
    for k in range(3):
        assert np.array_equal(combined[k], light[k] + dark[k])


def test_combine_blend_matches_scalar_arithmetic():
    rng = np.random.default_rng(2)
    light, dark, sa, tj = (random_stacks(rng) for _ in range(4))
    w = ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80)
    contrast = [l + d for l, d in zip(light, dark)]
    combined = combine_bo(contrast, w, bo_sa=sa, bo_tj=tj)
    for k in range(3):
        expect = 0.05 * (light[k] + dark[k]) + 0.15 * sa[k] + 0.80 * tj[k]
        assert np.abs(combined[k] - expect).max() < 1e-15


def test_combine_requires_routes_it_weights():
    rng = np.random.default_rng(3)
    contrast = random_stacks(rng)
    w = ModelWeights(alpha_ref=0.35, alpha_sa=0.65)
    with pytest.raises(ValueError):
        combine_bo(contrast, w)


def test_combine_ignores_unweighted_routes_bit_identically():
    rng = np.random.default_rng(4)
    contrast, sa = random_stacks(rng), random_stacks(rng)
    with_sa = combine_bo(contrast, ModelWeights(), bo_sa=sa)
    without = combine_bo(contrast, ModelWeights())
    for k in range(3):
        assert np.array_equal(with_sa[k], without[k])


# -------------------------------------------------------------- winning

def test_winning_single_pair_frozen():
    stack = np.zeros((8, 2, 3, 3))
    stack[0, 0, 1, 1] = 3.0
    stack[0, 1, 1, 1] = 1.0
    (out,) = winning_bo([side_imbalance(stack)])
    assert out[0, 0, 1, 1] == 2.0
    out[0, 0, 1, 1] = 0.0
    assert np.abs(out).max() == 0.0


def test_winning_equal_pair_is_silent():
    stack = np.zeros((8, 2, 2, 2))
    stack[3, 0] = 1.5
    stack[3, 1] = 1.5
    (out,) = winning_bo([side_imbalance(stack)])
    assert np.abs(out).max() == 0.0


def test_winning_tie_breaks_to_lowest_orientation():
    stack = np.zeros((8, 2, 1, 1))
    stack[2, 1, 0, 0] = 2.0  # |delta| = 2 at orientation 2
    stack[5, 0, 0, 0] = 2.0  # |delta| = 2 at orientation 5
    (out,) = winning_bo([side_imbalance(stack)])
    assert out[2, 1, 0, 0] == 2.0
    assert out[5, 0, 0, 0] == 0.0


def test_winning_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        stack = rng.random((8, 2, 5, 5))
        (got,) = winning_bo([side_imbalance(stack)])
        assert np.abs(got - oracle_winning(stack)).max() < 1e-12


def test_winning_scale_invariance():
    rng = np.random.default_rng(12)
    stack = rng.random((8, 2, 6, 6))
    (base,) = winning_bo([side_imbalance(stack)])
    (scaled,) = winning_bo([side_imbalance(3.7 * stack)])
    assert np.allclose(scaled, 3.7 * base, rtol=1e-12, atol=0)


def test_winning_at_most_one_active_cell():
    rng = np.random.default_rng(13)
    (out,) = winning_bo([side_imbalance(rng.random((8, 2, 7, 7)))])
    active = (out > 0).reshape(16, 7, 7).sum(axis=0)
    assert active.max() <= 1


# ---------------------------------------------------------- final maps

def prepared_levels(fixed, bo_contrast=None, bo_sa=None, params=PipelineParams()):
    """A :class:`PreparedImage` built from a native ``fixed`` stack and
    side-imbalance level lists."""
    return PreparedImage(
        params=params,
        have_labels=False,
        fixed=fixed,
        bo_contrast=bo_contrast,
        bo_sa=bo_sa,
        bo_tj=None,
    )


def test_final_single_native_level_identity():
    rng = np.random.default_rng(15)
    stack = rng.random((8, 2, 9, 9))
    # no orientation route: the final maps are the fixed features
    out = finalize_components(prepared_levels(stack), ModelWeights()).final
    assert np.array_equal(out, stack)
    assert out is not stack
    # an orientation route with no imbalance adds nothing
    zeros = [np.zeros((8, 9, 9))]
    out = finalize_components(prepared_levels(stack, zeros), ModelWeights()).final
    assert np.array_equal(out, stack)


def test_final_matches_sequential_oracle():
    rng = np.random.default_rng(17)
    dims = [(16, 16)]
    for _ in range(4):
        r, c = dims[-1]
        dims.append((int(np.ceil(r / SQRT2)), int(np.ceil(c / SQRT2))))
    fixed, contrast, sa = ([rng.random((8, 2) + d) for d in dims] for _ in range(3))
    w = ModelWeights(alpha_ref=0.4, alpha_sa=0.6)
    params = PipelineParams(feature_color=0.3, feature_intensity=1.0, feature_orientation=2.0)
    native = pool_resampled(fixed, 16, 16, (1.0,) * len(fixed))
    prepared = prepared_levels(
        native, [side_imbalance(c) for c in contrast], [side_imbalance(s) for s in sa], params
    )
    got = finalize_components(prepared, w).final
    orientation = [oracle_winning(0.4 * c + 0.6 * s) for c, s in zip(contrast, sa)]
    assert np.abs(got - oracle_final_sets([fixed, orientation], (1.0, 2.0))).max() < 1e-9


@pytest.mark.parametrize("factor", [SQRT2, 2.0])
def test_scale_contexts_matches_docstring_formula(factor):
    rng = np.random.default_rng(18)
    dims = [(21, 30)]
    for _ in range(4):
        r, c = dims[-1]
        dims.append((int(np.ceil(r / factor)), int(np.ceil(c / factor))))
    responses = [rng.standard_normal((8, 2) + d) for d in dims]
    want = oracle_scale_contexts(responses)
    got = scale_contexts(list(responses))
    for got_k, want_k in zip(got, want, strict=True):
        assert_rel_close(got_k, want_k)
    # in place: each response of the list passed is replaced by its context
    pooled = list(responses)
    assert scale_contexts(pooled) is pooled
    assert all(np.array_equal(a, b) for a, b in zip(pooled, got))


def test_ring_bank_is_cached_read_only_von_mises():
    bank = _ring_bank((40, 40), RING)
    assert _ring_bank((60, 33), RING) is bank
    assert not bank.flags.writeable
    for ti in range(8):
        for si in range(2):
            want = make_von_mises(VonMisesParams(bo_direction(ti, si)))
            assert np.array_equal(bank[ti, si], want)
    # clamped at a coarse level, still the von Mises kernel of that size
    assert _ring_bank((6, 9), RING).shape == (8, 2, 5, 5)


@pytest.mark.parametrize("stimulus", [overlapping_squares, annulus])
def test_final_battery_matches_sequential_oracle(stimulus):
    stim = stimulus()
    prepared = prepare_components(stim.image, need_sa=True)
    full = full_prepared(stim.image, PipelineParams())
    for weights in (ModelWeights(), ModelWeights(alpha_ref=0.5, alpha_sa=0.5)):
        # the annulus's mirror orientations tie to about 4e-16, and the
        # blend's rounding picks the winner: resolve ties as the code did
        levels, _ = final_levels(prepared, weights)
        sets = [oracle_levels(full, weights, chosen=levels)]
        got = finalize_components(prepared, weights).final
        assert got.any()
        assert_rel_close(got, oracle_final_sets(sets, (1.0,)))
