from dataclasses import fields, replace

import numpy as np
import pytest

from fgo import ownership
from fgo.channels import compute_orientation_channels
from fgo.config import PRESETS
from fgo.evaluation import compute_fgca, decisions_for, load_ground_truth
from fgo.grid import SQRT2, correlate_stack, pool_resampled, pyramid_levels
from fgo.filters import (
    DoGParams,
    GaborParams,
    clamp_kernel_size,
    make_center_surround,
    make_gabor,
    make_von_mises,
    ring_size,
)
from fgo.ownership import (
    ModelWeights,
    _ring_bank,
    bo_direction,
    combine_bo,
    compute_bo,
    cs_pyramids,
    normalize_pairs,
    scale_contexts,
    winning_bo,
)
from fgo.pipeline import (
    PipelineParams,
    PreparedImage,
    finalize_components,
    prepare_components,
)
from fgo.stimuli import annulus, overlapping_squares
from helpers import (
    count_transforms,
    full_bo,
    full_prepared,
    joint_rescale,
    oracle_levels,
    scoring_battery,
)

RING = PipelineParams().ring_radius


# ------------------------------------------------------------- oracles

def oracle_winning(stack):
    """Per-pixel scan over all orientations: the first whose |imbalance|
    is within 1e-12 relative of the largest wins."""
    out = np.zeros_like(stack)
    n_t, _, rows, cols = stack.shape
    for r in range(rows):
        for c in range(cols):
            sizes = [abs(stack[t, 0, r, c] - stack[t, 1, r, c]) for t in range(n_t)]
            best_t = next(t for t in range(n_t) if sizes[t] >= (1 - 1e-12) * max(sizes))
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
                out[ti, si] += pool_resampled([level], rows, cols)
    return out


def oracle_scale_contexts(responses):
    """The scale_contexts docstring formula, evaluated map by map and
    coarsest level first: each level's weighted response plus the next
    coarser context brought to it by one single-level resample."""
    out = [None] * len(responses)
    for k in range(len(responses) - 1, -1, -1):
        rows, cols = responses[k].shape[-2:]
        ctx = np.empty_like(responses[k])
        for ti in range(8):
            for si in range(2):
                ctx[ti, si] = 2.0 ** -(k + 1) * responses[k][ti, si]
                if k + 1 < len(responses):
                    ctx[ti, si] += pool_resampled([out[k + 1][ti, si]], rows, cols)
        out[k] = ctx
    return out


def one_hop_contexts(responses):
    """The one-hop pool the chained pool replaced, kept as the reference
    of its tolerance: ``ctx[k] = sum_{j >= k} 2^{-(j+1)} *
    resample(responses[j] -> dims_k)``, every term brought to level k in
    one hop."""
    scaled = [2.0 ** -(j + 1) * r for j, r in enumerate(responses)]
    return [pool_resampled(scaled[k:], *r.shape[-2:]) for k, r in enumerate(responses)]


def oracle_ring_responses(evidence, shape):
    """``evidence(t, s)`` correlated with a freshly built ring kernel."""
    size = clamp_kernel_size(ring_size(RING), shape)
    out = np.empty((8, 2) + shape)
    for t in range(8):
        for s in range(2):
            kernel = make_von_mises(bo_direction(t, s), RING, size)
            out[t, s] = correlate_stack(evidence(t, s), kernel)
    return out


def oracle_gate(c, excite, inhibit, s, w_opp):
    return np.maximum(0.0, c * (1.0 + excite[s] - w_opp * inhibit[1 - s]))


def oracle_contrast(carriers, cs_levels, w_opp):
    """Normalize each orientation's light/dark pair, project the light
    and the dark map toward both sides, pool, gate both ways and add."""
    resp_light, resp_dark = [], []
    for level in cs_levels:
        shape = level.shape[-2:]
        tiled = np.broadcast_to(level, (8, 2) + shape)
        pairs = [joint_rescale(tiled[t, 0], tiled[t, 1]) for t in range(8)]
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
        pairs = [joint_rescale(pyramids[t][0][k], pyramids[t][1][k]) for t in range(8)]
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
    """The carrier pyramid of (8, r, c) levels, as the pipeline builds it."""
    gabor = GaborParams()
    orientation = compute_orientation_channels(image, gabor, gabor, gabor.size)
    return list(pyramid_levels(orientation, n_scales, factor))


def per_orientation(carriers):
    """The carriers as eight pyramids of maps, ``[t][k]``, for the oracles."""
    return [[level[t] for level in carriers] for t in range(8)]


def pair_layout(level):
    """A (2, T, 1, r, c) contrast evidence level as (T, 2, r, c), polarity
    second, the layout the oracles read."""
    return np.moveaxis(level, 0, -3).reshape((-1, 2) + level.shape[-2:])


def zero_cs(shape, n_scales=4, factor=SQRT2):
    levels = pyramid_levels(np.zeros(shape), n_scales, factor)
    return [np.zeros((2, 1, 1) + level.shape) for level in levels]


def dog_bank(size):
    return make_center_surround(DoGParams(), size)


def symmetric_cs(pyr):
    return list(cs_pyramids(pyr, DoGParams().size, dog_bank))


def cue_bo(carriers, cue, params=PipelineParams(), factor=SQRT2):
    """The local-cue route: the native (8, 2, r, c) cue pyramided like the
    carriers (built with ``factor``), one polarity with a map per side."""
    levels = (level[None] for level in pyramid_levels(cue, len(carriers), factor))
    return compute_bo(carriers, levels, params.w_opp, RING, params.top_layers_only)


OCS = PipelineParams().oriented_cs


def carrier_cs(carriers, thetas=tuple(ti * np.pi / 8 for ti in range(8))):
    """The oriented center-surround evidence of the carriers: one even
    Gabor at each of ``thetas`` per map of a level."""
    def bank(size):
        return np.array([make_gabor(OCS, theta, size) for theta in thetas])

    return list(cs_pyramids(carriers, OCS.size, bank))


def oriented_cs(pyr, theta):
    return list(cs_pyramids(pyr, OCS.size, lambda size: make_gabor(OCS, theta, size)))


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
        assert level.shape == (2, 1, 1) + raw.shape
        assert np.abs(level).max() < 1e-12


def test_cs_symmetric_disk_geometry():
    img = np.zeros((64, 64))
    rr, cc = np.mgrid[0:64, 0:64]
    radius = np.hypot(rr - 32.0, cc - 32.0)
    img[radius <= 15] = 1.0
    light, dark = symmetric_cs(pyramid_levels(img, 1))[0][:, 0, 0]
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
    at_bar = oriented_cs(pyr, np.pi / 2)[0][0, 0, 0, 32, 32]
    across = oriented_cs(pyr, 0.0)[0][0, 0, 0, 32, 32]
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
    # one kernel per map of the level
    with pytest.raises(ValueError):
        list(cs_pyramids(
            pyramid_levels(np.zeros((16, 16)), 2), DoGParams().size,
            lambda size: np.array([dog_bank(size)] * 2),
        ))
    with pytest.raises(ValueError):
        carrier_cs(make_carriers(np.zeros((16, 16)), 2), [0.0] * 7)
    with pytest.raises(ValueError):
        replace(PipelineParams().oriented_cs, sigma=0.0)


def test_cs_stack_holds_each_pyramid_with_its_own_kernel():
    carriers = make_carriers(square_image(32, first=10, last=21), 3)
    thetas = [ti * np.pi / 8 for ti in range(8)]
    stacked = carrier_cs(carriers, thetas)
    for ti, theta in enumerate(thetas):
        for k, level in enumerate(oriented_cs(per_orientation(carriers)[ti], theta)):
            assert stacked[k].shape == (2, 8, 1) + level.shape[-2:]
            assert np.array_equal(stacked[k][:, ti], level[:, 0])


# --------------------------------------------------------- normalization

def gated_pairs(lead):
    """The gated pairs of a (P, T, S, r, c) level with leading axes
    ``lead``, in orientation order: the indices of cells (0, t, 0) and
    (P-1, t, S-1). With P = 2 the pair of p = 1 is the same one."""
    n_p, n_t, n_s = lead
    return [((0, t, 0), (n_p - 1, t, n_s - 1)) for t in range(n_t)]


@pytest.mark.parametrize("seed", range(4))
def test_normalize_pairs_is_the_joint_rescale(seed):
    rng = np.random.default_rng(seed)
    shape = (17, 23)
    a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
    b = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3) + rng.normal()
    shift = 10.0 * (np.abs(a).max() + np.abs(b).max())
    for lead in [(2, 1, 1), (2, 8, 1), (1, 8, 2)]:
        # pair t is (a, b) scaled by 2^t, exactly: a rescale that mixes
        # pairs misses [0, 1], one that mixes a pair's cells its ratio
        level, shifted = np.empty(lead + shape), np.empty(lead + shape)
        for t, cells in enumerate(gated_pairs(lead)):
            for cell, m in zip(cells, (a, b)):
                level[cell] = 2.0**t * m
                shifted[cell] = 2.0**t * (m + shift)
        normed = normalize_pairs(level)
        assert normed.shape == level.shape
        for i, j in gated_pairs(lead):
            na, nb = normed[i], normed[j]
            # the pair spans [0, 1] jointly: the low end exactly, the top to one rounding
            assert min(na.min(), nb.min()) == 0.0
            assert abs(max(na.max(), nb.max()) - 1.0) <= 2.0**-52
            # one gain for both maps keeps the ratio of their ranges
            assert np.ptp(na) / np.ptp(nb) == pytest.approx(np.ptp(a) / np.ptp(b), rel=1e-12)
            for got, want in zip((na, nb), joint_rescale(level[i], level[j])):
                assert np.abs(got - want).max() <= 1e-15
        # a constant added to both maps of a pair moves nothing but rounding
        assert np.abs(normalize_pairs(shifted) - normed).max() <= 1e-12
        # a pair that is flat overall comes back as zeros
        flat = np.full(level.shape, a[0, 0])
        assert np.array_equal(normalize_pairs(flat), np.zeros(level.shape))


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
                assert np.array_equal(full[k][ti, si], 2.0 * carriers[k][ti])


@pytest.mark.parametrize("route", ["isotropic", "oriented", "cue", "cue top 2"])
def test_bo_is_the_side_imbalance_of_the_full_stacks(route):
    # the (8, 2) stacks of the full path in extended precision, every
    # cell gated on its own, reduced to B[:, 0] - B[:, 1]
    img = square_image(32, first=9, last=20)
    carriers = make_carriers(img, 4)
    rng = np.random.default_rng(21)
    cue = rng.random((8, 2, 32, 32)) * (rng.random((8, 2, 32, 32)) < 0.1)
    evidence, modulated = {
        "isotropic": (lambda: symmetric_cs(pyramid_levels(img, 4)), None),
        "oriented": (lambda: carrier_cs(carriers), None),
        "cue": (lambda: [lvl[None] for lvl in pyramid_levels(cue, 4)], None),
        "cue top 2": (lambda: [lvl[None] for lvl in pyramid_levels(cue, 4)], 2),
    }[route]
    got = compute_bo(carriers, evidence(), 0.7, RING, modulated)
    want = full_bo(carriers, evidence(), 0.7, RING, modulated)
    for got_k, want_k in zip(got, want, strict=True):
        assert_rel_close(got_k, side_imbalance(want_k))


@pytest.mark.parametrize("w_opp, inverses", [(1.0, (16, 16, 8)), (0.7, (32, 32, 16))])
def test_bo_projects_each_gated_pair_once(monkeypatch, w_opp, inverses):
    """The ring projection of one level: each distinct evidence map and
    each of the 16 ring kernels is transformed once, and each gated
    pair takes one inverse for its difference, plus one for its sum
    when ``w_opp`` is not 1."""
    carriers = make_carriers(square_image(32, first=9, last=20), 1)
    rng = np.random.default_rng(22)
    layouts = [(2, 1, 1), (2, 8, 1), (1, 8, 2)]
    calls = count_transforms(monkeypatch)
    for layout, forward, inverse in zip(layouts, (2 + 16, 16 + 16, 16 + 16), inverses):
        calls.update(rfftn=0, irfftn=0)
        compute_bo(carriers, [rng.random(layout + (32, 32))], w_opp, RING)
        assert calls == {"rfftn": forward, "irfftn": inverse}, layout


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
    contrast = compute_bo(carriers, carrier_cs(carriers), 1.0, RING)
    assert len(contrast) == n
    assert contrast[0].shape == (8, 32, 32)
    assert np.isfinite(contrast[0]).all() and contrast[0].any()


# above 1 the gate's h goes negative, so max(0, h +- g) is not the clip form
@pytest.mark.parametrize("w_opp", [1.0, 0.7, 3.0])
def test_bo_contrast_matches_route_oracle(w_opp):
    img = square_image(32, first=9, last=20)
    n = 4
    carriers = make_carriers(img, n)
    # shared (2, 1, 1, r, c), as cs_pyramids gives it; tiled to every
    # orientation (2, 8, 1, r, c)
    shared = symmetric_cs(pyramid_levels(img, n))
    tiled = [np.repeat(level, 8, axis=1) for level in shared]
    got_shared = compute_bo(carriers, shared, w_opp, RING)
    got_tiled = compute_bo(carriers, tiled, w_opp, RING)
    want = oracle_contrast(per_orientation(carriers), [pair_layout(b) for b in shared], w_opp)
    for got, want_k in zip(got_shared, want, strict=True):
        assert want_k.any()
        assert_rel_close(got, side_imbalance(want_k))
    for a, c in zip(got_shared, got_tiled):
        assert np.array_equal(a, c)

    oriented = carrier_cs(carriers)
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
                    assert np.array_equal(full[k][ti, si], carriers[k][ti])


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
        ({"w_opp": 3.0}, SQRT2),
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
    combined = combine_bo((contrast, None, None), ModelWeights())
    for k in range(3):
        assert np.array_equal(combined[k], light[k] + dark[k])


def test_combine_blend_matches_scalar_arithmetic():
    rng = np.random.default_rng(2)
    light, dark, sa, tj = (random_stacks(rng) for _ in range(4))
    w = ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80)
    contrast = [l + d for l, d in zip(light, dark)]
    combined = combine_bo((contrast, sa, tj), w)
    for k in range(3):
        expect = 0.05 * (light[k] + dark[k]) + 0.15 * sa[k] + 0.80 * tj[k]
        assert np.abs(combined[k] - expect).max() < 1e-15


def test_combine_requires_routes_it_weights():
    rng = np.random.default_rng(3)
    contrast = random_stacks(rng)
    w = ModelWeights(alpha_ref=0.35, alpha_sa=0.65)
    with pytest.raises(ValueError):
        combine_bo((contrast, None, None), w)


def test_combine_ignores_unweighted_routes_bit_identically():
    rng = np.random.default_rng(4)
    contrast, sa = random_stacks(rng), random_stacks(rng)
    with_sa = combine_bo((contrast, sa, None), ModelWeights())
    without = combine_bo((contrast, None, None), ModelWeights())
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


@pytest.mark.parametrize("gap, winner", [(1e-14, 2), (-1e-14, 2), (1e-11, 5)])
def test_winning_ties_within_tolerance_go_to_lowest_orientation(gap, winner):
    # orientation 5 larger by ``gap`` relative: a tie within 1e-12
    delta = np.zeros((8, 1, 1))
    delta[2] = -2.0
    delta[5] = 2.0 * (1 + gap)
    (out,) = winning_bo([delta])
    assert np.flatnonzero(out.sum(axis=(1, 2, 3))).tolist() == [winner]
    assert out[winner].sum() == abs(delta[winner, 0, 0])


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

def prepared_levels(fixed, contrast=None, sa=None, params=PipelineParams()):
    """A :class:`PreparedImage` built from a native ``fixed`` stack and
    side-imbalance level lists; no orientation route without
    ``contrast``."""
    return PreparedImage(
        params=params,
        have_labels=False,
        fixed=fixed,
        routes=None if contrast is None else (contrast, sa, None),
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
    native = pool_resampled(fixed, 16, 16)
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


@pytest.mark.parametrize("n_levels", [1, 2, 10])
def test_scale_contexts_resamples_each_coarser_level_once(monkeypatch, n_levels):
    """n levels take n - 1 single-level resamples of each map: every
    level but the finest is resampled once, to the next finer level."""
    rng = np.random.default_rng(19)
    dims = [(37, 29)]
    for _ in range(n_levels - 1):
        r, c = dims[-1]
        dims.append((int(np.ceil(r / SQRT2)), int(np.ceil(c / SQRT2))))
    responses = [rng.standard_normal((2, 8, 2) + d) for d in dims]
    calls = []

    def counted(levels, rows, cols):
        calls.append(([level.shape for level in levels], (rows, cols)))
        return pool_resampled(levels, rows, cols)

    monkeypatch.setattr(ownership, "pool_resampled", counted)
    scale_contexts(responses)
    maps = 2 * 8 * 2
    want = [([coarse], fine) for fine, coarse in zip(dims, dims[1:]) for _ in range(maps)]
    assert sorted(calls) == sorted(want)
    assert len(calls) == (n_levels - 1) * maps


@pytest.fixture(scope="module")
def battery_under_both_pools():
    """The scoring battery's truths, and its images prepared with every
    route under the chained pool and under the one-hop pool."""
    battery = scoring_battery()
    prepared = []
    for pool in (scale_contexts, one_hop_contexts):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ownership, "scale_contexts", pool)
            prepared.append([
                prepare_components(image, PipelineParams(), contours, segments, True, True)
                for _, image, _, contours, segments in battery
            ])
    return [load_ground_truth(signed) for _, _, signed, _, _ in battery], *prepared


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_chained_pool_within_tolerance_of_one_hop(battery_under_both_pools, preset):
    """The chained pool is not the one-hop sum it replaced, since chained
    bilinear steps are not one bilinear step. On the scoring battery with
    every route, at most 0.5 % of the boundary decisions move and the
    pooled FGCA is at most 0.002 lower."""
    gts, chained, one_hop = battery_under_both_pools
    weights = ModelWeights(*PRESETS[preset])
    records = sum(len(gt) for gt in gts)
    moved, correct, changed = 0, np.zeros(2), False
    for gt, new, old in zip(gts, chained, one_hop, strict=True):
        finals = [finalize_components(p, weights).final for p in (new, old)]
        changed |= not np.array_equal(*finals)
        (dirs, ties), (old_dirs, old_ties) = (decisions_for(f, gt) for f in finals)
        moved += int(((dirs != old_dirs).any(axis=1) | (ties != old_ties)).sum())
        correct += [compute_fgca(f, gt).correct for f in finals]
    assert changed
    assert moved <= 0.005 * records, (moved, records)
    assert correct[0] / records >= correct[1] / records - 0.002, correct / records


def test_ring_bank_is_cached_read_only_von_mises():
    def fitted(shape):
        return _ring_bank(clamp_kernel_size(ring_size(RING), shape), RING)

    bank = fitted((40, 40))
    assert fitted((60, 33)) is bank
    assert not bank.flags.writeable
    for ti in range(8):
        for si in range(2):
            want = make_von_mises(bo_direction(ti, si), RING, ring_size(RING))
            assert np.array_equal(bank[ti, si], want)
    # clamped at a coarse level, still the von Mises kernel of that size
    assert fitted((6, 9)).shape == (8, 2, 5, 5)


@pytest.mark.parametrize("stimulus", [overlapping_squares, annulus])
def test_final_battery_matches_sequential_oracle(stimulus):
    stim = stimulus()
    prepared = prepare_components(stim.image, need_sa=True)
    full = full_prepared(stim.image, PipelineParams())
    for weights in (ModelWeights(), ModelWeights(alpha_ref=0.5, alpha_sa=0.5)):
        # the annulus's mirror orientations tie to about 4e-16: both
        # sides decide them by the tie rule, not by rounding
        sets = [oracle_levels(full, weights)]
        got = finalize_components(prepared, weights).final
        assert got.any()
        assert_rel_close(got, oracle_final_sets(sets, (1.0,)))
