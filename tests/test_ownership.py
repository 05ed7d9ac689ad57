import numpy as np
import pytest

from fgo.channels import compute_orientation_channels
from fgo.grid import SQRT2, Pyramid, build_pyramid, resample
from fgo.filters import VonMisesParams, make_von_mises
from fgo.ownership import (
    CSPyramidPair,
    ContextParams,
    ModelWeights,
    OrientedCSParams,
    _ring_bank,
    bo_direction,
    combine_bo,
    compute_bo_light_dark,
    compute_bo_local_cue,
    cs_pyramids_oriented,
    cs_pyramids_symmetric,
    final_bo_maps,
    scale_contexts,
    sum_bo_sets,
    winning_bo,
)
from fgo.pipeline import finalize_components, prepare_components
from fgo.stimuli import annulus, overlapping_squares


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


def oracle_final(sets, feature_weights):
    """Sequential resample-and-add, scalar weights applied per level."""
    rows, cols = sets[0][0].shape[-2:]
    out = np.zeros((8, 2, rows, cols))
    for ti in range(8):
        for si in range(2):
            for k in range(len(sets[0])):
                level = sum(w * s[k][ti, si] for w, s in zip(feature_weights, sets))
                out[ti, si] += resample(level, rows, cols)
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
                    ctx[ti, si] += 2.0 ** -(j + 1) * resample(responses[j][ti, si], rows, cols)
        out.append(ctx)
    return out


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


# ------------------------------------------------------------ fixtures

def square_image(size=64, lo=0.0, hi=1.0, first=20, last=43):
    img = np.full((size, size), lo)
    img[first : last + 1, first : last + 1] = hi
    return img


def make_carriers(image, n_scales=4, factor=SQRT2):
    return [build_pyramid(m, n_scales, factor) for m in compute_orientation_channels(image)]


def zero_cs(shape, n_scales=4, factor=SQRT2):
    pyr = build_pyramid(np.zeros(shape), n_scales, factor)
    return CSPyramidPair(light=pyr, dark=pyr)


# --------------------------------------------------------- ModelWeights

def test_weights_simplex_enforced():
    ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80)
    with pytest.raises(ValueError):
        ModelWeights(alpha_ref=0.5, alpha_sa=0.5, alpha_tj=0.5)
    with pytest.raises(ValueError):
        ModelWeights(alpha_ref=1.5, alpha_sa=-0.5, alpha_tj=0.0)


def test_weights_other_fields_validated():
    with pytest.raises(ValueError):
        ModelWeights(w_opp=-0.1)
    with pytest.raises(ValueError):
        ModelWeights(feature_weights=(1.0, 1.0))
    with pytest.raises(ValueError):
        ModelWeights(top_layers_only=0)


def test_weights_contrast_only_keeps_the_rest():
    w = ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80,
                     w_opp=0.7, top_layers_only=2)
    ref = w.contrast_only()
    assert (ref.alpha_ref, ref.alpha_sa, ref.alpha_tj) == (1.0, 0.0, 0.0)
    assert ref.w_opp == 0.7 and ref.top_layers_only == 2


# ------------------------------------------------------- center-surround

def test_cs_symmetric_constant_silent():
    pyr = build_pyramid(np.full((40, 40), 0.7), 4)
    pair = cs_pyramids_symmetric(pyr)
    for light, dark in zip(pair.light, pair.dark):
        assert np.abs(light).max() < 1e-12
        assert np.abs(dark).max() < 1e-12


def test_cs_symmetric_disk_geometry():
    img = np.zeros((64, 64))
    rr, cc = np.mgrid[0:64, 0:64]
    radius = np.hypot(rr - 32.0, cc - 32.0)
    img[radius <= 15] = 1.0
    pair = cs_pyramids_symmetric(build_pyramid(img, 1))
    light, dark = pair.light[0], pair.dark[0]
    lr, lc = np.unravel_index(light.argmax(), light.shape)
    assert radius[lr, lc] < 15  # light peaks inside the disk
    dr, dc = np.unravel_index(dark.argmax(), dark.shape)
    assert 15 <= radius[dr, dc] <= 23  # dark peaks just outside the rim
    # deep inside, the zero-sum kernel sees a flat patch: both silent
    assert light[32, 32] == pytest.approx(0.0, abs=1e-12)
    assert light[32, 32] >= dark[32, 32]
    assert light[32, 44] > dark[32, 44] > -1e-15  # just inside the rim


def test_cs_symmetric_inversion_swaps_polarities():
    rng = np.random.default_rng(7)
    img = rng.random((32, 32))
    a = cs_pyramids_symmetric(build_pyramid(img, 3))
    b = cs_pyramids_symmetric(build_pyramid(1.0 - img, 3))
    for k in range(3):
        assert np.abs(a.light[k] - b.dark[k]).max() < 1e-10
        assert np.abs(a.dark[k] - b.light[k]).max() < 1e-10


def test_cs_oriented_constant_silent():
    pyr = build_pyramid(np.full((40, 40), 0.3), 3)
    pair = cs_pyramids_oriented(pyr, 0.0)
    for light in pair.light:
        assert np.abs(light).max() < 1e-12


def test_cs_oriented_prefers_its_own_orientation():
    img = np.zeros((64, 64))
    img[:, 30:35] = 1.0  # vertical bright bar
    pyr = build_pyramid(img, 1)
    at_bar = cs_pyramids_oriented(pyr, np.pi / 2).light[0][32, 32]
    across = cs_pyramids_oriented(pyr, 0.0).light[0][32, 32]
    assert at_bar > 0
    assert at_bar > across


def test_cs_oriented_inversion_swaps_polarities():
    rng = np.random.default_rng(8)
    img = rng.random((32, 32))
    a = cs_pyramids_oriented(build_pyramid(img, 2), np.pi / 4)
    b = cs_pyramids_oriented(build_pyramid(1.0 - img, 2), np.pi / 4)
    for k in range(2):
        assert np.abs(a.light[k] - b.dark[k]).max() < 1e-10


def test_cs_pair_alignment_validated():
    with pytest.raises(ValueError):
        CSPyramidPair(
            light=build_pyramid(np.zeros((16, 16)), 2),
            dark=build_pyramid(np.zeros((16, 16)), 3),
        )
    with pytest.raises(ValueError):
        OrientedCSParams(sigma1=0.0)


# ------------------------------------------------------- contrast route

def test_bo_zero_cs_passes_carrier_through():
    rng = np.random.default_rng(5)
    carriers = make_carriers(rng.random((32, 32)), n_scales=3)
    bo_light, bo_dark = compute_bo_light_dark(carriers, zero_cs((32, 32), 3))
    for k in range(3):
        for ti in range(8):
            for si in range(2):
                assert np.array_equal(bo_light[k][ti, si], carriers[ti][k])
                assert np.array_equal(bo_dark[k][ti, si], carriers[ti][k])


def test_bo_inversion_swaps_light_and_dark():
    rng = np.random.default_rng(6)
    img = rng.random((32, 32))
    n = 3
    a_l, a_d = compute_bo_light_dark(
        make_carriers(img, n), cs_pyramids_symmetric(build_pyramid(img, n))
    )
    b_l, b_d = compute_bo_light_dark(
        make_carriers(1.0 - img, n),
        cs_pyramids_symmetric(build_pyramid(1.0 - img, n)),
    )
    for k in range(n):
        assert np.abs(a_l[k] - b_d[k]).max() < 1e-10
        assert np.abs(a_d[k] - b_l[k]).max() < 1e-10


def test_bo_square_owned_from_inside():
    img = square_image()
    n = 5
    bo_light, _ = compute_bo_light_dark(
        make_carriers(img, n), cs_pyramids_symmetric(build_pyramid(img, n))
    )
    # top edge of the bright square: theta = 0, inside is downward (side 0)
    into = bo_light[0][0, 0, 20, 24:40]
    away = bo_light[0][0, 1, 20, 24:40]
    assert (into > away).mean() >= 0.9
    for k in range(n):
        assert bo_light[0][k].min() >= 0.0


def test_bo_cs_shape_and_count_validated():
    carriers = make_carriers(np.random.default_rng(0).random((32, 32)), 3)
    with pytest.raises(ValueError):
        compute_bo_light_dark(carriers, zero_cs((16, 16), 3))
    with pytest.raises(ValueError):
        compute_bo_light_dark(carriers, [zero_cs((32, 32), 3)] * 5)
    with pytest.raises(ValueError):
        compute_bo_light_dark(carriers[:4], zero_cs((32, 32), 3))


def test_bo_per_orientation_cs_accepted():
    img = square_image(32, first=10, last=21)
    n = 2
    carriers = make_carriers(img, n)
    pairs = [cs_pyramids_oriented(carriers[ti], ti * np.pi / 8) for ti in range(8)]
    bo_light, bo_dark = compute_bo_light_dark(carriers, pairs)
    assert len(bo_light) == n
    assert bo_light[0].shape == (8, 2, 32, 32)
    assert bo_light[0].min() >= 0.0 and bo_dark[0].min() >= 0.0


# ------------------------------------------------------ local-cue route

def test_local_cue_zero_stack_passes_carrier():
    carriers = make_carriers(square_image(32, first=10, last=21), 3)
    out = compute_bo_local_cue(carriers, np.zeros((8, 2, 32, 32)))
    for k in range(3):
        for ti in range(8):
            for si in range(2):
                assert np.array_equal(out[k][ti, si], carriers[ti][k])


def test_local_cue_one_sided_bias():
    img = square_image()
    carriers = make_carriers(img, 4)
    cue = np.zeros((8, 2, 64, 64))
    cue[0, 0, 20, 22:42] = 1.0  # figure below the top edge
    out = compute_bo_local_cue(carriers, cue)
    assert (out[0][0, 0] >= out[0][0, 1] - 1e-12).all()
    assert out[0][0, 0, 20, 32] > out[0][0, 1, 20, 32]


def test_local_cue_top_layers_only_passthrough():
    img = square_image()
    n = 4
    carriers = make_carriers(img, n)
    cue = np.zeros((8, 2, 64, 64))
    cue[0, 0, 20, 22:42] = 1.0
    out = compute_bo_local_cue(
        carriers, cue, ModelWeights(top_layers_only=2)
    )
    for k in (2, 3):
        for ti in range(8):
            for si in range(2):
                assert np.array_equal(out[k][ti, si], carriers[ti][k])
    assert not np.array_equal(out[0][0, 0], carriers[0][0])


def test_local_cue_shape_validated():
    carriers = make_carriers(np.zeros((32, 32)) + 0.5, 2)
    with pytest.raises(ValueError):
        compute_bo_local_cue(carriers, np.zeros((8, 2, 16, 16)))
    with pytest.raises(ValueError):
        compute_bo_local_cue(carriers, np.zeros((4, 2, 32, 32)))


# -------------------------------------------------------------- combine

def random_stacks(rng, n_levels=3, dims=((8, 8), (6, 6), (4, 4))):
    return [rng.random((8, 2) + dims[k]) for k in range(n_levels)]


def test_combine_reference_is_light_plus_dark():
    rng = np.random.default_rng(1)
    light, dark = random_stacks(rng), random_stacks(rng)
    combined = combine_bo(light, dark, ModelWeights())
    for k in range(3):
        assert np.array_equal(combined[k], light[k] + dark[k])


def test_combine_blend_matches_scalar_arithmetic():
    rng = np.random.default_rng(2)
    light, dark, sa, tj = (random_stacks(rng) for _ in range(4))
    w = ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80)
    combined = combine_bo(light, dark, w, bo_sa=sa, bo_tj=tj)
    for k in range(3):
        expect = 0.05 * (light[k] + dark[k]) + 0.15 * sa[k] + 0.80 * tj[k]
        assert np.abs(combined[k] - expect).max() < 1e-15


def test_combine_requires_routes_it_weights():
    rng = np.random.default_rng(3)
    light, dark = random_stacks(rng), random_stacks(rng)
    w = ModelWeights(alpha_ref=0.35, alpha_sa=0.65)
    with pytest.raises(ValueError):
        combine_bo(light, dark, w)


def test_combine_ignores_unweighted_routes_bit_identically():
    rng = np.random.default_rng(4)
    light, dark, sa = random_stacks(rng), random_stacks(rng), random_stacks(rng)
    with_sa = combine_bo(light, dark, ModelWeights(), bo_sa=sa)
    without = combine_bo(light, dark, ModelWeights())
    for k in range(3):
        assert np.array_equal(with_sa[k], without[k])


def test_combine_alignment_validated():
    rng = np.random.default_rng(5)
    light = random_stacks(rng)
    with pytest.raises(ValueError):
        combine_bo(light, light[:2], ModelWeights())


# -------------------------------------------------------------- winning

def test_winning_single_pair_frozen():
    stack = np.zeros((8, 2, 3, 3))
    stack[0, 0, 1, 1] = 3.0
    stack[0, 1, 1, 1] = 1.0
    (out,) = winning_bo([stack])
    assert out[0, 0, 1, 1] == 2.0
    out[0, 0, 1, 1] = 0.0
    assert np.abs(out).max() == 0.0


def test_winning_equal_pair_is_silent():
    stack = np.zeros((8, 2, 2, 2))
    stack[3, 0] = 1.5
    stack[3, 1] = 1.5
    (out,) = winning_bo([stack])
    assert np.abs(out).max() == 0.0


def test_winning_tie_breaks_to_lowest_orientation():
    stack = np.zeros((8, 2, 1, 1))
    stack[2, 1, 0, 0] = 2.0  # |delta| = 2 at orientation 2
    stack[5, 0, 0, 0] = 2.0  # |delta| = 2 at orientation 5
    (out,) = winning_bo([stack])
    assert out[2, 1, 0, 0] == 2.0
    assert out[5, 0, 0, 0] == 0.0


def test_winning_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        stack = rng.random((8, 2, 5, 5))
        (got,) = winning_bo([stack])
        assert np.abs(got - oracle_winning(stack)).max() < 1e-12


def test_winning_scale_invariance():
    rng = np.random.default_rng(12)
    stack = rng.random((8, 2, 6, 6))
    (base,) = winning_bo([stack])
    (scaled,) = winning_bo([3.7 * stack])
    assert np.allclose(scaled, 3.7 * base, rtol=1e-12, atol=0)


def test_winning_at_most_one_active_cell():
    rng = np.random.default_rng(13)
    (out,) = winning_bo([rng.random((8, 2, 7, 7))])
    active = (out > 0).reshape(16, 7, 7).sum(axis=0)
    assert active.max() <= 1


# ---------------------------------------------------------- final maps

def test_sum_bo_sets_elementwise():
    rng = np.random.default_rng(14)
    a, b = random_stacks(rng), random_stacks(rng)
    total = sum_bo_sets([a, b])
    for k in range(3):
        assert np.array_equal(total[k], a[k] + b[k])
    with pytest.raises(ValueError):
        sum_bo_sets([a, b[:1]])


def test_final_single_native_level_identity():
    rng = np.random.default_rng(15)
    stack = rng.random((8, 2, 9, 9))
    out = final_bo_maps([[stack]])
    assert np.array_equal(out, stack)


def test_final_two_identical_features_double():
    rng = np.random.default_rng(16)
    stack = rng.random((8, 2, 9, 9))
    out = final_bo_maps([[stack], [stack]])
    assert np.allclose(out, 2.0 * stack, rtol=0, atol=1e-15)


def test_final_matches_sequential_oracle():
    rng = np.random.default_rng(17)
    dims = [(16, 16)]
    for _ in range(4):
        r, c = dims[-1]
        dims.append((int(np.ceil(r / SQRT2)), int(np.ceil(c / SQRT2))))
    sets = [
        [rng.random((8, 2) + d) for d in dims],
        [rng.random((8, 2) + d) for d in dims],
        [rng.random((8, 2) + d) for d in dims],
    ]
    w = ModelWeights(feature_weights=(0.3, 1.0, 2.0))
    got = final_bo_maps(sets, w)
    assert np.abs(got - oracle_final(sets, (0.3, 1.0, 2.0))).max() < 1e-9


@pytest.mark.parametrize("factor", [SQRT2, 2.0])
def test_scale_contexts_matches_docstring_formula(factor):
    rng = np.random.default_rng(18)
    dims = [(21, 30)]
    for _ in range(4):
        r, c = dims[-1]
        dims.append((int(np.ceil(r / factor)), int(np.ceil(c / factor))))
    responses = [rng.standard_normal((8, 2) + d) for d in dims]
    for got, want in zip(scale_contexts(responses), oracle_scale_contexts(responses)):
        assert_rel_close(got, want)


def test_ring_bank_is_cached_read_only_von_mises():
    context = ContextParams()
    bank = _ring_bank((40, 40), context)
    assert _ring_bank((60, 33), context) is bank
    assert not bank.flags.writeable
    for ti in range(8):
        for si in range(2):
            want = make_von_mises(VonMisesParams(bo_direction(ti, si)))
            assert np.array_equal(bank[ti, si], want)
    # clamped at a coarse level, still the von Mises kernel of that size
    assert _ring_bank((6, 9), context).shape == (8, 2, 5, 5)


@pytest.mark.parametrize("stimulus", [overlapping_squares, annulus])
def test_final_battery_matches_sequential_oracle(stimulus):
    stim = stimulus()
    prepared = prepare_components(stim.image, need_sa=True)
    for weights in (ModelWeights(), ModelWeights(alpha_ref=0.5, alpha_sa=0.5)):
        winning_orientation = winning_bo(
            combine_bo(prepared.bo_light, prepared.bo_dark, weights, bo_sa=prepared.bo_sa)
        )
        sets = [prepared.winning_color, prepared.winning_intensity, winning_orientation]
        got = finalize_components(prepared, weights).final
        assert got.any()
        assert_rel_close(got, oracle_final(sets, weights.feature_weights))


def test_final_rejects_too_many_sets():
    stack = np.zeros((8, 2, 4, 4))
    with pytest.raises(ValueError):
        final_bo_maps([[stack]] * 4)
    with pytest.raises(ValueError):
        final_bo_maps([])
