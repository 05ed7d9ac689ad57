import logging
import tracemalloc
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from fgo import channels, pipeline
from fgo.channels import as_image, compute_channels
from fgo.evaluation import compute_fgca, load_ground_truth
from fgo.filters import DoGParams, GaborParams, make_center_surround
from fgo.grid import pool_resampled, pyramid_levels
from fgo.cues import SAParams, TJParams
from fgo.ownership import ALPHA_NAMES, ModelWeights, compute_bo, cs_pyramids, winning_bo
from fgo.pipeline import (
    PipelineParams,
    PreparedImage,
    final_levels,
    finalize_components,
    prepare_components,
    run_model,
)
from fgo.stimuli import isolated_square, overlapping_squares
from helpers import full_prepared, oracle_final, scoring_battery

FAST = PipelineParams(n_scales=4)
NAN = float("nan")


@pytest.fixture(scope="module")
def square_run():
    stim = isolated_square(size=48, first=16, last=31)
    return stim, run_model(stim.image, params=FAST)


class TestRunModel:
    def test_output_shape_and_sign(self, square_run):
        stim, result = square_run
        assert result.final.shape == (8, 2) + stim.image.shape
        assert (result.final >= 0).all()
        assert result.final.max() > 0

    def test_reference_square_ownership(self, square_run):
        stim, result = square_run
        gt = load_ground_truth(stim.signed)
        fgca = compute_fgca(result.final, gt)
        assert fgca.accuracy >= 0.9

    def test_deterministic(self, square_run):
        stim, result = square_run
        again = run_model(stim.image, params=FAST)
        np.testing.assert_array_equal(result.final, again.final)

    def test_polarity_inversion_swaps_nothing_visible(self):
        # light and dark contrast routes swap under inversion, so the
        # intensity channel's final maps are identical (n_scales >= 6:
        # fewer levels leave exact orientation ties whose argmax can
        # flip on FFT-order noise)
        params = PipelineParams(n_scales=6, feature_color=0.0, feature_orientation=0.0)
        stim = isolated_square(size=48, first=16, last=31)
        a = run_model(stim.image, params=params).final
        b = run_model(1.0 - stim.image, params=params).final
        scale = np.abs(a).max()
        assert np.abs(a - b).max() <= 1e-6 * scale

    def test_color_image_route(self):
        rows, cols = 48, 48
        red = np.zeros((rows, cols))
        red[16:32, 16:32] = 0.8
        image = np.stack([red, np.zeros_like(red), np.zeros_like(red)])
        result = run_model(image, params=FAST)
        assert result.final.shape == (8, 2, rows, cols)
        assert result.final.max() > 0

    def test_junctions_detected_with_labels(self):
        stim = overlapping_squares()
        result = run_model(
            stim.image,
            ModelWeights(alpha_ref=0.2, alpha_tj=0.8),
            FAST,
            contours=stim.contours,
            segments=stim.segments,
        )
        assert len(result.junctions) == 2
        assert result.weights.alpha_tj == 0.8

    def test_tj_weight_folds_without_labels(self, caplog):
        stim = isolated_square(size=48, first=16, last=31)
        with caplog.at_level(logging.WARNING, logger="fgo.pipeline"):
            result = run_model(stim.image, ModelWeights(alpha_ref=0.3, alpha_tj=0.7), FAST)
        assert result.weights.alpha_tj == 0.0
        assert result.weights.alpha_ref == pytest.approx(1.0)
        assert any("reassigning" in r.message for r in caplog.records)

    def test_bad_filter_params_rejected(self):
        with pytest.raises(ValueError):
            run_model(
                np.zeros((16, 16)),
                params=PipelineParams(n_scales=2, gabor=GaborParams(sigma=-1.0)),
            )


def with_routes(have_labels):
    """A small prepared image with the orientation routes: contrast and
    SA, and TJ when label maps were given."""
    level = [np.zeros((8, 4, 4))]
    return PreparedImage(
        params=FAST,
        have_labels=have_labels,
        fixed=np.zeros((8, 2, 4, 4)),
        routes=(level, level, level if have_labels else None),
    )


class TestEffectiveWeights:
    """The weights :func:`final_levels` applies."""

    def test_identity_with_labels(self):
        w = ModelWeights(alpha_ref=0.2, alpha_tj=0.8)
        assert final_levels(with_routes(have_labels=True), w)[1] is w

    def test_identity_when_unused(self):
        w = ModelWeights()
        assert final_levels(with_routes(have_labels=False), w)[1] is w

    def test_fold_preserves_simplex(self):
        w = ModelWeights(alpha_ref=0.1, alpha_sa=0.2, alpha_tj=0.7)
        _, folded = final_levels(with_routes(have_labels=False), w)
        assert folded.alpha_ref == pytest.approx(0.8)
        assert folded.alpha_sa == pytest.approx(0.2)
        assert folded.alpha_tj == 0.0


@pytest.fixture(scope="module")
def prepared():
    stim = overlapping_squares()
    return stim, prepare_components(
        stim.image,
        FAST,
        contours=stim.contours,
        segments=stim.segments,
        need_sa=True,
        need_tj=True,
    )


class TestPrepareFinalize:
    def test_matches_direct_run(self, prepared):
        stim, prep = prepared
        for weights in (
            ModelWeights(),
            ModelWeights(alpha_ref=0.35, alpha_sa=0.65),
            ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80),
        ):
            via_prepared = finalize_components(prep, weights).final
            direct = run_model(
                stim.image,
                weights,
                FAST,
                contours=stim.contours,
                segments=stim.segments,
            ).final
            np.testing.assert_array_equal(via_prepared, direct)

    def test_missing_cue_stack_rejected(self):
        stim = isolated_square(size=48, first=16, last=31)
        prep = prepare_components(stim.image, FAST)
        assert prep.routes[1:] == (None, None)
        with pytest.raises(ValueError):
            finalize_components(prep, ModelWeights(alpha_ref=0.5, alpha_sa=0.5))

    def test_need_flags_force_stacks(self):
        stim = isolated_square(size=48, first=16, last=31)
        prep = prepare_components(stim.image, FAST, need_sa=True)
        assert prep.routes[1] is not None
        result = finalize_components(prep, ModelWeights(alpha_ref=0.4, alpha_sa=0.6))
        assert result.final.max() > 0

    def test_orientation_feature_off_skips_cue_stacks(self):
        stim = isolated_square(size=48, first=16, last=31)
        params = replace(FAST, feature_color=0.0, feature_orientation=0.0)
        prep = prepare_components(stim.image, params, need_sa=True)
        assert prep.routes is None
        with pytest.raises(ValueError, match="local-cue weights need the orientation feature"):
            finalize_components(prep, ModelWeights(alpha_ref=0.5, alpha_sa=0.5))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PipelineParams(n_scales=0)

    @pytest.mark.parametrize("build, limit", [
        (lambda: PipelineParams(pyramid_factor=0), r"pyramid_factor must be sqrt\(2\) or 2"),
        (lambda: PipelineParams(pyramid_factor=1.5), r"pyramid_factor must be sqrt\(2\) or 2"),
        (lambda: PipelineParams(ring_radius=-1.0), "r0 must be positive"),
        (lambda: SAParams(size_step=0), "size_step must be even and >= 2"),
    ], ids=["factor-0", "factor-1.5", "radius", "sa-step"])
    def test_bad_params_refused_at_construction(self, build, limit):
        with pytest.raises(ValueError, match=limit):
            build()

    @pytest.mark.parametrize("build, limit", [
        (lambda: ModelWeights(alpha_ref=NAN, alpha_sa=0.5), "cue weights must be non-negative"),
        (lambda: PipelineParams(w_opp=NAN), "w_opp must be non-negative"),
        (lambda: PipelineParams(feature_intensity=NAN), "feature weights must be non-negative"),
        (lambda: GaborParams(omega=NAN), "must all be positive"),
        (lambda: DoGParams(sigma_in=NAN), "need 0 < sigma_in < sigma_out"),
        (lambda: PipelineParams(ring_radius=NAN), "r0 must be positive"),
        (lambda: replace(PipelineParams().oriented_cs, gamma=NAN), "must all be positive"),
        (lambda: SAParams(sigma_factor=NAN), "must be positive"),
        (lambda: SAParams(n_lobes_even=NAN), "n_lobes_even must be >= 1, got nan"),
        (lambda: TJParams(influence_radius=NAN), "influence_radius must be >= 0, got nan"),
        (lambda: TJParams(y_sector_halfwidth=NAN), "y_sector_halfwidth must lie in"),
    ], ids=["alpha", "w_opp", "feature", "gabor", "dog", "von-mises", "oriented-cs", "sa",
            "sa-lobes", "tj-radius", "tj-sector"])
    def test_nan_params_refused(self, build, limit):
        # NaN compares false with every limit, so each check is written to fail on it
        with pytest.raises(ValueError, match=limit):
            build()

    def test_routes_share_the_carrier_levels(self, prepared):
        # every route is built on the one carrier pyramid, so the side
        # imbalances that finalize blends align level by level without
        # a check; fixed is one native stack
        stim, prep = prepared
        level_dims = [level.shape[-2:] for level in prep.routes[0]]
        assert len(level_dims) == FAST.n_scales
        assert level_dims[0] == stim.image.shape
        assert isinstance(prep.fixed, np.ndarray)
        assert prep.fixed.shape == (8, 2) + stim.image.shape
        assert len(prep.routes) == 3
        for route in prep.routes:
            assert [level.shape for level in route] == [(8,) + dims for dims in level_dims]


class TestRouteTuple:
    """``PreparedImage.routes`` holds one orientation route per alpha, in
    alpha order."""

    def test_alpha_names_are_the_weight_fields(self):
        assert ALPHA_NAMES == tuple(f.name for f in fields(ModelWeights))
        assert ALPHA_NAMES == ("alpha_ref", "alpha_sa", "alpha_tj")

    @pytest.mark.parametrize("which", range(3), ids=ALPHA_NAMES)
    def test_one_hot_alpha_selects_its_route(self, prepared, which):
        _, prep = prepared
        # a feature weight other than 1, so that its product is seen
        prep = replace(prep, params=replace(prep.params, feature_orientation=0.5))
        weights = ModelWeights(**{name: float(i == which) for i, name in enumerate(ALPHA_NAMES)})
        levels, applied = final_levels(prep, weights)
        assert applied is weights
        want = [0.5 * level for level in winning_bo(prep.routes[which])]
        for got_k, want_k in zip(levels, want, strict=True):
            np.testing.assert_array_equal(got_k, want_k)

    @pytest.mark.parametrize("name", ["alpha_sa", "alpha_tj"])
    def test_weighted_route_not_prepared_refused_by_name(self, name):
        stim = overlapping_squares()
        # label maps given, but neither local cue built
        prep = prepare_components(stim.image, FAST, stim.contours, stim.segments)
        assert prep.have_labels and prep.routes[1:] == (None, None)
        with pytest.raises(ValueError, match=f"{name} > 0 but its route was not prepared"):
            final_levels(prep, ModelWeights(**{"alpha_ref": 0.5, name: 0.5}))


def colour_squares():
    stim = overlapping_squares()
    return np.stack([stim.image, stim.image**2, 1.0 - stim.image])


class TestFixedFeatures:
    """``PreparedImage.fixed`` is the colour plus intensity term of the
    final feature sum, ``sum_f w_f * W_f`` in channel order, pooled to
    native size once, bit for bit, sign bits included."""

    @staticmethod
    def winners(image):
        """Per feature in channel order (each non-empty opponency map,
        then intensity), its winners level by level."""
        intensity, opponency, orientation = compute_channels(as_image(image), FAST.gabor)

        def pyramid(native):
            return list(pyramid_levels(native, FAST.n_scales, FAST.pyramid_factor))

        carriers = pyramid(orientation)

        def route(native):
            dog = partial(make_center_surround, FAST.dog)
            cs = cs_pyramids(pyramid(native), FAST.dog.size, dog)
            return winning_bo(compute_bo(carriers, cs, 1.0, FAST.ring_radius))

        return [route(native) for native in opponency if native.any()] + [route(intensity)]

    @pytest.mark.parametrize("kind", ["colour", "gray", "black"])
    def test_fixed_is_weighted_colour_plus_intensity(self, kind):
        # a black image: every winner is zero, and the sum must stay +0.0
        image = {
            "colour": colour_squares(),
            "gray": overlapping_squares().image,
            "black": np.zeros((48, 48)),
        }[kind]
        w_c, w_i = 0.3, 1.7
        features = self.winners(image)
        assert (len(features) > 1) == (kind == "colour")
        levels = None
        for weight, winners in zip([w_c] * (len(features) - 1) + [w_i], features):
            scaled = [weight * w for w in winners]
            levels = scaled if levels is None else [t + w for t, w in zip(levels, scaled)]
        params = replace(FAST, feature_color=w_c, feature_intensity=w_i, feature_orientation=0.9)
        got = prepare_components(image, params).fixed
        want = pool_resampled(levels, *levels[0].shape[-2:])
        assert got.shape == (8, 2) + levels[0].shape[-2:]
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()

    def test_colour_sums_the_opponency_winners_in_channel_order(self):
        image = colour_squares()
        _, opponency, _ = compute_channels(image)
        assert sum(native.any() for native in opponency) > 1
        colour = [sum(levels[1:], levels[0]) for levels in zip(*self.winners(image)[:-1])]
        params = replace(FAST, feature_intensity=0.0, feature_orientation=0.0)
        got = prepare_components(image, params).fixed
        want = pool_resampled(colour, *colour[0].shape[-2:])
        assert got.tobytes() == want.tobytes()

    def test_intensity_is_computed_once(self, monkeypatch):
        # compute_channels hands its intensity map to the opponency stage
        calls = []
        original = channels.compute_intensity

        def counted(image):
            calls.append(image)
            return original(image)

        monkeypatch.setattr(channels, "compute_intensity", counted)
        prepare_components(colour_squares(), FAST, need_sa=True)
        assert len(calls) == 1

    def test_no_weighted_feature_is_zero(self):
        image = colour_squares()
        params = replace(FAST, feature_color=0.0, feature_intensity=0.0)
        got = prepare_components(image, params).fixed
        assert got.shape == (8, 2) + image.shape[1:]
        assert not got.any() and not np.signbit(got).any()


class TestInputContract:
    """Images the native filter banks or the pyramid do not fit, and
    label maps that break their rule, are refused up front, with the
    limit in the message."""

    def test_sa_bank_needs_more_than_25_px(self):
        image = np.full((24, 24), 0.5)
        with pytest.raises(ValueError, match=r"24x24 .*largest filter \(25 px\).*26 px"):
            prepare_components(image, need_sa=True)
        # the contrast route alone fits, and so does SA one pixel past the limit
        assert prepare_components(image).routes[1] is None
        prep = prepare_components(np.full((26, 26), 0.5), need_sa=True)
        assert prep.routes[1] is not None

    def test_carrier_gabor_needs_more_than_15_px(self):
        with pytest.raises(ValueError, match=r"8x300 .*carrier Gabor \(15 px\).*16 px"):
            prepare_components(np.full((8, 300), 0.5))
        prep = prepare_components(np.full((16, 16), 0.5))
        assert len(prep.routes[0]) == 10

    @pytest.mark.parametrize("need_tj", [False, True], ids=["reference", "with-tj"])
    @pytest.mark.parametrize("which", ["contours", "segments"])
    def test_label_maps_must_match_the_image(self, need_tj, which):
        small = overlapping_squares(size=48, a_first=8, a_last=28, b_first=18, b_last=38)
        large = overlapping_squares()
        labels = {"contours": small.contours, "segments": small.segments}
        labels[which] = getattr(large, which)
        name = which[:-1]
        with pytest.raises(ValueError, match=rf"the {name} map is 96x96 but the image is 48x48"):
            prepare_components(small.image, FAST, **labels, need_tj=need_tj)
        prep = prepare_components(
            small.image, FAST, small.contours, small.segments, need_tj=need_tj
        )
        assert prep.junctions

    @pytest.mark.parametrize("which, spoil, message", [
        ("contours", lambda labels: labels.astype(np.float64), "contours must hold integers"),
        ("segments", np.negative, r"segments must be non-negative \(0 means unlabeled\)"),
        ("contours", lambda labels: labels[None], "contours must be a non-empty 2D array"),
    ], ids=["float-contours", "negative-segments", "3d-contours"])
    def test_bad_label_maps_refused_before_any_filtering(self, monkeypatch, which, spoil, message):
        stim = overlapping_squares()
        labels = {"contours": stim.contours, "segments": stim.segments}
        labels[which] = spoil(labels[which])

        def filtered(*args, **kwargs):
            pytest.fail("the image was filtered before its label maps were checked")

        monkeypatch.setattr(pipeline, "compute_channels", filtered)
        with pytest.raises(ValueError, match=f"^{message}$"):
            prepare_components(stim.image, FAST, **labels, need_tj=True)

    def test_gray_map_is_its_three_equal_channels(self):
        stim = overlapping_squares()
        gray, rgb = (
            prepare_components(
                image, FAST, stim.contours, stim.segments, need_sa=True, need_tj=True
            )
            for image in (stim.image, np.stack([stim.image] * 3))
        )
        assert gray.fixed.tobytes() == rgb.fixed.tobytes()
        assert all(route is not None for route in gray.routes)
        for got, want in zip(gray.routes, rgb.routes, strict=True):
            assert [level.tobytes() for level in got] == [level.tobytes() for level in want]

    @pytest.mark.parametrize("which", ["contours", "segments"])
    def test_one_label_map_without_the_other_refused(self, which):
        stim = overlapping_squares()
        with pytest.raises(ValueError, match="contour and segment maps must be given together"):
            prepare_components(
                stim.image, FAST, need_tj=True, **{which: getattr(stim, which)}
            )

    def test_pyramid_levels_need_2x2_cells(self):
        image = np.full((128, 128), 0.5)
        with pytest.raises(ValueError, match=r"n_scales=10 .*1x1 at level 7; at most 7 levels"):
            prepare_components(image, params=PipelineParams(pyramid_factor=2.0))
        prep = prepare_components(image, params=PipelineParams(n_scales=7, pyramid_factor=2.0))
        assert prep.routes[0][-1].shape[-2:] == (2, 2)


PRESET_TRIPLES = ((1.0, 0.0, 0.0), (0.35, 0.65, 0.0), (0.03, 0.0, 0.97), (0.05, 0.15, 0.8))


class TestFullPathOracle:
    """The side-imbalance path against the full path of (8, 2) stacks,
    blended, reduced to winners and pooled with the ``fixed`` levels
    (``helpers.oracle_final``)."""

    @pytest.mark.parametrize("index", range(6))
    def test_finalize_equals_the_full_path(self, index):
        name, image, signed, contours, segments = scoring_battery()[index]
        params = PipelineParams()
        prepared = prepare_components(
            image, params, contours, segments, need_sa=True, need_tj=True
        )
        full = full_prepared(image, params, contours, segments)
        gt = load_ground_truth(signed)
        rng = np.random.default_rng(index)
        randoms = [(a, b, 1.0 - a - b) for a, b in rng.dirichlet((1.0, 1.0, 1.0), 4)[:, :2]]
        for triple in (*PRESET_TRIPLES, *randoms):
            weights = ModelWeights(*triple)
            result = finalize_components(prepared, weights)
            want = oracle_final(full, result.weights)
            scale = np.abs(want).reshape(16, -1).max(axis=1)
            error = np.abs(result.final - want).reshape(16, -1).max(axis=1)
            assert (error <= 1e-12 * scale).all(), (name, triple)
            assert compute_fgca(result.final, gt) == compute_fgca(want, gt), (name, triple)

    def test_run_model_peak_memory(self):
        # every route on a seeded colour scene: the traced peak, in native
        # (8, 2, rows, cols) stacks, was 12.8 with (8, 2) route stacks, a
        # level-resolution fixed term and whole-stack gate temporaries
        size = 128
        rng = np.random.default_rng(4)
        stim = overlapping_squares(size=size, a_first=32, a_last=80, b_first=48, b_last=112)
        gains = rng.uniform(0.5, 1.0, size=(stim.segments.max() + 1, 3))
        image = np.clip(stim.image * gains[stim.segments].transpose(2, 0, 1), 0, 1)
        weights = ModelWeights(0.05, 0.15, 0.8)
        tracemalloc.start()
        try:
            result = run_model(image, weights, contours=stim.contours, segments=stim.segments)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.weights == weights
        assert peak < 10 * result.final.nbytes
