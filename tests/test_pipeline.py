import logging

import numpy as np
import pytest

from fgo.channels import RGBImage, build_channel_pyramids, compute_channels
from fgo.evaluation import compute_fgca, load_ground_truth
from fgo.filters import GaborParams, make_center_surround
from fgo.ownership import ModelWeights, compute_bo, cs_pyramids, winning_bo
from fgo.pipeline import (
    PipelineParams,
    effective_weights,
    finalize_components,
    prepare_components,
    run_model,
)
from fgo.stimuli import isolated_square, overlapping_squares

FAST = PipelineParams(n_scales=4)


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
        weights = ModelWeights(feature_weights=(0.0, 1.0, 0.0))
        params = PipelineParams(n_scales=6)
        stim = isolated_square(size=48, first=16, last=31)
        a = run_model(stim.image, weights, params).final
        b = run_model(1.0 - stim.image, weights, params).final
        scale = np.abs(a).max()
        assert np.abs(a - b).max() <= 1e-6 * scale

    def test_color_image_route(self):
        rows, cols = 48, 48
        red = np.zeros((rows, cols))
        red[16:32, 16:32] = 0.8
        image = RGBImage(r=red, g=np.zeros_like(red), b=np.zeros_like(red))
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
                params=PipelineParams(n_scales=2, gabor=GaborParams(theta=0.0, sigma=-1.0)),
            )


class TestEffectiveWeights:
    def test_identity_with_labels(self):
        w = ModelWeights(alpha_ref=0.2, alpha_tj=0.8)
        assert effective_weights(w, have_labels=True) is w

    def test_identity_when_unused(self):
        w = ModelWeights()
        assert effective_weights(w, have_labels=False) is w

    def test_fold_preserves_simplex(self):
        w = ModelWeights(alpha_ref=0.1, alpha_sa=0.2, alpha_tj=0.7)
        folded = effective_weights(w, have_labels=False)
        assert folded.alpha_ref == pytest.approx(0.8)
        assert folded.alpha_sa == pytest.approx(0.2)
        assert folded.alpha_tj == 0.0


@pytest.fixture(scope="module")
def prepared():
    stim = overlapping_squares()
    base = ModelWeights(alpha_ref=0.05, alpha_sa=0.15, alpha_tj=0.80)
    return stim, prepare_components(
        stim.image,
        base,
        FAST,
        contours=stim.contours,
        segments=stim.segments,
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

    def test_base_mismatch_rejected(self, prepared):
        _, prep = prepared
        with pytest.raises(ValueError):
            finalize_components(prep, ModelWeights(w_opp=0.5))
        with pytest.raises(ValueError):
            finalize_components(prep, ModelWeights(feature_weights=(0.0, 1.0, 0.0)))
        with pytest.raises(ValueError):
            finalize_components(prep, ModelWeights(top_layers_only=2))

    def test_missing_cue_stack_rejected(self):
        stim = isolated_square(size=48, first=16, last=31)
        prep = prepare_components(stim.image, ModelWeights(), FAST)
        assert prep.bo_sa is None and prep.bo_tj is None
        with pytest.raises(ValueError):
            finalize_components(prep, ModelWeights(alpha_ref=0.5, alpha_sa=0.5))

    def test_need_flags_force_stacks(self):
        stim = isolated_square(size=48, first=16, last=31)
        prep = prepare_components(stim.image, ModelWeights(), FAST, need_sa=True)
        assert prep.bo_sa is not None
        result = finalize_components(prep, ModelWeights(alpha_ref=0.4, alpha_sa=0.6))
        assert result.final.max() > 0

    def test_orientation_feature_off_skips_cue_stacks(self):
        stim = isolated_square(size=48, first=16, last=31)
        base = ModelWeights(feature_weights=(0.0, 1.0, 0.0))
        prep = prepare_components(stim.image, base, FAST, need_sa=True)
        assert prep.bo_contrast is None and prep.bo_sa is None
        with pytest.raises(ValueError):
            finalize_components(
                prep,
                ModelWeights(
                    alpha_ref=0.5, alpha_sa=0.5, feature_weights=(0.0, 1.0, 0.0)
                ),
            )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PipelineParams(n_scales=0)

    def test_routes_share_the_carrier_levels(self, prepared):
        # every route is built on the one carrier pyramid, so the stacks
        # that finalize blends align level by level without a check
        _, prep = prepared
        assert len(prep.level_dims) == FAST.n_scales
        for route in (prep.fixed, prep.bo_contrast, prep.bo_sa, prep.bo_tj):
            assert [level.shape for level in route] == [
                (8, 2) + dims for dims in prep.level_dims
            ]


def colour_squares():
    stim = overlapping_squares()
    return RGBImage(stim.image, stim.image**2, 1.0 - stim.image)


class TestFixedFeatures:
    """``PreparedImage.fixed`` is the colour plus intensity term of the
    final feature sum, bit for bit, sign bits included."""

    @pytest.mark.parametrize("kind", ["colour", "gray", "black"])
    def test_fixed_is_weighted_colour_plus_intensity(self, kind):
        # a black image: every winner is zero, and the sum must stay +0.0
        image = {
            "colour": colour_squares(),
            "gray": overlapping_squares().image,
            "black": np.zeros((48, 48)),
        }[kind]

        def fixed(feature_weights):
            base = ModelWeights(feature_weights=feature_weights)
            return prepare_components(image, base, FAST).fixed

        w_c, w_i = 0.3, 1.7
        color, intensity = fixed((1.0, 0.0, 0.0)), fixed((0.0, 1.0, 0.0))
        assert any(level.any() for level in color) == (kind == "colour")
        got = fixed((w_c, w_i, 0.9))
        assert len(got) == FAST.n_scales
        for g, c, i in zip(got, color, intensity, strict=True):
            assert g.tobytes() == ((0 + w_c * c) + w_i * i).tobytes()
            assert not np.signbit(g).any()

    def test_colour_sums_the_opponency_winners_in_channel_order(self):
        image = colour_squares()
        base = ModelWeights(feature_weights=(1.0, 0.0, 0.0))
        channels = compute_channels(image, FAST.gabor)
        pyramids = build_channel_pyramids(channels, FAST.n_scales, FAST.pyramid_factor)
        winners = [
            winning_bo(compute_bo(
                pyramids.orientation,
                cs_pyramids(pyr, [FAST.dog], make_center_surround),
                base.w_opp,
                FAST.context,
            ))
            for pyr, native in zip(pyramids.opponency, channels.opponency)
            if native.any()
        ]
        assert len(winners) > 1
        got = prepare_components(image, base, FAST).fixed
        for k, level in enumerate(got):
            assert level.tobytes() == sum(w[k] for w in winners).tobytes()


class TestInputContract:
    """Images the native filter banks or the pyramid do not fit are
    refused up front, with the limit in the message."""

    def test_sa_bank_needs_more_than_25_px(self):
        image = np.full((24, 24), 0.5)
        with pytest.raises(ValueError, match=r"24x24 .*largest filter \(25 px\).*26 px"):
            prepare_components(image, ModelWeights(0.35, 0.65, 0.0))
        # the contrast route alone fits, and so does SA one pixel past the limit
        assert prepare_components(image, ModelWeights()).bo_sa is None
        prep = prepare_components(np.full((26, 26), 0.5), ModelWeights(0.35, 0.65, 0.0))
        assert prep.bo_sa is not None

    def test_carrier_gabor_needs_more_than_15_px(self):
        with pytest.raises(ValueError, match=r"8x300 .*carrier Gabor \(15 px\).*16 px"):
            prepare_components(np.full((8, 300), 0.5))
        prep = prepare_components(np.full((16, 16), 0.5))
        assert len(prep.level_dims) == 10

    @pytest.mark.parametrize(
        "weights", [ModelWeights(), ModelWeights(0.03, 0.0, 0.97)], ids=["reference", "with-tj"]
    )
    @pytest.mark.parametrize("which", ["contours", "segments"])
    def test_label_maps_must_match_the_image(self, weights, which):
        small = overlapping_squares(size=48, a_first=8, a_last=28, b_first=18, b_last=38)
        large = overlapping_squares()
        labels = {"contours": small.contours, "segments": small.segments}
        labels[which] = getattr(large, which)
        name = which[:-1]
        with pytest.raises(ValueError, match=rf"the {name} map is 96x96 but the image is 48x48"):
            prepare_components(small.image, weights, FAST, **labels)
        prep = prepare_components(small.image, weights, FAST, small.contours, small.segments)
        assert prep.junctions

    def test_pyramid_levels_need_2x2_cells(self):
        image = np.full((128, 128), 0.5)
        with pytest.raises(ValueError, match=r"n_scales=10 .*1x1 at level 7; at most 7 levels"):
            prepare_components(image, params=PipelineParams(pyramid_factor=2.0))
        prep = prepare_components(image, params=PipelineParams(n_scales=7, pyramid_factor=2.0))
        assert prep.level_dims[-1] == (2, 2)
