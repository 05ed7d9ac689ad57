import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fgo.evaluation import (
    ALPHA_NAMES,
    FGGroundTruth,
    _lattice_points,
    build_report,
    FGCAResult,
    compute_fgca,
    decisions_for,
    format_report_keyvalues,
    format_report_text,
    grid_search_weights,
    load_ground_truth,
    make_split,
    prepare_scoring,
    right_tailed_t_test,
    score_directions,
    score_weights,
)
from fgo.channels import N_SIDES, bo_direction
from fgo.ownership import ModelWeights
from fgo.pipeline import PipelineParams, finalize_components, prepare_components, run_model
from fgo.stimuli import annulus, isolated_square, overlapping_squares, shaded_edge
from helpers import scoring_battery


def single_peak_final(rows=9, cols=9, ti=0, si=0, y=4, x=4, value=2.0):
    final = np.zeros((8, 2, rows, cols))
    final[ti, si, y, x] = value
    return final


def decide(final, x, y):
    """``decisions_for`` on a one-record truth: (direction, tie flag)."""
    gt = FGGroundTruth(x=[x], y=[y], nx=[1.0], ny=[0.0], shape=final.shape[-2:])
    dirs, ties = decisions_for(final, gt)
    return dirs[0], ties[0]


def oracle_decide_figure(final, x, y):
    """One record's decision, window by window: the 3x3 window clipped at
    the border, its strongest response, a tie on no positive response or
    on both sides of one orientation, else the first winning map."""
    rows, cols = final.shape[-2:]
    window = final[:, :, max(0, y - 1) : min(rows, y + 2), max(0, x - 1) : min(cols, x + 2)]
    strongest = window.max(axis=(2, 3))
    best = strongest.max()
    if best <= 0:
        return np.zeros(2), True
    winners = strongest == best
    if (winners.sum(axis=1) == N_SIDES).any():
        return np.zeros(2), True
    ti, si = np.argwhere(winners)[0]
    angle = bo_direction(int(ti), int(si))
    return np.array([math.cos(angle), math.sin(angle)]), False


def assert_matches_oracle(final, gt):
    dirs, ties = decisions_for(final, gt)
    for i in range(len(gt)):
        direction, tie = oracle_decide_figure(final, int(gt.x[i]), int(gt.y[i]))
        assert ties[i] == tie
        assert np.array_equal(dirs[i], direction)


class TestLoadGroundTruth:
    def test_minimal_horizontal_interface(self):
        gt = load_ground_truth([[1, -1, 0]])
        assert len(gt) == 1
        assert (gt.x[0], gt.y[0]) == (1, 0)
        assert (gt.nx[0], gt.ny[0]) == (-1.0, 0.0)

    def test_diagonal_neighbor_mix(self):
        # figure cells right and below-right of the boundary cell
        gt = load_ground_truth([[0, -1, 1], [0, 0, 1]])
        assert len(gt) == 1
        expect = np.array([2.0, 1.0]) / math.hypot(2.0, 1.0)
        assert gt.nx[0] == pytest.approx(expect[0])
        assert gt.ny[0] == pytest.approx(expect[1])

    def test_square_fixture_inward_normals(self):
        stim = isolated_square(first=20, last=43)
        gt = load_ground_truth(stim.signed)
        assert len(gt) == 92
        mid = (20 + 43) / 2.0
        for x, y, nx, ny in zip(gt.x, gt.y, gt.nx, gt.ny):
            # each normal points toward the square's interior
            assert nx * (mid - x) + ny * (mid - y) > 0

    def test_cancelling_neighbors_dropped(self):
        assert len(load_ground_truth([[1], [-1], [1]])) == 0

    def test_no_interface_gives_empty(self):
        # without a warning: the scorer's refusal is the one report
        gt = load_ground_truth(np.zeros((4, 4), dtype=int))
        assert len(gt) == 0
        with pytest.raises(ValueError, match="empty ground truth"):
            compute_fgca(np.zeros((8, 2, 4, 4)), gt)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            load_ground_truth([[2, 0], [0, 0]])
        with pytest.raises(ValueError):
            load_ground_truth(np.zeros((2, 2, 2), dtype=int))

    def test_groundtruth_validation(self):
        with pytest.raises(ValueError):
            FGGroundTruth(x=[1], y=[1], nx=[1.0], ny=[1.0], shape=(3, 3))  # not unit
        with pytest.raises(ValueError):
            FGGroundTruth(x=[1, 2], y=[1], nx=[1.0], ny=[0.0], shape=(3, 3))
        with pytest.raises(ValueError, match=r"x 3\.\.3 and y 0\.\.0, outside the 3x3 map"):
            FGGroundTruth(x=[3], y=[0], nx=[1.0], ny=[0.0], shape=(3, 3))
        with pytest.raises(ValueError, match="normals must have unit length"):
            FGGroundTruth(x=[1], y=[1], nx=[math.nan], ny=[0.0], shape=(3, 3))
        # a fractional coordinate or shape is refused, not truncated, and a
        # shape must be two positive integers, empty truth or not
        with pytest.raises(ValueError, match="ground truth x must be integers, got 1.7"):
            FGGroundTruth(x=[1.7], y=[1], nx=[1.0], ny=[0.0], shape=(3, 3))
        with pytest.raises(ValueError, match="ground truth y must be integers, got nan"):
            FGGroundTruth(x=[1], y=[math.nan], nx=[1.0], ny=[0.0], shape=(3, 3))
        with pytest.raises(ValueError, match="ground truth shape must be integers, got 2.9"):
            FGGroundTruth(x=[1], y=[1], nx=[1.0], ny=[0.0], shape=(2.9, 3))
        for shape in [(-1, 5), (3,), (0, 3)]:
            with pytest.raises(ValueError, match="shape must be two positive integers"):
                FGGroundTruth(x=[], y=[], nx=[], ny=[], shape=shape)
        # integral values of any dtype are kept, as int64 and ints
        gt = FGGroundTruth(x=np.array([1.0]), y=[2], nx=[1.0], ny=[0.0], shape=(np.int64(3), 3.0))
        assert gt.x.dtype == np.int64 and gt.x.tolist() == [1]
        assert gt.shape == (3, 3) and all(type(n) is int for n in gt.shape)

    def test_truth_keeps_its_map_shape(self):
        gt = load_ground_truth(isolated_square(size=48, first=16, last=31).signed)
        assert gt.shape == (48, 48)
        assert load_ground_truth(np.zeros((4, 5), dtype=int)).shape == (4, 5)


class TestDecideFigure:
    def test_single_peak_direction(self):
        for ti in range(8):
            for si in range(2):
                final = single_peak_final(ti=ti, si=si)
                direction, tie = decide(final, x=4, y=4)
                assert not tie
                angle = bo_direction(ti, si)
                assert direction == pytest.approx(
                    [math.cos(angle), math.sin(angle)]
                )

    def test_window_reaches_neighbors(self):
        final = single_peak_final(y=5, x=3)
        _, tie = decide(final, x=4, y=4)
        assert not tie
        _, tie = decide(final, x=6, y=6)
        assert tie  # peak two cells away is out of the window

    def test_all_zero_is_tie(self):
        direction, tie = decide(np.zeros((8, 2, 5, 5)), x=2, y=2)
        assert tie and (direction == 0).all()

    def test_opposing_sides_tie(self):
        final = np.zeros((8, 2, 5, 5))
        final[3, 0, 2, 2] = 1.5
        final[3, 1, 2, 1] = 1.5
        _, tie = decide(final, x=2, y=2)
        assert tie

    def test_cross_orientation_tie_resolved_by_first_index(self):
        final = np.zeros((8, 2, 5, 5))
        final[2, 0, 2, 2] = 1.5
        final[5, 1, 2, 2] = 1.5
        direction, tie = decide(final, x=2, y=2)
        assert not tie
        angle = bo_direction(2, 0)
        assert direction == pytest.approx([math.cos(angle), math.sin(angle)])

    def test_window_clipped_at_borders(self):
        final = single_peak_final(y=0, x=0)
        _, tie = decide(final, x=0, y=0)
        assert not tie


class TestDecisionsMatchOracle:
    def test_random_finals_with_ties_zeros_and_borders(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            rows, cols = rng.integers(1, 8, size=2)
            # few distinct integer values make ties of every kind common
            final = rng.integers(-1, 3, size=(8, 2, rows, cols)).astype(np.float64)
            final[:, :, : rows // 2, : cols // 2] = 0.0  # all-zero windows
            yy, xx = np.mgrid[0:rows, 0:cols]  # every cell, the borders included
            gt = FGGroundTruth(
                x=xx.ravel(), y=yy.ravel(), nx=np.ones(xx.size), ny=np.zeros(xx.size),
                shape=(rows, cols),
            )
            assert_matches_oracle(final, gt)
        # a zero maximum is no positive response, whatever the other side holds
        final = np.zeros((8, 2, 3, 3))
        final[:, 1] = -1.0
        assert_matches_oracle(
            final, FGGroundTruth(x=[1], y=[1], nx=[1.0], ny=[0.0], shape=(3, 3))
        )

    def test_battery_finals(self):
        params = PipelineParams(n_scales=4)
        for stim in (isolated_square(), overlapping_squares(), annulus(), shaded_edge()):
            final = run_model(stim.image, params=params).final
            assert_matches_oracle(final, load_ground_truth(stim.signed))

    def test_empty_truth_gives_no_decisions(self):
        empty = np.empty(0)
        dirs, ties = decisions_for(
            single_peak_final(),
            FGGroundTruth(x=empty, y=empty, nx=empty, ny=empty, shape=(9, 9)),
        )
        assert dirs.shape == (0, 2) and ties.shape == (0,)


class TestScoring:
    def test_score_directions_dot_rule(self):
        gt = FGGroundTruth(
            x=[0, 1, 2], y=[0, 0, 0], nx=[1.0, -1.0, 0.0], ny=[0.0, 0.0, 1.0], shape=(1, 3)
        )
        dirs = np.array([[0.6, 0.8], [0.6, 0.8], [0.6, -0.8]])
        ties = np.array([False, False, False])
        assert score_directions(gt, dirs, ties).tolist() == [1.0, 0.0, 0.0]

    def test_ties_score_half(self):
        gt = FGGroundTruth(x=[0], y=[0], nx=[1.0], ny=[0.0], shape=(1, 1))
        scores = score_directions(gt, np.zeros((1, 2)), np.array([True]))
        assert scores.tolist() == [0.5]

    def test_shape_mismatch_rejected(self):
        gt = FGGroundTruth(x=[0], y=[0], nx=[1.0], ny=[0.0], shape=(1, 1))
        with pytest.raises(ValueError):
            score_directions(gt, np.zeros((2, 2)), np.array([False, False]))

    def test_compute_fgca_averages_annotators(self):
        final = single_peak_final(ti=2, si=0, y=4, x=4)  # points straight down
        right = FGGroundTruth(x=[4], y=[4], nx=[0.0], ny=[1.0], shape=(9, 9))
        wrong = FGGroundTruth(x=[4], y=[4], nx=[0.0], ny=[-1.0], shape=(9, 9))
        result = compute_fgca(final, (right, wrong))
        assert result.accuracy == pytest.approx(0.5)
        assert result.pixels == 2
        assert result.correct == pytest.approx(1.0)

    def test_compute_fgca_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_fgca(np.zeros((8, 2, 4, 4)), ())

    def test_decisions_for_vectorizes_records(self):
        final = single_peak_final(ti=0, si=0, y=4, x=4)
        gt = FGGroundTruth(x=[4, 0], y=[4, 0], nx=[0.0, 1.0], ny=[-1.0, 0.0], shape=(9, 9))
        dirs, ties = decisions_for(final, gt)
        assert not ties[0] and ties[1]



# ------------------------------------------------- boundary-only scoring

WIDE_ON_48 = "^the ground-truth map is 96x96 but the image is 48x48"
PYRAMIDS = {"sqrt2": PipelineParams(), "two": PipelineParams(n_scales=5, pyramid_factor=2.0)}


def weight_triples(count=20, seed=3):
    """The simplex corners, then seeded points inside it."""
    rng = np.random.default_rng(seed)
    triples = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    for a, b in rng.dirichlet((1.0, 1.0, 1.0), size=count - len(triples))[:, :2]:
        triples.append((float(a), float(b), 1.0 - float(a) - float(b)))
    return [ModelWeights(*t) for t in triples]


def two_annotators(signed):
    gt = load_ground_truth(signed)
    other = FGGroundTruth(
        x=gt.x[::3], y=gt.y[::3], nx=gt.nx[::3], ny=gt.ny[::3], shape=gt.shape
    )
    return gt, other


def full_path(prepared, weights, gts):
    return compute_fgca(finalize_components(prepared, weights).final, gts)


class TestBoundaryScorer:
    @pytest.mark.parametrize("pyramid", sorted(PYRAMIDS))
    @pytest.mark.parametrize("index", range(6))
    def test_equals_full_path(self, index, pyramid):
        name, image, signed, contours, segments = scoring_battery()[index]
        prepared = prepare_components(
            image, PYRAMIDS[pyramid], contours=contours,
            segments=segments, need_sa=True, need_tj=True,
        )
        gts = two_annotators(signed)
        state = prepare_scoring(prepared, gts)
        results = []
        for weights in weight_triples():
            want = full_path(prepared, weights, gts)
            assert score_weights(state, weights) == want, (name, weights)
            results.append(want)
        # without labels the T-junction corner is folded onto the contrast route
        if contours is None:
            assert results[2] == results[0]

    @pytest.mark.parametrize(
        "feature_weights", [(0.0, 1.0, 1.0), (1.0, 0.5, 0.0), (0.0, 0.0, 0.0)]
    )
    def test_feature_weights_with_a_zero(self, feature_weights):
        stim = overlapping_squares()
        image = np.stack([stim.image, stim.image**2, 1.0 - stim.image])
        features = dict(
            zip(("feature_color", "feature_intensity", "feature_orientation"), feature_weights)
        )
        prepared = prepare_components(
            image, replace(PYRAMIDS["two"], **features), contours=stim.contours,
            segments=stim.segments, need_sa=True, need_tj=True,
        )
        gts = two_annotators(stim.signed)
        state = prepare_scoring(prepared, gts)
        triples = weight_triples() if feature_weights[2] else [ModelWeights()]
        for weights in triples:
            result = score_weights(state, weights)
            assert result == full_path(prepared, weights, gts)
        if not any(feature_weights):
            assert result.ties == result.pixels  # nothing responds: all ties

    def test_single_truth_equals_full_path(self):
        stim = isolated_square(size=48, first=16, last=31)
        prepared = prepare_components(stim.image, PYRAMIDS["two"])
        gt = load_ground_truth(stim.signed)
        assert score_weights(prepare_scoring(prepared, gt), ModelWeights()) == full_path(
            prepared, ModelWeights(), gt
        )

    def test_refuses_what_the_full_path_refuses(self):
        stim = isolated_square(size=48, first=16, last=31)
        gt = load_ground_truth(stim.signed)
        prepared = prepare_components(stim.image, PYRAMIDS["two"])
        state = prepare_scoring(prepared, gt)
        no_orientation = replace(PYRAMIDS["two"], feature_orientation=0.0)
        blind = prepare_components(stim.image, no_orientation)
        blind_state = prepare_scoring(blind, gt)
        cases = [
            (prepared, state, ModelWeights(alpha_ref=0.5, alpha_sa=0.5)),
            (blind, blind_state, ModelWeights(0.5, 0.5, 0.0)),
        ]
        for prep, st, weights in cases:
            with pytest.raises(ValueError) as full:
                finalize_components(prep, weights)
            with pytest.raises(ValueError) as scored:
                score_weights(st, weights)
            assert str(scored.value) == str(full.value)
        empty = FGGroundTruth(x=[], y=[], nx=[], ny=[], shape=(48, 48))
        for gts in ((), (gt, empty)):
            with pytest.raises(ValueError) as full:
                compute_fgca(finalize_components(prepared, ModelWeights()).final, gts)
            with pytest.raises(ValueError) as scored:
                prepare_scoring(prepared, gts)
            assert str(scored.value) == str(full.value)

    def test_truth_outside_the_map_refused(self):
        # a 96-px square's truth scored against a 48x48 run
        stim = isolated_square(size=48, first=16, last=31)
        prepared = prepare_components(stim.image, PYRAMIDS["two"])
        final = finalize_components(prepared, ModelWeights()).final
        wide = load_ground_truth(isolated_square(size=96, first=32, last=71).signed)
        assert wide.x.max() >= 48 and wide.y.max() >= 48
        for gts in (wide, (load_ground_truth(stim.signed), wide)):
            with pytest.raises(ValueError, match=WIDE_ON_48):
                compute_fgca(final, gts)
            with pytest.raises(ValueError, match=WIDE_ON_48):
                prepare_scoring(prepared, gts)
        # a record on the last row and column is inside
        corner = FGGroundTruth(x=[47], y=[47], nx=[1.0], ny=[0.0], shape=(48, 48))
        assert compute_fgca(final, corner) == score_weights(
            prepare_scoring(prepared, corner), ModelWeights()
        )

    def test_truth_of_another_shape_refused(self):
        # a 96-px square's truth whose records all lie inside the 48x48
        # run would score the wrong image silently
        stim = isolated_square(size=48, first=16, last=31)
        prepared = prepare_components(stim.image, PYRAMIDS["two"])
        final = finalize_components(prepared, ModelWeights()).final
        wide = load_ground_truth(isolated_square(size=96).signed)
        assert wide.x.max() < 48 and wide.y.max() < 48
        for gts in (wide, (load_ground_truth(stim.signed), wide)):
            with pytest.raises(ValueError, match=WIDE_ON_48):
                compute_fgca(final, gts)
            with pytest.raises(ValueError, match=WIDE_ON_48):
                prepare_scoring(prepared, gts)

    def test_state_holds_a_fraction_of_the_prepared_bytes(self):
        stim = isolated_square(size=48, first=16, last=31)
        prepared = prepare_components(stim.image, PYRAMIDS["two"])
        state = prepare_scoring(prepared, load_ground_truth(stim.signed))
        prepared_bytes = sum(a.nbytes for a in (prepared.fixed, *prepared.routes[0]))
        kept = state.prepared
        # fixed at the target cells, the side imbalances at the level cells
        assert kept.fixed.shape[:3] == (8, 2, 1) and kept.fixed.ndim == 4
        assert kept.routes[1:] == (None, None)
        assert [level.shape[:2] for level in kept.routes[0]] == [(8, 1)]
        state_bytes = sum(
            a.nbytes for a in (kept.fixed, *kept.routes[0], *state.windows)
        )
        assert state_bytes < prepared_bytes / 4


class TestReports:
    def test_aggregate_is_pixel_weighted(self):
        scores = {
            "a": FGCAResult(accuracy=1.0, correct=90.0, pixels=90, ties=0),
            "b": FGCAResult(accuracy=0.0, correct=0.0, pixels=10, ties=1),
        }
        report = build_report(scores)
        assert report.aggregate == pytest.approx(0.9)
        assert report.per_image_mean == pytest.approx(0.5)
        assert report.std_dev == pytest.approx(np.std([1.0, 0.0], ddof=1))

    def test_formats_round_trip_fields(self):
        report = build_report({"img1": FGCAResult(0.75, 75.0, 100, 2)})
        text = format_report_text(report)
        assert "img1 0.750000 100 2" in text
        assert "aggregate 0.750000" in text
        kv = format_report_keyvalues(report)
        assert "aggregateFGCA=0.750000" in kv

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            build_report({})


class TestGridSearch:
    def test_recovers_on_grid_optimum(self):
        target = (0.3, 0.7)

        def objective(w: ModelWeights) -> float:
            return -((w.alpha_ref - target[0]) ** 2 + (w.alpha_sa - target[1]) ** 2)

        tuned, best, trace = grid_search_weights(objective)
        assert tuned.alpha_ref == pytest.approx(0.3, abs=1e-9)
        assert tuned.alpha_sa == pytest.approx(0.7, abs=1e-9)
        assert best == pytest.approx(0.0, abs=1e-12)

    def test_off_grid_optimum_within_final_step(self):
        target = (0.42, 0.58)

        def objective(w: ModelWeights) -> float:
            return -((w.alpha_ref - target[0]) ** 2 + (w.alpha_sa - target[1]) ** 2)

        tuned, _, trace = grid_search_weights(objective)
        final_step = 0.1 / 2 ** max(r for r, _, _ in trace)
        assert abs(tuned.alpha_ref - target[0]) <= final_step + 1e-12

    def test_simplex_respected_and_deterministic(self):
        def objective(w: ModelWeights) -> float:
            return w.alpha_sa  # maximized at the simplex corner

        tuned_a, _, trace_a = grid_search_weights(objective)
        tuned_b, _, trace_b = grid_search_weights(objective)
        assert tuned_a == tuned_b
        assert trace_a == trace_b
        assert tuned_a.alpha_sa == pytest.approx(1.0)
        for _, point, _ in trace_a:
            assert all(v >= -1e-9 for v in point)
            assert sum(point) == pytest.approx(1.0, abs=1e-9)

    def test_three_weight_search(self):
        def objective(w: ModelWeights) -> float:
            return -((w.alpha_ref - 0.2) ** 2 + (w.alpha_sa - 0.3) ** 2
                     + (w.alpha_tj - 0.5) ** 2)

        tuned, _, _ = grid_search_weights(
            objective, names=("alpha_ref", "alpha_sa", "alpha_tj")
        )
        assert tuned.alpha_tj == pytest.approx(0.5, abs=1e-9)

    def test_single_name_degenerate(self):
        tuned, best, trace = grid_search_weights(
            lambda w: 1.0, names=("alpha_ref",)
        )
        assert tuned.alpha_ref == 1.0
        assert len(trace) == 1

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            grid_search_weights(lambda w: 0.0, names=("w_opp",))
        with pytest.raises(ValueError):
            grid_search_weights(lambda w: 0.0, names=("alpha_ref", "alpha_ref"))

    @pytest.mark.parametrize("step", [0.0, -0.1, 1.5, math.nan, math.inf])
    def test_coarse_step_outside_unit_interval_rejected(self, step):
        calls = []
        with pytest.raises(ValueError, match=r"coarse_step must lie in \(0, 1\]"):
            grid_search_weights(lambda w: calls.append(w) or 0.0, coarse_step=step)
        assert not calls

    def test_coarse_step_of_one_scans_the_corners(self):
        _, _, trace = grid_search_weights(lambda w: w.alpha_sa, coarse_step=1.0)
        assert [point for _, point, _ in trace[:2]] == [(0.0, 1.0), (1.0, 0.0)]

    def test_coarse_grid_ends_at_the_corner(self):
        # 1 / 0.3 is not an integer: the grid is the lattice of thirds
        tuned, best, trace = grid_search_weights(lambda w: w.alpha_ref, coarse_step=0.3)
        assert tuned.alpha_ref == 1.0 and best == 1.0
        coarse = [point[0] for r, point, _ in trace if r == 0]
        assert coarse == [0.0, 1 / 3, 2 / 3, 1.0]

    def test_every_face_of_the_coarse_grid_holds_the_same_points(self):
        # step 0.075 is the lattice of thirteenths; no weight is the odd one out
        _, _, trace = grid_search_weights(lambda w: 0.0, names=ALPHA_NAMES, coarse_step=0.075)
        coarse = [point for r, point, _ in trace if r == 0]
        assert len(coarse) == 105
        assert [sum(point[k] == 0 for point in coarse) for k in range(3)] == [14, 14, 14]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3)))[1:])
    def test_name_order_only_permutes_the_points(self, order):
        target = (0.231, 0.327, 0.442)  # off every lattice, a unique optimum

        def objective(w: ModelWeights) -> float:
            return -(1.0 * (w.alpha_ref - target[0]) ** 2 + 1.7 * (w.alpha_sa - target[1]) ** 2
                     + 2.3 * (w.alpha_tj - target[2]) ** 2)

        def rounds(names):
            tuned, best, trace = grid_search_weights(objective, names=names, coarse_step=0.075)
            visited = {}
            for r, point, value in trace:
                by_name = dict(zip(names, point))
                visited.setdefault(r, set()).add((tuple(by_name[n] for n in ALPHA_NAMES), value))
            return tuned, best, visited

        assert rounds(tuple(ALPHA_NAMES[k] for k in order)) == rounds(ALPHA_NAMES)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_objective_everywhere_refused(self, value):
        calls = []
        with pytest.raises(ValueError, match=re.escape(
            f"objective is {value} at {{'alpha_ref': 0.0, 'alpha_sa': 1.0}}"
        )):
            grid_search_weights(lambda w: calls.append(w) or value)
        assert len(calls) == 1  # refused at the first point, scored once

    def test_one_nan_among_finite_points_refused(self):
        calls = []

        def objective(w: ModelWeights) -> float:
            calls.append(w)
            return math.nan if w.alpha_ref == 0.5 else w.alpha_ref

        with pytest.raises(ValueError, match=re.escape(
            "objective is nan at {'alpha_ref': 0.5, 'alpha_sa': 0.5}"
        )):
            grid_search_weights(objective)
        # the coarse round reached the point in order, each point scored once
        assert [w.alpha_ref for w in calls] == [i / 10 for i in range(6)]

    @pytest.mark.parametrize("anchor", [(24, 2), (1, 1, 24), (9, 9, 8)])
    def test_refinement_scans_the_lattice_neighbourhood(self, anchor):
        # every lattice point within 2 steps of the anchor in every
        # coordinate, the last one included, once each and in order
        n = sum(anchor)
        points = _lattice_points(n, len(anchor), anchor)
        near = itertools.product(*(range(max(0, a - 2), a + 3) for a in anchor))
        assert points == [p for p in near if sum(p) == n]
        assert anchor in points and len(set(points)) == len(points)


def mpmath_right_tail_p(a, b) -> float:
    """Independent oracle: numeric integration of the t density."""
    import mpmath as mp

    a = [mp.mpf(v) for v in a]
    b = [mp.mpf(v) for v in b]
    n, m = len(a), len(b)
    mean_a = sum(a) / n
    mean_b = sum(b) / m
    var_a = sum((v - mean_a) ** 2 for v in a) / (n - 1)
    var_b = sum((v - mean_b) ** 2 for v in b) / (m - 1)
    dof = n + m - 2
    pooled = ((n - 1) * var_a + (m - 1) * var_b) / dof
    t = (mean_a - mean_b) / mp.sqrt(pooled * (mp.mpf(1) / n + mp.mpf(1) / m))
    norm = mp.gamma((dof + 1) / mp.mpf(2)) / (
        mp.sqrt(dof * mp.pi) * mp.gamma(dof / mp.mpf(2))
    )
    pdf = lambda u: norm * (1 + u * u / dof) ** (-(dof + 1) / mp.mpf(2))
    return float(mp.quad(pdf, [t, mp.inf]))


class TestTTest:
    def test_identical_samples_half(self):
        assert right_tailed_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)

    def test_direction_of_tail(self):
        high = [5.0, 5.1, 4.9, 5.2]
        low = [4.0, 4.1, 3.9, 4.2]
        p = right_tailed_t_test(high, low)
        assert p < 0.01
        assert right_tailed_t_test(low, high) == pytest.approx(1.0 - p)

    def test_matches_quadrature_oracle(self):
        a = [5.1, 4.9, 5.0, 5.2, 4.8]
        b = [4.6, 4.8, 4.5, 4.9, 4.7]
        assert right_tailed_t_test(a, b) == pytest.approx(
            mpmath_right_tail_p(a, b), abs=1e-12
        )

    def test_degenerate_constant_samples(self):
        assert right_tailed_t_test([2.0, 2.0], [1.0, 1.0]) == 0.0
        assert right_tailed_t_test([1.0, 1.0], [2.0, 2.0]) == 1.0
        # equal constant samples: no difference, the value the formula gives at t = 0
        assert right_tailed_t_test([1.0, 1.0], [1.0, 1.0]) == 0.5
        assert right_tailed_t_test([1.0, 1.0], [1.0, 1.0]) == right_tailed_t_test(
            [0.5, 1.5], [0.5, 1.5]
        )

    @pytest.mark.parametrize("a, b", [([1.0, math.nan], [0.0, 1.0]),
                                      ([0.0, 1.0], [math.inf, 1.0])])
    def test_non_finite_samples_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            right_tailed_t_test(a, b)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            right_tailed_t_test([1.0], [1.0, 2.0])


class TestMakeSplit:
    def test_halves_disjoint_and_complete(self):
        ids = [f"img{i}" for i in range(11)]
        train, test = make_split(ids, seed=3)
        assert len(train) == 5
        assert len(test) == 6
        assert set(train) | set(test) == set(ids)
        assert not set(train) & set(test)

    def test_seed_controls_shuffle(self):
        ids = [f"img{i}" for i in range(8)]
        assert make_split(ids, seed=1) == make_split(ids, seed=1)
        assert make_split(ids, seed=1)[0] != make_split(ids, seed=2)[0]

    def test_duplicate_ids_refused_under_every_seed(self):
        for seed in range(6):
            with pytest.raises(ValueError, match="duplicate image ids"):
                make_split(["a", "a", "b", "c"], seed)

    def test_too_few_ids(self):
        with pytest.raises(ValueError):
            make_split(["only"], seed=0)
