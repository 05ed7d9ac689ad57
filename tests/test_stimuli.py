import numpy as np
import pytest

from fgo.cues import detect_t_junctions
from fgo.stimuli import (
    annulus,
    generate,
    GENERATORS,
    isolated_square,
    overlapping_squares,
    shaded_edge,
)
from helpers import junction_label_maps


class TestIsolatedSquare:
    def test_image_levels(self):
        stim = isolated_square()
        assert stim.image.shape == (64, 64)
        assert stim.image[0, 0] == 0.25
        assert stim.image[30, 30] == 0.75
        assert set(np.unique(stim.image)) == {0.25, 0.75}

    def test_signed_ring_counts(self):
        stim = isolated_square()
        assert int((stim.signed == -1).sum()) == 92
        assert int((stim.signed == 1).sum()) == 84

    def test_boundary_on_square_rim(self):
        stim = isolated_square(first=20, last=43)
        ys, xs = np.nonzero(stim.signed == -1)
        assert ys.min() == 20 and ys.max() == 43
        assert xs.min() == 20 and xs.max() == 43
        # every -1 touches a +1 (the figure side marker)
        plus = stim.signed == 1
        padded = np.pad(plus, 1)
        for y, x in zip(ys, xs):
            assert padded[y : y + 3, x : x + 3].any()

    def test_no_label_maps(self):
        stim = isolated_square()
        assert stim.contours is None and stim.segments is None

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            isolated_square(size=16)

    def test_square_that_does_not_fit_rejected(self):
        with pytest.raises(ValueError, match=r"^square \[20, 22\] does not fit in 64 px$"):
            isolated_square(size=64, first=20, last=22)


class TestOverlappingSquares:
    def test_label_maps_cover_shapes(self):
        stim = overlapping_squares()
        assert set(np.unique(stim.segments)) == {1, 2, 3}
        assert set(np.unique(stim.contours)) == {0, 1, 2, 3}
        # occluder's region and contours never overlap the occluded label
        b_mask = stim.segments == 2
        assert not ((stim.contours == 1) & b_mask).any()

    def test_junction_locations(self):
        stim = overlapping_squares(
            size=96, a_first=20, a_last=60, b_first=36, b_last=76
        )
        # the detector finds both occlusion corners on the label maps, and
        # matches them
        found = detect_t_junctions(stim.contours, stim.segments)
        assert [(j.row, j.col) for j in found] == [(36, 60), (60, 36)]
        assert all(j.matched for j in found)

    def test_occluder_over_occluded(self):
        stim = overlapping_squares(a_gray=0.35, b_gray=0.85)
        assert stim.image[40, 40] == 0.85  # overlap area shows B
        assert stim.image[25, 25] == 0.35

    def test_gradient_shades_occluder(self):
        flat = overlapping_squares(gradient=0.0)
        shaded = overlapping_squares(gradient=0.1)
        b_top = (36, 50)
        b_bottom = (74, 50)
        assert shaded.image[b_top] > flat.image[b_top]
        assert shaded.image[b_bottom] == pytest.approx(flat.image[b_bottom])

    def test_signed_matches_visible_rims(self):
        stim = overlapping_squares()
        minus = stim.signed == -1
        # boundary cells sit exactly on labeled contours
        assert (stim.contours[minus] > 0).all()

    def test_signed_ring_counts(self):
        # the chains are disjoint by construction: one painted over
        # another would change these counts
        stim = overlapping_squares()
        assert int((stim.signed == -1).sum()) == 271
        assert int((stim.signed == 1).sum()) == 257

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            overlapping_squares(a_first=40, b_first=30)
        with pytest.raises(ValueError):
            overlapping_squares(size=96, b_last=95)

    def test_negative_gradient_rejected(self):
        with pytest.raises(ValueError, match="^gradient must be non-negative, got -0.1$"):
            overlapping_squares(gradient=-0.1)


class TestShadedEdge:
    def test_zero_gradient_constant(self):
        stim = shaded_edge(gradient=0.0)
        assert np.ptp(stim.image) == 0.0

    def test_ramp_toward_peaks_at_edge(self):
        stim = shaded_edge(base=0.4, gradient=0.5, extent=16.0)
        col = stim.image[:, 32]
        assert col[31] == pytest.approx(0.9)  # figure row hugging the edge
        assert col[10] < col[31]
        assert col[40] == pytest.approx(0.4)  # ground flat

    def test_ramp_away_grows_with_depth(self):
        stim = shaded_edge(base=0.4, gradient=0.5, extent=16.0, ramp="away")
        col = stim.image[:, 32]
        assert col[31] == pytest.approx(0.4)
        assert col[10] > col[25]

    def test_independent_ground_level(self):
        stim = shaded_edge(base=0.4, gradient=0.2, ground=0.7)
        assert stim.image[40, 5] == pytest.approx(0.7)

    def test_texture_only_on_figure_side(self):
        stim = shaded_edge(base=0.5, gradient=0.0, texture_amp=0.2)
        assert np.ptp(stim.image[:30, 0]) > 0.3
        assert np.ptp(stim.image[33:, 0]) == 0.0

    def test_signed_rows_above_and_below(self):
        above = shaded_edge(figure="above")
        assert (above.signed[31] == -1).all() and (above.signed[30] == 1).all()
        below = shaded_edge(figure="below")
        assert (below.signed[32] == -1).all() and (below.signed[33] == 1).all()

    def test_labels_split_halves(self):
        stim = shaded_edge(figure="below")
        assert (stim.contours[32] == 1).all()
        assert (stim.segments[:32] == 2).all()
        assert (stim.segments[33:] == 1).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            shaded_edge(figure="left")
        with pytest.raises(ValueError):
            shaded_edge(ramp="sideways")
        with pytest.raises(ValueError):
            shaded_edge(extent=0.0)
        with pytest.raises(ValueError):
            shaded_edge(edge_row=2)


class TestAnnulus:
    def test_boundary_only_on_outer_rim(self):
        stim = annulus(size=64)
        ys, xs = np.nonzero(stim.signed == -1)
        center = (64 - 1) / 2.0
        radii = np.hypot(ys - center, xs - center)
        r_outer = 0.32 * 64
        assert radii.min() > r_outer - 2.5
        assert radii.max() < r_outer + 1.5

    def test_signed_ring_counts(self):
        # the +1 cells are the ring cells beside the -1 chain, not on it
        stim = annulus()
        assert int((stim.signed == -1).sum()) == 156
        assert int((stim.signed == 1).sum()) == 148

    def test_plus_cells_inside_ring(self):
        stim = annulus()
        ys, xs = np.nonzero(stim.signed == 1)
        assert (stim.image[ys, xs] == 0.75).all()

    def test_ring_thickness_validation(self):
        with pytest.raises(ValueError):
            annulus(r_outer=10.0, r_inner=9.5)
        with pytest.raises(ValueError):
            annulus(r_outer=40.0)  # leaves the 64-px frame


class TestJunctionLabelMaps:
    def test_three_rays_three_contours(self):
        contours, segments = junction_label_maps((0.0, 90.0, 180.0))
        assert set(np.unique(contours)) == {0, 1, 2, 3}
        assert set(np.unique(segments)) == {1, 2, 3}

    def test_rays_land_in_expected_direction(self):
        contours, _ = junction_label_maps((0.0, 90.0, 180.0), size=41, ray_len=14)
        mid = 20
        assert contours[mid, mid + 5] == 1  # 0 degrees: +x
        assert contours[mid + 5, mid] == 2  # 90 degrees: +y (down)
        assert contours[mid, mid - 5] == 3


class TestGenerate:
    def test_kinds_registered(self):
        assert set(GENERATORS) == {
            "isolated-square",
            "overlapping-squares",
            "shaded-edge",
            "annulus",
        }

    def test_dispatch_with_params(self):
        stim = generate("shaded-edge", gradient=0.25)
        assert stim.image.max() == pytest.approx(0.65)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("moebius-strip")
