import re
from dataclasses import fields, is_dataclass

import pytest

from fgo.config import (
    _PARAM_KEYS,
    PRESETS,
    RunConfig,
    apply_assignment,
    apply_lines,
    apply_preset,
    key_name,
    load_config,
    parse_config_text,
)
from fgo.cues import SAParams, TJParams
from fgo.filters import DoGParams, GaborParams
from fgo.grid import SQRT2
from fgo.ownership import ModelWeights
from fgo.pipeline import PipelineParams

# every key of the flat format but preset and seed, in snake_case, with
# a valid value other than its default
PIPELINE_KEYS = {
    "gamma": "0.6", "sigma": "2.5", "omega": "1.4",
    "sigma_in": "0.8", "sigma_out": "2.4",
    "sigma1": "3.0", "gamma1": "0.7", "omega1": "0.7",
    "r0": "2.5",
    "w_opp": "0.8",
    "feature_color": "0.1", "feature_intensity": "0.2", "feature_orientation": "0.3",
    "top_layers_only": "3",
    "n_scales": "6", "pyramid_factor": "2",
    "sa_min_size": "7", "sa_max_size": "21", "sa_size_step": "4", "sa_gamma": "0.9",
    "sa_sigma_factor": "0.5", "sa_n_lobes_even": "3", "sa_n_lobes_odd": "6",
    "tj_area_mask_radius": "5", "tj_angle_track_length": "6", "tj_trace_search_radius": "4",
    "tj_influence_radius": "12", "tj_probe_min": "2", "tj_probe_max": "4",
    "tj_orientation_fit_radius": "2", "tj_y_sector_center": "110",
    "tj_y_sector_halfwidth": "12", "tj_arrow_sector_threshold": "170",
}
WEIGHT_KEYS = {"alpha_ref": "0.2", "alpha_sa": "0.3", "alpha_tj": "0.5"}
PARAMS = PipelineParams(
    n_scales=6,
    pyramid_factor=2.0,
    gabor=GaborParams(sigma=2.5, gamma=0.6, omega=1.4),
    dog=DoGParams(sigma_in=0.8, sigma_out=2.4),
    oriented_cs=GaborParams(sigma=3.0, gamma=0.7, omega=0.7),
    ring_radius=2.5,
    sa=SAParams(7, 21, 4, 0.9, 0.5, 3, 6),
    tj=TJParams(5, 6, 4, 12, 2, 4, 2, 110.0, 12.0, 170.0),
    w_opp=0.8,
    feature_color=0.1,
    feature_intensity=0.2,
    feature_orientation=0.3,
    top_layers_only=3,
)
WEIGHTS = ModelWeights(0.2, 0.3, 0.5)


def camel(key: str) -> str:
    return re.sub(r"_([a-z])", lambda m: m.group(1).upper(), key)


def leaves(obj, path=()):
    """``(path, value)`` of every field below ``obj`` that is not itself
    a dataclass."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaves(value, path + (f.name,))
        else:
            yield path + (f.name,), value


class TestContract:
    def test_cue_blocks_are_covered(self):
        for prefix, cls in (("sa_", SAParams), ("tj_", TJParams)):
            assert {prefix + f.name for f in fields(cls)} <= set(PIPELINE_KEYS)

    @pytest.mark.parametrize("spell", [str, camel], ids=["snake", "camel"])
    def test_every_key_builds_the_library_objects(self, spell):
        keys = {**PIPELINE_KEYS, **WEIGHT_KEYS}
        text = "".join(f"{spell(key)} = {value}\n" for key, value in keys.items())
        cfg = parse_config_text(text + "seed = 7\n")
        assert cfg.params == PARAMS
        assert cfg.weights() == WEIGHTS
        assert cfg.seed == 7
        cfg = parse_config_text("preset = with-both\n" + text.replace("alpha", "# alpha"))
        assert cfg.weights() == ModelWeights(0.05, 0.15, 0.80)
        assert cfg.params == PARAMS

    def test_every_leaf_parameter_has_a_key(self):
        # a field no key sets is a knob nobody can turn
        default = dict(leaves(PipelineParams()))
        covered = set()
        for key, value in PIPELINE_KEYS.items():
            params = apply_assignment(RunConfig(), key, value).params
            covered |= {path for path, v in leaves(params) if v != default[path]}
        assert set(default) == covered

    def test_every_leaf_field_has_exactly_one_key(self):
        paths = [path for path, _ in leaves(PipelineParams())]
        assert sorted(_PARAM_KEYS.values()) == sorted(paths)

    def test_defaults_are_the_library_defaults(self):
        assert RunConfig().params == PipelineParams()
        assert RunConfig().weights() == ModelWeights()

    @pytest.mark.parametrize("key", ["theta", "size", "normalization", "gabor",
                                     "feature_weights", "sa", "tj_", "sa_bogus"])
    def test_fields_without_a_key_refused(self, key):
        with pytest.raises(ValueError, match="unknown config key"):
            apply_assignment(RunConfig(), key, "1")

    @pytest.mark.parametrize("spelling", ["alphaRef", "alpha_ref", "ALPHA_REF", "alpharef",
                                          "AlphaRef", " alpha_Ref "])
    def test_any_case_and_underscores_name_one_key(self, spelling):
        assert key_name(spelling) == "alpha_ref"

    def test_alpha_triple_set_one_line_at_a_time(self):
        cfg = parse_config_text("alphaRef = 0.35\nalphaSA = 0.65\n")
        assert cfg.weights() == ModelWeights(0.35, 0.65, 0.0)
        with pytest.raises(ValueError, match="sum to 1"):
            parse_config_text("alphaRef = 0.35\n").weights()

    @pytest.mark.parametrize("line, limit", [
        ("pyramidFactor = 0", r"line 1: pyramid_factor must be sqrt\(2\) or 2"),
        ("sa_sizeStep = 0", "line 1: size_step must be even and >= 2"),
        ("r0 = -1", "line 1: r0 must be positive"),
        ("sigma = nan", "line 1: expected a finite number, got 'nan'"),
        ("wOpp = inf", "line 1: expected a finite number, got 'inf'"),
        ("featureColor = -inf", "line 1: expected a finite number, got '-inf'"),
        ("wOpp = -1", "line 1: w_opp must be non-negative, got -1.0"),
        ("featureOrientation = -0.5", r"line 1: feature weights must be non-negative"),
        ("topLayersOnly = 0", r"line 1: top_layers_only must be None or >= 1, got 0"),
        ("seed = -1", "line 1: seed must be non-negative, got -1"),
        ("sa_nLobesEven = 0", "line 1: n_lobes_even must be >= 1, got 0"),
        ("sa_nLobesOdd = 0", "line 1: n_lobes_odd must be >= 1, got 0"),
        ("tj_areaMaskRadius = -1", "line 1: area_mask_radius must be >= 0, got -1"),
        ("tj_traceSearchRadius = -1", "line 1: trace_search_radius must be >= 0, got -1"),
        ("tjInfluenceRadius = -3", "line 1: influence_radius must be >= 0, got -3"),
        ("tj_orientationFitRadius = -1", "line 1: orientation_fit_radius must be >= 0, got -1"),
        ("tj_ySectorHalfwidth = -1", r"line 1: y_sector_halfwidth must lie in \[0, 360\] degrees"),
        ("tj_arrowSectorThreshold = 400", r"arrow_sector_threshold must lie in \[0, 360\] degrees"),
    ])
    def test_values_checked_when_set(self, line, limit):
        with pytest.raises(ValueError, match=limit):
            parse_config_text(line)


class TestDefaults:
    def test_default_weights_are_reference(self):
        w = RunConfig().weights()
        assert (w.alpha_ref, w.alpha_sa, w.alpha_tj) == (1.0, 0.0, 0.0)

    def test_default_pipeline_params(self):
        p = RunConfig().params
        assert p.n_scales == 10
        assert p.pyramid_factor == SQRT2
        assert p.gabor.sigma == 2.24
        assert p.dog.sigma_in == 0.90
        assert p.ring_radius == 2.0
        assert p.w_opp == 1.0
        assert (p.feature_color, p.feature_intensity, p.feature_orientation) == (1.0, 1.0, 1.0)
        assert p.top_layers_only is None
        assert (p.oriented_cs.sigma, p.oriented_cs.gamma, p.oriented_cs.omega) == (3.2, 0.8, 0.7854)

    def test_preset_table(self):
        assert set(PRESETS) == {"reference", "with-sa", "with-tj", "with-both"}
        for triple in PRESETS.values():
            assert sum(triple) == pytest.approx(1.0)

    def test_apply_preset(self):
        w = apply_preset(RunConfig(), "with-both").weights()
        assert (w.alpha_ref, w.alpha_sa, w.alpha_tj) == (0.05, 0.15, 0.80)
        with pytest.raises(ValueError):
            apply_preset(RunConfig(), "nope")


class TestAssignments:
    def test_snake_and_camel_spell_same_key(self):
        a = apply_assignment(RunConfig(), "alpha_sa", "0.65")
        b = apply_assignment(RunConfig(), "alphaSa", "0.65")
        assert a == b
        assert a.weight_keys == {"alpha_sa": 0.65}

    def test_top_layers_only_optional_int(self):
        cfg = apply_assignment(RunConfig(), "topLayersOnly", "2")
        assert cfg.params.top_layers_only == 2
        cfg = apply_assignment(cfg, "topLayersOnly", "none")
        assert cfg.params.top_layers_only is None

    def test_int_fields_coerced(self):
        cfg = apply_assignment(RunConfig(), "nScales", "6")
        assert cfg.params.n_scales == 6 and isinstance(cfg.params.n_scales, int)

    def test_sa_prefix_routes_to_nested_block(self):
        cfg = apply_assignment(RunConfig(), "sa_min_size", "11")
        assert cfg.params.sa.min_size == 11
        assert cfg.params.sa.max_size == RunConfig().params.sa.max_size

    def test_tj_prefix_routes_to_nested_block(self):
        cfg = apply_assignment(RunConfig(), "tjInfluenceRadius", "9")
        assert cfg.params.tj.influence_radius == 9

    def test_preset_key(self):
        w = apply_assignment(RunConfig(), "preset", "with-sa").weights()
        assert (w.alpha_ref, w.alpha_sa) == (0.35, 0.65)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            apply_assignment(RunConfig(), "bogus", "1")
        with pytest.raises(ValueError):
            apply_assignment(RunConfig(), "sa_bogus", "1")
        with pytest.raises(ValueError):
            apply_assignment(RunConfig(), "sa", "1")
        # candidates chain within 2 px; the merge radius key was never read
        with pytest.raises(ValueError, match="^--set tjCandidateMergeRadius=3: unknown config key"):
            apply_lines(RunConfig(), ["tjCandidateMergeRadius=3"], "--set {line}")

    def test_invalid_value_surfaces(self):
        with pytest.raises(ValueError):
            apply_assignment(RunConfig(), "nScales", "many")


class TestFiles:
    def test_parse_with_comments_and_blanks(self):
        cfg = parse_config_text(
            """
            # weights
            preset = with-both
            wOpp = 0.9   # inline comment
            nScales = 8

            sa_gamma = 1.0
            """
        )
        assert cfg.weights().alpha_tj == 0.80
        assert cfg.params.w_opp == 0.9
        assert cfg.params.n_scales == 8
        assert cfg.params.sa.gamma == 1.0

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("alphaRef = 1.0\nnot a pair\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_config_text("\n\nbogus = 1\n")

    def test_later_lines_win(self):
        cfg = parse_config_text("nScales = 4\nnScales = 7\n")
        assert cfg.params.n_scales == 7

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = reference\nseed = 42\n")
        cfg = load_config(path)
        assert cfg.weights().alpha_ref == 1.0
        assert cfg.seed == 42

    def test_base_config_extended(self):
        base = apply_preset(RunConfig(), "with-sa")
        cfg = apply_lines(base, ["nScales = 5"])
        assert cfg.weights().alpha_sa == 0.65 and cfg.params.n_scales == 5

