"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``ACCEPTANCE NN name: PASS/FAIL`` line (visible
with ``pytest -s``) and then asserts. The final dataset regression is
optional: it runs only when ``FGO_BSDS_MANIFEST`` points at a converted
dataset manifest and skips cleanly otherwise.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fgo.config import PRESETS, RunConfig, apply_assignment, apply_preset
from fgo.cues import SAParams, TJParams, compute_sa_maps, detect_t_junctions
from fgo.evaluation import (
    FGGroundTruth,
    build_report,
    compute_fgca,
    grid_search_weights,
    load_ground_truth,
    right_tailed_t_test,
    score_directions,
)
from fgo.grid import correlate_stack, pool_resampled
from fgo.ownership import ModelWeights, winning_bo
from fgo.pipeline import (
    PipelineParams,
    finalize_components,
    prepare_components,
    run_model,
)
from fgo.stimuli import (
    annulus,
    isolated_square,
    overlapping_squares,
    shaded_edge,
)
from helpers import junction_label_maps


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# 1. brute-force oracles for the three load-bearing array operations
# ----------------------------------------------------------------------

def _oracle_correlate2d(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    rows, cols = arr.shape
    kh, kw = kernel.shape
    out = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for u in range(kh):
                rr = min(max(r + u - kh // 2, 0), rows - 1)
                for v in range(kw):
                    cc = min(max(c + v - kw // 2, 0), cols - 1)
                    acc += kernel[u, v] * arr[rr, cc]
            out[r, c] = acc
    return out


def _oracle_bilinear_sum(levels, rows: int, cols: int) -> np.ndarray:
    def coords(n_out, n_in):
        if n_out == 1:
            return [(n_in - 1) / 2.0]
        return [i * (n_in - 1) / (n_out - 1) for i in range(n_out)]

    total = np.zeros((rows, cols))
    for level in levels:
        h, w = level.shape
        for r, y in enumerate(coords(rows, h)):
            y0 = min(int(math.floor(y)), h - 1)
            y1 = min(y0 + 1, h - 1)
            fy = y - y0
            for c, x in enumerate(coords(cols, w)):
                x0 = min(int(math.floor(x)), w - 1)
                x1 = min(x0 + 1, w - 1)
                fx = x - x0
                total[r, c] += (
                    level[y0, x0] * (1 - fy) * (1 - fx)
                    + level[y0, x1] * (1 - fy) * fx
                    + level[y1, x0] * fy * (1 - fx)
                    + level[y1, x1] * fy * fx
                )
    return total


def _oracle_winning(stack: np.ndarray) -> np.ndarray:
    n_theta, _, rows, cols = stack.shape
    out = np.zeros_like(stack)
    for r in range(rows):
        for c in range(cols):
            best_t, best_mag = 0, -1.0
            for t in range(n_theta):
                mag = abs(stack[t, 0, r, c] - stack[t, 1, r, c])
                if mag > best_mag:
                    best_t, best_mag = t, mag
            delta = stack[best_t, 0, r, c] - stack[best_t, 1, r, c]
            if delta > 0:
                out[best_t, 0, r, c] = delta
            elif delta < 0:
                out[best_t, 1, r, c] = -delta
    return out


def test_01_oracle_equivalence():
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    worst = 0.0

    for _ in range(100):
        rows = int(rng.integers(6, 15))
        cols = int(rng.integers(6, 15))
        arr = rng.normal(size=(rows, cols))
        k = int(rng.choice([1, 3, 5]))
        kernel = rng.normal(size=(k, k))
        delta = np.abs(
            correlate_stack(arr, kernel) - _oracle_correlate2d(arr, kernel)
        ).max()
        worst = max(worst, delta)

    for _ in range(100):
        levels = [
            rng.normal(size=(int(rng.integers(1, 11)), int(rng.integers(1, 11))))
            for _ in range(int(rng.integers(1, 5)))
        ]
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        delta = np.abs(
            pool_resampled(levels, rows, cols, (1.0,) * len(levels))
            - _oracle_bilinear_sum(levels, rows, cols)
        ).max()
        worst = max(worst, delta)

    for i in range(100):
        stack = rng.normal(size=(8, 2, 6, 6))
        if i % 3 == 0:
            stack = np.round(stack, 1)  # provoke exact cross-orientation ties
        delta = np.abs(winning_bo([stack[:, 0] - stack[:, 1]])[0] - _oracle_winning(stack)).max()
        worst = max(worst, delta)

    elapsed = time.perf_counter() - started
    _report(
        1,
        "oracle equivalence",
        worst < 1e-9 and elapsed < 10.0,
        f"max |delta|={worst:.3g}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. contrast-polarity invariance of the intensity channel
# ----------------------------------------------------------------------

def test_02_polarity_invariance():
    params = PipelineParams(feature_color=0.0, feature_orientation=0.0)
    stim = isolated_square()
    bright = run_model(stim.image, params=params).final
    inverted = run_model(1.0 - stim.image, params=params).final
    rel = np.abs(bright - inverted).max() / np.abs(bright).max()
    _report(2, "polarity invariance", rel <= 1e-4, f"relative delta={rel:.3g}")


# ----------------------------------------------------------------------
# 3. convexity/surroundedness on the isolated square
# ----------------------------------------------------------------------

def test_03_square_ownership():
    stim = isolated_square()
    started = time.perf_counter()
    result = run_model(stim.image)
    elapsed = time.perf_counter() - started
    fgca = compute_fgca(result.final, load_ground_truth(stim.signed))
    _report(
        3,
        "square ownership",
        fgca.accuracy >= 0.90 and elapsed < 60.0,
        f"FGCA={fgca.accuracy:.4f}, {elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 4. T-junction detection, matching and rejection
# ----------------------------------------------------------------------

def test_04_t_junction_pipeline():
    stim = overlapping_squares()
    junctions = detect_t_junctions(stim.contours, stim.segments, TJParams())
    # contour ids 2 and 3 trace the occluding square's outline (outside
    # and inside the occluded square); segment 2 is the occluder
    ok = len(junctions) == 2 and all(
        j.matched
        and j.rejected == "none"
        and j.hat_by_area == j.hat_by_angle
        and set(j.hat_by_area) <= {2, 3}
        and j.figure_region == 2
        for j in junctions
    )

    y_contours, y_segments = junction_label_maps((90, 210, 330))
    y_verdicts = detect_t_junctions(y_contours, y_segments, TJParams())
    ok = ok and [j.rejected for j in y_verdicts] == ["yJunction"]

    arrow_contours, arrow_segments = junction_label_maps((0, 60, 120))
    arrow_verdicts = detect_t_junctions(arrow_contours, arrow_segments, TJParams())
    ok = ok and [j.rejected for j in arrow_verdicts] == ["arrowJunction"]

    _report(
        4,
        "t-junction pipeline",
        ok,
        f"{len(junctions)} matched junctions; Y and arrow rejected",
    )


# ----------------------------------------------------------------------
# 5. spectral anisotropy points into the shading-gradient side
# ----------------------------------------------------------------------

def test_05_sa_directionality():
    # ramp on the figure (upper) side only, meeting the ground level at
    # the boundary; orientation 0 is horizontal, side 1 points up
    stim = shaded_edge(ramp="away", gradient=0.5)
    sa = compute_sa_maps(stim.image, SAParams())
    edge_row = int(np.nonzero((stim.signed == -1).any(axis=1))[0][0])
    cols = np.arange(10, stim.image.shape[1] - 10)
    into_gradient = sa[0, 1, edge_row, cols]
    away = sa[0, 0, edge_row, cols]
    frac = float(np.mean(into_gradient > away))

    flat = shaded_edge(ramp="away", gradient=0.0)
    sa_flat = compute_sa_maps(flat.image, SAParams())
    symmetric = float(
        np.abs(sa_flat[0, 1, edge_row, cols] - sa_flat[0, 0, edge_row, cols]).max()
    )

    _report(
        5,
        "sa directionality",
        frac >= 0.95 and symmetric < 1e-6,
        f"gradient-side wins at {frac:.1%} of edge pixels; "
        f"flat-edge asymmetry {symmetric:.2g}",
    )


# ----------------------------------------------------------------------
# 6. cue-benefit ordering on the synthetic battery
# ----------------------------------------------------------------------

def _battery():
    return [
        ("square", isolated_square()),
        ("annulus", annulus()),
        ("shade-toward", shaded_edge(gradient=0.5)),
        ("shade-below", shaded_edge(figure="below", gradient=0.4, extent=12.0)),
        ("shade-away", shaded_edge(ramp="away", gradient=0.5)),
        ("ov-a", overlapping_squares()),
        (
            "ov-b",
            overlapping_squares(
                size=96,
                a_first=16,
                a_last=56,
                b_first=34,
                b_last=78,
                a_gray=0.30,
                b_gray=0.80,
            ),
        ),
        ("stripes-above", shaded_edge(base=0.5, gradient=0.0, texture_amp=0.2,
                                      texture_period=6.0)),
        ("stripes-below", shaded_edge(base=0.5, gradient=0.0, figure="below",
                                      texture_amp=0.2, texture_period=6.0)),
        ("stripes-coarse", shaded_edge(base=0.5, gradient=0.0, texture_amp=0.18,
                                       texture_period=5.0)),
    ]


def test_06_cue_benefit_ordering():
    totals = {name: [0.0, 0] for name in PRESETS}
    for _, stim in _battery():
        have_labels = stim.contours is not None
        prepared = prepare_components(
            stim.image,
            PipelineParams(),
            contours=stim.contours,
            segments=stim.segments,
            need_sa=True,
            need_tj=have_labels,
        )
        gt = load_ground_truth(stim.signed)
        for name, (ref, sa, tj) in PRESETS.items():
            # without label maps, finalize_components folds alpha_tj into alpha_ref
            weights = ModelWeights(alpha_ref=ref, alpha_sa=sa, alpha_tj=tj)
            fgca = compute_fgca(finalize_components(prepared, weights).final, gt)
            totals[name][0] += fgca.correct
            totals[name][1] += fgca.pixels

    agg = {name: correct / pixels for name, (correct, pixels) in totals.items()}
    ok = (
        agg["with-both"] >= agg["with-sa"] >= agg["reference"]
        and agg["with-both"] >= agg["with-tj"]
    )
    _report(
        6,
        "cue benefit ordering",
        ok,
        "FGCA " + " ".join(f"{name}={agg[name]:.4f}" for name in
                           ("reference", "with-sa", "with-tj", "with-both")),
    )


# ----------------------------------------------------------------------
# 7. chance calibration of the scoring rule
# ----------------------------------------------------------------------

def test_07_chance_calibration():
    rng = np.random.default_rng(0)
    n = 100_000
    truth_angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    gt = FGGroundTruth(
        x=np.zeros(n, dtype=np.int64),
        y=np.zeros(n, dtype=np.int64),
        nx=np.cos(truth_angles),
        ny=np.sin(truth_angles),
        shape=(1, 1),
    )
    decision_angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    directions = np.stack(
        [np.cos(decision_angles), np.sin(decision_angles)], axis=1
    )
    accuracy = float(
        score_directions(gt, directions, np.zeros(n, dtype=bool)).mean()
    )
    _report(
        7,
        "chance calibration",
        abs(accuracy - 0.5) <= 0.01,
        f"random-decision FGCA={accuracy:.4f} over {n} pixels",
    )


# ----------------------------------------------------------------------
# 8. multi-resolution grid search on the weight simplex
# ----------------------------------------------------------------------

def test_08_grid_search_recovery():
    target = (0.23, 0.33, 0.44)  # off the coarse grid, on the simplex

    def objective(w: ModelWeights) -> float:
        return -0.5 * (
            (w.alpha_ref - target[0]) ** 2
            + (w.alpha_sa - target[1]) ** 2
            + (w.alpha_tj - target[2]) ** 2
        )

    tuned, _, trace = grid_search_weights(
        objective,
        names=("alpha_ref", "alpha_sa", "alpha_tj"),
        coarse_step=0.1,
    )
    last_round = max(r for r, _, _ in trace)
    final_step = 0.1 / 2**last_round
    errors = (
        abs(tuned.alpha_ref - target[0]),
        abs(tuned.alpha_sa - target[1]),
        abs(tuned.alpha_tj - target[2]),
    )

    best_before, best_after = -np.inf, -np.inf
    for round_index in sorted({r for r, _, _ in trace}):
        round_max = max(v for r, _, v in trace if r == round_index)
        best_before = best_after
        best_after = max(best_after, round_max)
    last_improvement = best_after - best_before
    stopped_early = last_round < 12 and last_improvement < 0.005

    _report(
        8,
        "grid search recovery",
        max(errors) <= final_step + 1e-12 and stopped_early,
        f"errors={tuple(f'{e:.3f}' for e in errors)} step={final_step:.3f} "
        f"last improvement={last_improvement:.2g}",
    )


# ----------------------------------------------------------------------
# 9. right-tailed t-test against numerical integration
# ----------------------------------------------------------------------

def _quadrature_right_tail(a, b) -> float:
    """Independent reference: integrate the t density with mpmath."""
    import mpmath as mp

    a = [mp.mpf(repr(v)) for v in a]
    b = [mp.mpf(repr(v)) for v in b]
    n, m = len(a), len(b)
    mean_a, mean_b = sum(a) / n, sum(b) / m
    var_a = sum((v - mean_a) ** 2 for v in a) / (n - 1)
    var_b = sum((v - mean_b) ** 2 for v in b) / (m - 1)
    dof = n + m - 2
    pooled = ((n - 1) * var_a + (m - 1) * var_b) / dof
    t = (mean_a - mean_b) / mp.sqrt(pooled * (mp.mpf(1) / n + mp.mpf(1) / m))
    norm = mp.gamma((dof + 1) / mp.mpf(2)) / (
        mp.sqrt(dof * mp.pi) * mp.gamma(dof / mp.mpf(2))
    )
    density = lambda u: norm * (1 + u * u / dof) ** (-(dof + 1) / mp.mpf(2))
    return float(mp.quad(density, [t, mp.inf]))


def test_09_t_test():
    identical = [0.61, 0.58, 0.64, 0.59, 0.62]
    p_same = right_tailed_t_test(identical, identical)

    # classic two-group comparison fixture
    group_a = [42.1, 41.3, 42.4, 43.2, 41.8, 41.0, 41.8, 42.8, 42.3, 42.7]
    group_b = [42.7, 43.8, 42.5, 43.1, 44.0, 43.6, 43.3, 43.5, 41.7, 44.1]
    p_fixture = right_tailed_t_test(group_a, group_b)
    p_reference = _quadrature_right_tail(group_a, group_b)

    _report(
        9,
        "t-test",
        abs(p_same - 0.5) <= 0.02 and abs(p_fixture - p_reference) <= 1e-4,
        f"identical-samples p={p_same:.3f}; fixture p={p_fixture:.6f} "
        f"vs quadrature {p_reference:.6f}",
    )


# ----------------------------------------------------------------------
# 10. optional dataset regression (needs converted BSDS data)
# ----------------------------------------------------------------------

def test_10_dataset_regression():
    manifest_path = os.environ.get("FGO_BSDS_MANIFEST")
    if not manifest_path or not Path(manifest_path).is_file():
        print("ACCEPTANCE 10 dataset regression: SKIP (set FGO_BSDS_MANIFEST)")
        pytest.skip("dataset manifest not available")

    from fgo.cli import _score_dataset, parse_manifest

    entries = parse_manifest(manifest_path)

    def aggregate(config: RunConfig) -> float:
        (scores,) = _score_dataset(entries, config, [config.weights()], jobs=1)
        return build_report(scores).aggregate

    scores = {
        name: aggregate(apply_preset(RunConfig(), name))
        for name in ("reference", "with-sa", "with-both", "with-tj")
    }
    top2 = {
        name: aggregate(
            apply_preset(apply_assignment(RunConfig(), "topLayersOnly", "2"), name)
        )
        for name in ("with-sa", "with-tj")
    }
    ok = (
        0.54 <= scores["reference"] <= 0.63
        and scores["with-sa"] >= scores["reference"] + 0.02
        and scores["with-both"] > scores["with-sa"]
        and top2["with-sa"] <= scores["with-sa"]
        and top2["with-tj"] <= scores["with-tj"]
    )
    _report(
        10,
        "dataset regression",
        ok,
        " ".join(f"{k}={v:.4f}" for k, v in scores.items())
        + f" top2sa={top2['with-sa']:.4f} top2tj={top2['with-tj']:.4f}",
    )
