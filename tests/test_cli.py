import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fgo
from fgo.channels import RGBImage
from fgo import cli
from fgo.cli import main, parse_manifest
from fgo.config import RunConfig, apply_assignment, apply_lines, apply_preset
from fgo.evaluation import (
    build_report,
    compute_fgca,
    format_report_keyvalues,
    format_report_text,
    grid_search_weights,
    load_ground_truth,
    prepare_scoring,
    score_weights,
)
from fgo.io import read_lm1, read_pgm, read_ppm, read_signed_map, write_lm1, write_pgm
from fgo.ownership import ModelWeights
from fgo.pipeline import finalize_components, prepare_components

FAST = ["--set", "nScales=4"]


def cli_import_loads(module: str) -> bool:
    env = dict(os.environ, PYTHONPATH=str(Path(fgo.__file__).parents[1]))
    code = f"import sys, fgo.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip() == "True"


def test_cli_import_leaves_scipy_signal_out():
    # scipy.signal pulls in scipy.stats, about a second of every start
    assert not cli_import_loads("scipy.signal")


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.sparse.csgraph"])
def test_cli_import_leaves_slow_scipy_modules_out(module):
    # about 0.17 s and 0.08 s more on every start, against a start of 0.4-0.8 s
    assert not cli_import_loads(module)


def synth(tmp_path, kind, name, extra=()):
    out = tmp_path / name
    assert main(["synth", kind, "--out", str(out), *extra]) == 0
    return out


def write_manifest(path, rows):
    path.write_text("".join(f"{row}\n" for row in rows))
    return path


@pytest.fixture()
def square_dir(tmp_path):
    return synth(tmp_path, "isolated-square", "square", ("--size", "48"))


@pytest.fixture()
def overlap_dir(tmp_path):
    return synth(tmp_path, "overlapping-squares", "overlap")


class TestSynth:
    def test_square_writes_image_and_gt(self, square_dir):
        assert sorted(p.name for p in square_dir.iterdir()) == ["gt.lm1", "image.ppm"]
        r, g, b = read_ppm(square_dir / "image.ppm")
        assert r.shape == (48, 48)
        np.testing.assert_array_equal(r, g)

    def test_overlap_writes_labels(self, overlap_dir):
        names = sorted(p.name for p in overlap_dir.iterdir())
        assert names == ["contours.lm1", "gt.lm1", "image.ppm", "segments.lm1"]

    def test_shaded_edge_has_labels_and_gradient_knob(self, tmp_path):
        out = synth(tmp_path, "shaded-edge", "shade", ("--gradient", "0.3"))
        names = sorted(p.name for p in out.iterdir())
        assert names == ["contours.lm1", "gt.lm1", "image.ppm", "segments.lm1"]

    def test_annulus_radius_knob(self, tmp_path):
        out = synth(tmp_path, "annulus", "ring", ("--radius", "12"))
        assert (out / "gt.lm1").exists()

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "blob", "--out", str(tmp_path / "x")])


class TestRun:
    def test_plain_run_outputs(self, square_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["run", "--image", str(square_dir / "image.ppm"), "--out", str(out), *FAST]
        )
        assert code == 0
        fm1s = sorted(out.glob("final_t*_s*.fm1"))
        assert len(fm1s) == 16
        assert (out / "direction.pgm").exists()
        assert not (out / "junctions.txt").exists()
        assert "wrote 17 files" in capsys.readouterr().out

    def test_gt_adds_fgca_and_correctness(self, square_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--image", str(square_dir / "image.ppm"),
                "--gt", str(square_dir / "gt.lm1"),
                "--out", str(out),
                *FAST,
            ]
        )
        assert code == 0
        assert "fgca=" in capsys.readouterr().out
        vis = read_pgm(out / "correctness.pgm")
        assert vis.shape == (48, 48)
        assert set(np.unique(vis)) <= {0, 128, 192, 255}

    def test_gt_of_another_shape_refused_before_any_output(self, square_dir, tmp_path, capsys):
        # the 96-px square's records happen to lie inside the 48x48 map,
        # so scoring them would print an FGCA of the wrong image
        wide = synth(tmp_path, "isolated-square", "wide", ("--size", "96"))
        out = tmp_path / "run"
        code = main(
            ["run", "--image", str(square_dir / "image.ppm"), "--gt", str(wide / "gt.lm1"),
             "--out", str(out), *FAST]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "error: the ground-truth map is 96x96 but the image is 48x48" in captured.err
        assert "fgca=" not in captured.out
        assert not out.exists()

    def test_gt_without_records_refused_before_any_work(
        self, square_dir, tmp_path, capsys, monkeypatch
    ):
        # an all-zero truth has no boundary record, so no FGCA can be printed
        empty = tmp_path / "empty.lm1"
        write_lm1(empty, np.zeros((48, 48), dtype=np.int64))

        def run(*args, **kwargs):
            raise AssertionError("the model was run")

        monkeypatch.setattr(cli, "run_model", run)
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="signed map has no figure-ground interface"):
            code = main(
                ["run", "--image", str(square_dir / "image.ppm"), "--gt", str(empty),
                 "--out", str(out), *FAST]
            )
        assert code == 1
        assert capsys.readouterr().err == "error: no usable ground truth records\n"
        assert not out.exists()

    def test_labels_add_junprecords(self, overlap_dir, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--image", str(overlap_dir / "image.ppm"),
                "--contours", str(overlap_dir / "contours.lm1"),
                "--segments", str(overlap_dir / "segments.lm1"),
                "--weights", "0.2,0,0.8",
                "--out", str(out),
                *FAST,
            ]
        )
        assert code == 0
        junctions = (out / "junctions.txt").read_text().strip().splitlines()
        assert len(junctions) == 2

    def test_deterministic_outputs(self, square_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["run", "--image", str(square_dir / "image.ppm"), "--out", str(out), *FAST]
            ) == 0
            outs.append(out)
        for fm1 in sorted(outs[0].glob("*.fm1")):
            assert fm1.read_bytes() == (outs[1] / fm1.name).read_bytes()

    def test_tj_weight_without_labels_falls_back(self, square_dir, tmp_path, caplog):
        out = tmp_path / "run"
        code = main(
            [
                "run",
                "--image", str(square_dir / "image.ppm"),
                "--weights", "0.3,0,0.7",
                "--out", str(out),
                *FAST,
            ]
        )
        assert code == 0
        assert (out / "direction.pgm").exists()

    def test_contours_without_segments_fails(self, overlap_dir, tmp_path, capsys):
        code = main(
            [
                "run",
                "--image", str(overlap_dir / "image.ppm"),
                "--contours", str(overlap_dir / "contours.lm1"),
                "--out", str(tmp_path / "run"),
                *FAST,
            ]
        )
        assert code == 1
        assert "error: contour and segment maps" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_image_fails(self, tmp_path, capsys):
        code = main(
            ["run", "--image", str(tmp_path / "nope.ppm"), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_bad_set_key_fails(self, square_dir, tmp_path, capsys):
        code = main(
            [
                "run",
                "--image", str(square_dir / "image.ppm"),
                "--out", str(tmp_path / "o"),
                "--set", "bogus=1",
            ]
        )
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, limit", [
        ("pyramidFactor=0", "pyramid_factor must be sqrt(2) or 2, got 0.0"),
        ("pyramidFactor=1.5", "pyramid_factor must be sqrt(2) or 2, got 1.5"),
        ("sa_sizeStep=0", "size_step must be even and >= 2, got 0"),
        ("ringForm=printed", "unknown config key 'ringForm'"),
        ("r0=-1", "r0 must be positive, got -1.0"),
    ])
    def test_bad_setting_refused_before_any_output(
        self, square_dir, tmp_path, capsys, setting, limit
    ):
        out = tmp_path / "o"
        code = main(
            ["run", "--image", str(square_dir / "image.ppm"), "--out", str(out),
             "--set", setting]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: --set {setting}: {limit}\n"
        assert not out.exists()

    def test_pgm_image_refused(self, tmp_path, capsys):
        # PGM is an output format only: a gray image comes in as PPM
        image = tmp_path / "gray.pgm"
        write_pgm(image, np.full((48, 48), 128))
        out = tmp_path / "o"
        assert main(["run", "--image", str(image), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unsupported image format '.pgm' (want .ppm)\n"
        assert not out.exists()

    def test_bad_weight_triple_fails(self, square_dir, tmp_path, capsys):
        code = main(
            [
                "run",
                "--image", str(square_dir / "image.ppm"),
                "--out", str(tmp_path / "o"),
                "--weights", "0.5,0.5",
            ]
        )
        assert code == 1


@pytest.fixture()
def dataset(tmp_path):
    a = synth(tmp_path, "isolated-square", "a", ("--size", "48"))
    b = synth(tmp_path, "shaded-edge", "b", ("--size", "48"))
    manifest = write_manifest(
        tmp_path / "data.txt",
        [
            "# id image gt1 gt2 [contours segments]",
            "sq a/image.ppm a/gt.lm1 -",
            "sh b/image.ppm b/gt.lm1 - b/contours.lm1 b/segments.lm1",
        ],
    )
    return manifest


class TestManifest:
    def test_paths_resolve_relative(self, dataset):
        entries = parse_manifest(dataset)
        assert [e.image_id for e in entries] == ["sq", "sh"]
        assert entries[0].contours is None
        assert entries[1].contours.endswith("contours.lm1")
        assert len(entries[0].gts) == 1

    def test_duplicate_ids_rejected(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.txt", ["x i.ppm g.lm1 -", "x i.ppm g.lm1 -"]
        )
        with pytest.raises(ValueError):
            parse_manifest(manifest)

    def test_bad_field_count_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt", ["x i.ppm g.lm1"])
        with pytest.raises(ValueError):
            parse_manifest(manifest)

    def test_gt_required(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt", ["x i.ppm - -"])
        with pytest.raises(ValueError):
            parse_manifest(manifest)

    def test_image_required(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt", ["# header", "x - g.lm1 -"])
        with pytest.raises(ValueError, match=r"m\.txt:2: no image given"):
            parse_manifest(manifest)


class TestEval:
    def test_single_preset_report(self, dataset, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--manifest", str(dataset), "--out", str(out),
             "--preset", "reference", *FAST]
        )
        assert code == 0
        assert (out / "report.txt").exists()
        kv = (out / "report.kv").read_text()
        assert "aggregateFGCA=" in kv
        assert "images=2" in kv
        assert "aggregate=" in capsys.readouterr().out

    def test_compare_writes_p_value(self, dataset, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--manifest", str(dataset), "--out", str(out),
             "--compare", "reference,with-sa", *FAST]
        )
        assert code == 0
        for stem in ("report_reference", "report_with-sa"):
            assert (out / f"{stem}.txt").exists()
            assert (out / f"{stem}.kv").exists()
        compare = (out / "compare.kv").read_text()
        assert "pValue=" in compare
        assert "presetA=reference" in compare

    def test_parallel_jobs_match_serial(self, dataset, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert main(
                ["eval", "--manifest", str(dataset), "--out", str(out),
                 "--jobs", jobs, *FAST]
            ) == 0
        assert (serial / "report.txt").read_text() == (parallel / "report.txt").read_text()

    @pytest.mark.parametrize("jobs, workers", [("1", []), ("2", [2]), ("64", [2])])
    def test_pool_never_outnumbers_the_rows(self, dataset, tmp_path, monkeypatch, jobs, workers):
        started = []

        class RecordingPool:
            """Records its size and maps in this process: no worker starts."""

            def __init__(self, max_workers=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "eval"
        assert main(
            ["eval", "--manifest", str(dataset), "--out", str(out), "--jobs", jobs, *FAST]
        ) == 0
        assert started == workers  # the manifest has two rows
        assert "images=2" in (out / "report.kv").read_text()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, dataset, tmp_path, capsys, jobs):
        out = tmp_path / "eval"
        code = main(["eval", "--manifest", str(dataset), "--out", str(out), "--jobs", jobs])
        assert code == 1
        assert f"error: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_broken_row_skipped(self, dataset, tmp_path, capsys, jobs):
        rows = dataset.read_text().splitlines()
        rows.append("ghost missing.ppm missing.lm1 -")
        manifest = write_manifest(tmp_path / "broken.txt", rows)
        out = tmp_path / "eval"
        code = main(
            ["eval", "--manifest", str(manifest), "--out", str(out), "--jobs", jobs, *FAST]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped ghost" in captured.err
        assert "images=2" in (out / "report.kv").read_text()

    def test_row_with_truth_outside_the_image_skipped(self, dataset, tmp_path, capsys):
        # a 96-px scene's truth on a 48x48 image
        wide = synth(tmp_path, "overlapping-squares", "wide")
        rows = dataset.read_text().splitlines()
        rows.append(f"wide a/image.ppm {wide / 'gt.lm1'} -")
        manifest = write_manifest(tmp_path / "wide.txt", rows)
        out = tmp_path / "eval"
        code = main(["eval", "--manifest", str(manifest), "--out", str(out), *FAST])
        assert code == 0
        assert re.search(
            r"skipped wide: the ground-truth map is 96x96 but the image is 48x48",
            capsys.readouterr().err,
        )
        assert "images=2" in (out / "report.kv").read_text()

    @pytest.mark.parametrize("command", [
        ["eval", "--jobs", "1"], ["eval", "--jobs", "2"], ["tune", "--coarse-step", "0.5"],
    ], ids=["eval-serial", "eval-pool", "tune"])
    def test_fault_in_a_row_is_not_skipped(self, dataset, tmp_path, monkeypatch, capsys, command):
        # only refusals (OSError, ValueError) skip a row; a fault propagates
        def fault(*args, **kwargs):
            raise RuntimeError("a fault, not a refusal")

        monkeypatch.setattr(cli, "prepare_components", fault)
        with pytest.raises(RuntimeError, match="a fault, not a refusal"):
            main([command[0], "--manifest", str(dataset), "--out", str(tmp_path / "o"),
                  *command[1:], *FAST])
        assert "skipped" not in capsys.readouterr().err

    def test_all_failed_exits_nonzero(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path / "m.txt", ["ghost missing.ppm missing.lm1 -"]
        )
        code = main(
            ["eval", "--manifest", str(manifest), "--out", str(tmp_path / "e")]
        )
        assert code == 1
        assert "all images failed" in capsys.readouterr().err

    def test_unlabelled_row_folds_tj_with_one_warning(self, tmp_path, caplog):
        plain = synth(tmp_path, "isolated-square", "plain", ("--size", "56"))
        synth(tmp_path, "shaded-edge", "lab", ("--size", "48"))
        manifest = write_manifest(
            tmp_path / "m.txt",
            [
                "lab lab/image.ppm lab/gt.lm1 - lab/contours.lm1 lab/segments.lm1",
                "plain plain/image.ppm plain/gt.lm1 -",
            ],
        )
        out = tmp_path / "eval"
        with caplog.at_level(logging.WARNING, logger="fgo"):
            code = main(
                ["eval", "--manifest", str(manifest), "--out", str(out),
                 "--compare", "reference,with-both", *FAST]
            )
        assert code == 0
        folds = [r.getMessage() for r in caplog.records if "alphaTJ" in r.getMessage()]
        assert len(folds) == 1
        assert "56x56 image" in folds[0]  # the unlabelled row's size

        # with-both (0.05, 0.15, 0.80) scores the unlabelled row as (0.85, 0.15, 0)
        params = apply_assignment(RunConfig(), "nScales", "4").params
        prepared = prepare_components(
            RGBImage(*read_ppm(plain / "image.ppm")), params, need_sa=True
        )
        gt = load_ground_truth(read_signed_map(plain / "gt.lm1"))
        fgca = compute_fgca(
            finalize_components(prepared, ModelWeights(0.85, 0.15, 0)).final, gt
        )
        rows = (out / "report_with-both.txt").read_text().splitlines()
        assert f"plain {fgca.accuracy:.6f} {fgca.pixels} {fgca.ties}" in rows

    def test_bad_compare_spec_fails(self, dataset, tmp_path, capsys):
        code = main(
            ["eval", "--manifest", str(dataset), "--out", str(tmp_path / "e"),
             "--compare", "reference"]
        )
        assert code == 1


class TestTune:
    def test_writes_weights_and_trace(self, dataset, tmp_path, capsys):
        out = tmp_path / "tune"
        code = main(
            ["tune", "--manifest", str(dataset), "--out", str(out),
             "--coarse-step", "0.5", *FAST]
        )
        assert code == 0
        kv = dict(
            line.split("=", 1)
            for line in (out / "weights.kv").read_text().splitlines()
        )
        total = float(kv["alphaRef"]) + float(kv["alphaSA"]) + float(kv["alphaTJ"])
        assert total == pytest.approx(1.0, abs=1e-6)
        assert kv["trainIds"]
        assert kv["testIds"]
        trace = (out / "trace.txt").read_text().splitlines()
        assert trace[0].startswith("round ")
        assert len(trace) > 1
        assert "tuned:" in capsys.readouterr().out

    def test_seed_env_controls_split(self, dataset, tmp_path, capsys):
        out = tmp_path / "tune"
        code = main(
            ["tune", "--manifest", str(dataset), "--out", str(out),
             "--coarse-step", "0.5", "--set", "seed=5", *FAST]
        )
        assert code == 0
        assert "seed=5" in (out / "weights.kv").read_text()

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_broken_train_row_skipped(self, dataset, tmp_path, capsys, seed):
        # these seeds put the row pairing a 48-px image with a 96-px truth
        # in the train half
        wide = synth(tmp_path, "isolated-square", "wide", ("--size", "96"))
        rows = dataset.read_text().splitlines()
        rows += ["sq2 a/image.ppm b/gt.lm1 -", f"wide a/image.ppm {wide / 'gt.lm1'} -"]
        manifest = write_manifest(tmp_path / "wide.txt", rows)
        out = tmp_path / "tune"
        code = main(
            ["tune", "--manifest", str(manifest), "--out", str(out),
             "--coarse-step", "0.5", "--set", f"seed={seed}", *FAST]
        )
        assert code == 0
        assert re.search(
            r"skipped wide: the ground-truth map is 96x96 but the image is 48x48",
            capsys.readouterr().err,
        )
        assert "wide" in (out / "weights.kv").read_text()  # the split keeps its ids

    def test_no_usable_train_row_exits_nonzero(self, tmp_path, capsys):
        a = synth(tmp_path, "isolated-square", "a", ("--size", "48"))
        wide = synth(tmp_path, "isolated-square", "wide", ("--size", "96"))
        manifest = write_manifest(
            tmp_path / "bad.txt",
            [f"w{i} a/image.ppm {wide / 'gt.lm1'} -" for i in range(2)],
        )
        code = main(["tune", "--manifest", str(manifest), "--out", str(tmp_path / "tune"), *FAST])
        assert code == 1
        err = capsys.readouterr().err
        assert "skipped w0" in err and "no usable training images" in err

    def test_tj_without_labels_warns_of_the_fold(self, dataset, tmp_path, caplog):
        # both rows lack label maps, so the training image does too
        manifest = write_manifest(
            tmp_path / "unlabelled.txt",
            ["one a/image.ppm a/gt.lm1 -", "two a/image.ppm a/gt.lm1 -"],
        )
        with caplog.at_level(logging.WARNING, logger="fgo"):
            code = main(
                ["tune", "--manifest", str(manifest), "--out", str(tmp_path / "t"),
                 "--weights", "alpha_ref,ALPHATJ", "--coarse-step", "0.5", *FAST]
            )
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if "alphaTJ" in r.getMessage()]
        assert len(warnings) == 1
        assert "moves to the contrast route" in warnings[0]

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan"])
    def test_coarse_step_outside_unit_interval_fails(self, dataset, tmp_path, capsys, step):
        code = main(
            ["tune", "--manifest", str(dataset), "--out", str(tmp_path / "t"),
             "--coarse-step", step, *FAST]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coarse_step must lie in (0, 1]")
        assert "Traceback" not in err

    def test_unknown_weight_name_fails(self, dataset, tmp_path, capsys):
        code = main(
            ["tune", "--manifest", str(dataset), "--out", str(tmp_path / "t"),
             "--weights", "alphaRef,wOpp"]
        )
        assert code == 1
        assert "unknown weight name" in capsys.readouterr().err


COMPARE_OWNS_ALPHAS = "--compare names both alpha triples; it takes no --preset, --weights"


@pytest.mark.parametrize("command, flags, message", [
    ("tune", ["--coarse-step", "0"], "coarse_step must lie in (0, 1], got 0.0"),
    ("tune", ["--weights", "alphaRef,alpha_ref"], "names must be a distinct subset of"),
    ("eval", ["--compare", "reference"], "--compare expects two presets, got 'reference'"),
    ("eval", ["--compare", "reference,nosuch"], "unknown preset 'nosuch'"),
    ("eval", ["--compare", "reference,with-sa", "--weights", "0,1,0"], COMPARE_OWNS_ALPHAS),
    ("eval", ["--compare", "reference,with-sa", "--preset", "with-tj"], COMPARE_OWNS_ALPHAS),
    ("tune", ["--manifest", "nosuch.txt"], "[Errno 2] No such file or directory"),
    ("eval", ["--manifest", "nosuch.txt"], "[Errno 2] No such file or directory"),
    ("tune", ["--set", "seed=-1"], "--set seed=-1: seed must be non-negative, got -1"),
], ids=["tune-step", "tune-names", "eval-one-preset", "eval-unknown-preset",
        "eval-compare-weights", "eval-compare-preset", "tune-manifest", "eval-manifest",
        "tune-seed"])
def test_bad_flag_refused_before_any_work(
    dataset, tmp_path, capsys, monkeypatch, command, flags, message
):
    # as `run` refuses a bad setting: no image is read, nothing is written
    def prepare(*args, **kwargs):
        raise AssertionError("an image was prepared")

    monkeypatch.setattr(cli, "prepare_components", prepare)
    out = tmp_path / "out"
    code = main([command, "--manifest", str(dataset), "--out", str(out), *flags, *FAST])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


class TestScoresMatchFullPath:
    """``tune`` and ``eval`` score weight points from the boundary windows
    alone; their outputs must equal scores of the full final maps."""

    @pytest.fixture()
    def labelled(self, tmp_path):
        synth(tmp_path, "isolated-square", "a", ("--size", "48"))
        synth(tmp_path, "shaded-edge", "b", ("--size", "48"))
        synth(tmp_path, "shaded-edge", "c", ("--size", "56", "--gradient", "0.2"))
        synth(tmp_path, "annulus", "d")
        return write_manifest(
            tmp_path / "data.txt",
            [
                "sq a/image.ppm a/gt.lm1 b/gt.lm1",  # two annotators
                "sh b/image.ppm b/gt.lm1 - b/contours.lm1 b/segments.lm1",
                "sg c/image.ppm c/gt.lm1 - c/contours.lm1 c/segments.lm1",
                "an d/image.ppm d/gt.lm1 -",
            ],
        )

    @staticmethod
    def prepared_rows(manifest, ids, settings=()):
        """``(id, prepared image, truths)`` of the named manifest rows,
        under ``nScales=4`` and the ``key=value`` ``settings``."""
        config = apply_lines(RunConfig(), ["nScales=4", *settings])
        rows = []
        for entry in parse_manifest(manifest):
            if entry.image_id in ids:
                labels = [read_lm1(p) for p in (entry.contours, entry.segments) if p]
                prepared = prepare_components(
                    RGBImage(*read_ppm(entry.image)), config.params,
                    *(labels or (None, None)), need_sa=True, need_tj=True,
                )
                gts = [load_ground_truth(read_signed_map(p)) for p in entry.gts]
                rows.append((entry.image_id, prepared, gts))
        return rows

    @staticmethod
    def full_report(rows, weights):
        """The report of the full final maps under one weight set."""
        return build_report({
            image_id: compute_fgca(finalize_components(prepared, weights).final, gts)
            for image_id, prepared, gts in rows
        })

    def test_tune_trace_objectives(self, labelled, tmp_path):
        out = tmp_path / "tune"
        assert main(
            ["tune", "--manifest", str(labelled), "--out", str(out),
             "--weights", "alphaRef,alphaSA,alphaTJ", "--coarse-step", "0.25", *FAST]
        ) == 0
        kv = dict(line.split("=", 1) for line in (out / "weights.kv").read_text().splitlines())
        rows = self.prepared_rows(labelled, kv["trainIds"].split(","))
        _, best, trace = grid_search_weights(
            lambda weights: self.full_report(rows, weights).aggregate,
            names=("alpha_ref", "alpha_sa", "alpha_tj"),
            coarse_step=0.25,
        )
        want = [f"{r} {' '.join(f'{v:.6f}' for v in point)} {value:.6f}"
                for r, point, value in trace]
        assert (out / "trace.txt").read_text().splitlines()[1:] == want
        assert kv["objective"] == f"{best:.6f}"

    def test_eval_compare_reports(self, labelled, tmp_path):
        out = tmp_path / "eval"
        presets = ("reference", "with-both")
        assert main(
            ["eval", "--manifest", str(labelled), "--out", str(out),
             "--compare", ",".join(presets), *FAST]
        ) == 0
        rows = self.prepared_rows(labelled, [e.image_id for e in parse_manifest(labelled)])
        for name in presets:
            report = self.full_report(rows, apply_preset(RunConfig(), name).weights())
            assert (out / f"report_{name}.kv").read_text() == format_report_keyvalues(report)
            assert (out / f"report_{name}.txt").read_text() == format_report_text(report)

    @pytest.mark.parametrize(
        "setting", ["wOpp=0.7", "topLayersOnly=2", "featureColor=0", "featureOrientation=0.5"]
    )
    def test_every_setting_tunes_and_evaluates(self, labelled, tmp_path, setting):
        # a setting outside the alpha triple is the model's structure:
        # every weight point of a search and every preset runs under it
        out = tmp_path / "tune"
        assert main(
            ["tune", "--manifest", str(labelled), "--out", str(out),
             "--weights", "alphaRef,alphaSA,alphaTJ", "--coarse-step", "0.5",
             "--set", setting, *FAST]
        ) == 0
        kv = dict(line.split("=", 1) for line in (out / "weights.kv").read_text().splitlines())
        train = kv["trainIds"].split(",")
        rows = self.prepared_rows(labelled, train, [setting])
        states = {image_id: prepare_scoring(prepared, gts) for image_id, prepared, gts in rows}
        states = {image_id: states[image_id] for image_id in train}  # the command's order
        _, best, trace = grid_search_weights(
            lambda weights: build_report(
                {image_id: score_weights(state, weights) for image_id, state in states.items()}
            ).aggregate,
            names=("alpha_ref", "alpha_sa", "alpha_tj"),
            coarse_step=0.5,
        )
        want = [f"{r} {' '.join(f'{v:.6f}' for v in point)} {value:.6f}"
                for r, point, value in trace]
        assert (out / "trace.txt").read_text().splitlines()[1:] == want
        assert kv["objective"] == f"{best:.6f}"

        out = tmp_path / "eval"
        assert main(
            ["eval", "--manifest", str(labelled), "--out", str(out), "--preset", "with-both",
             "--set", setting, *FAST]
        ) == 0
        rows = self.prepared_rows(
            labelled, [e.image_id for e in parse_manifest(labelled)], [setting]
        )
        report = self.full_report(rows, apply_preset(RunConfig(), "with-both").weights())
        assert (out / "report.kv").read_text() == format_report_keyvalues(report)
