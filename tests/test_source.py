"""Checks on the package source itself."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fgo
from fgo import cli, evaluation, stimuli

SRC = Path(fgo.__file__).parent

# public names that only tests and outside programs call, and why
ALLOWED = {
    # the reader of the maps `fgo run` writes; the benchmark's run check
    # reads them back with it, so it stays in the package
    "io.read_fm1",
    # the FGCA of full final maps, for library callers; `fgo run` pools the
    # decisions its correctness image is drawn from with `fgca_of`
    "evaluation.compute_fgca",
}


def referenced_names(node) -> Counter:
    """How often each name is read as a variable or an attribute in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


# what the benchmark in perfbench/ calls of the package by name; a
# simplification that drops one of these must fail here first
BENCHMARK_NAMES = {
    "io": ("read_fm1", "read_signed_map", "write_ppm", "write_lm1"),
    "evaluation": ("compute_fgca", "load_ground_truth", "grid_search_weights"),
    "cli": ("main", "ProcessPoolExecutor"),
}
# the command lines perfbench/run.py passes to cli.main, inputs renamed;
# tune-small's `--weights` names the weights the search varies
BENCHMARK_COMMANDS = {
    "run-bsds": ["run", "--image", "scene.ppm", "--gt", "scene_gt.lm1",
                 "--contours", "scene_contours.lm1", "--segments", "scene_segments.lm1",
                 "--out", "fgo", "--preset", "with-both"],
    "tune-small": ["tune", "--manifest", "manifest.txt", "--out", "fgo",
                   "--weights", "alphaRef,alphaSA,alphaTJ", "--coarse-step", "0.075"],
    "eval-mixed": ["eval", "--manifest", "manifest.txt", "--out", "fgo",
                   "--compare", "reference,with-both", "--jobs", "2"],
}
# the arguments perfbench/ passes, by position, to each package call
BENCHMARK_CALLS = {
    ("io", "write_ppm"): ("path", "r", "g", "b"),
    ("io", "write_lm1"): ("path", "arr"),
    ("io", "read_fm1"): ("path",),
    ("io", "read_signed_map"): ("path",),
    ("evaluation", "load_ground_truth"): ("signed",),
    ("evaluation", "compute_fgca"): ("final", "gt"),
}
# the keywords perfbench/scenes.py passes to stimuli.overlapping_squares
SCENE_KEYWORDS = (
    "size", "background", "a_gray", "b_gray", "gradient", "a_first", "a_last", "b_first", "b_last",
)


def test_names_the_benchmark_calls_resolve():
    for module, names in BENCHMARK_NAMES.items():
        layer = importlib.import_module(f"fgo.{module}")
        for name in names:
            assert callable(getattr(layer, name, None)), f"fgo.{module}.{name}"


def test_grid_search_takes_the_objective_first():
    # the benchmark wraps the objective by position to time each weight
    # point, and tune-small's check counts those points against the trace rows
    first = next(iter(inspect.signature(evaluation.grid_search_weights).parameters))
    assert first == "objective"


@pytest.mark.parametrize("workload", sorted(BENCHMARK_COMMANDS))
def test_the_benchmark_command_lines_parse(workload):
    # the parser takes every flag, and the settings pass the CLI's own checks
    args = cli.build_parser().parse_args(BENCHMARK_COMMANDS[workload])
    cli._config_from_args(args)


@pytest.mark.parametrize("call", sorted(BENCHMARK_CALLS), ids=".".join)
def test_the_benchmark_calls_bind(call):
    # a signature change the benchmark's argument lists no longer fit
    # (say, write_ppm taking one stack) must fail here first
    module, name = call
    layer = importlib.import_module(f"fgo.{module}")
    inspect.signature(getattr(layer, name)).bind(*BENCHMARK_CALLS[call])


def test_overlapping_squares_binds_the_scene_keywords():
    inspect.signature(stimuli.overlapping_squares).bind(**dict.fromkeys(SCENE_KEYWORDS))


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        # a reference inside the definition itself does not count
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]
    assert sorted(unused) == sorted(ALLOWED)


def test_cli_import_loads_no_scipy_stats_or_signal():
    # either adds about a second to every command's start, which is why
    # `right_tailed_t_test` is written out rather than taken from scipy.stats
    code = "import sys, fgo.cli; print(sorted({'scipy.stats', 'scipy.signal'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
