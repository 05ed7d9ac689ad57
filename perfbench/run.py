"""The fgo benchmark: seeded inputs, timed CLI commands, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is a closed loop
with one client: it issues one ``fgo`` command at a time, each in a
fresh interpreter through ``fgo_cmd.py``, and waits for it. Inputs come
from ``scenes.py`` (see there for why each workload has the inputs it
has); the program sees only the generated files.

``run-bsds``
    ``fgo run --preset with-both`` with ground truth, contours and
    segments on one colour 321x481 scene. One prepare and one finalize
    per command.
``tune-small``
    ``fgo tune --weights alphaRef,alphaSA,alphaTJ`` on four small
    labelled colour fixtures. The coarse step of 0.075 puts 105 points
    on the coarse grid, so every command scores well over 100 weight
    points against two prepared images.
``eval-mixed``
    ``fgo eval --compare reference,with-both --jobs N`` with N =
    min(2, nproc) on four images of mixed size, colour and labels. Two
    finalizes per prepared image, spread over a process pool.

With ``--trace 0`` the loop issues commands until the next one would
end past ``--seconds`` (always at least one) and reports:

``setup_s``
    The median over five set-ups, each in a fresh interpreter, of the
    time to import fgo, generate the workload's inputs and write them
    to disk. The five copies must be identical, byte for byte.
``command_s.p50``
    Median wall time of ``fgo.cli.main`` for one command: ``image_s``
    on run-bsds, ``tune_s`` on tune-small, the eval wall on eval-mixed.
``peak_rss_mib``
    Peak resident memory of the command process (exact) plus that of
    each of its worker processes (their high-water marks, read every
    0.5 s); the largest over the run's commands.
``fgca``
    The accuracy the command reports: mean of the ``fgca=`` lines on
    run-bsds, the objective in ``weights.kv`` on tune-small, and on
    eval-mixed the boundary pixels scored correct over all pixels,
    pooled over both presets.

It also prints, unbounded and outside the result line, ``images_per_s``:
images a command scored per second of its wall time (the one image of
``fgo run``, the manifest rows of ``fgo eval``, each under both presets,
and for ``fgo tune`` the train images once per weight point). On two
workloads it is the inverse of ``command_s.p50``, and bounding both
would only bound the same measurement twice.

Failed or invalid commands, and images a command skipped, count in
``failed`` against ``attempted`` (one per command; one per manifest row
on eval-mixed). Timed commands run the bare program, except on
tune-small, where the weight-point probe of ``tracer.PROBES`` times
each objective call so that the output check can count the points
against the trace rows.

With ``--trace 1`` the run issues the workload's command twice, first
as a timed command and then with every public function of the fgo
layers traced. It reports per-layer metrics from the traced command's
spans, ``trace.overhead_share``, the traced command's extra wall time as
a share of the first command's, and from the first command:

``point_s.p50``, ``point_s.p90``
    Time of one weight point on tune-small: one objective call of
    ``grid_search_weights``, one weight triple finalized and scored
    over the train half (100+ per command). They are 0 on the other
    workloads, which have no weight sweep. A run of tune-small has a
    single command, and its time is ``command_s.p50``, so the points
    are per-layer metrics.

Each result is preceded by an ``environment`` line: nproc, the Python,
numpy and scipy versions and the L2 and L3 cache sizes. BLAS and OpenMP
run single-threaded.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# before numpy loads through tracer, so that this process's BLAS is pinned too
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS = 5
RUN_BUDGET_S = 165  # a run must end within 180 s; commands past this are killed
SAMPLE_S = 0.5  # scanning /proc for workers costs CPU that the workers need
TUNE_STEP = "0.075"
EVAL_PRESETS = ("reference", "with-both")
# what command_s.p50 is called in the workload's own terms
COMMAND_NAMES = {"run-bsds": "image_s.p50", "tune-small": "tune_s", "eval-mixed": "eval wall"}


def bench_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("FGO_SEED", None)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# one command
# ----------------------------------------------------------------------

@dataclass
class Command:
    out: Path
    rc: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str
    spans: dict
    errors: list = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    images: int = 0
    points: list = field(default_factory=list)
    fgca: float = 0.0


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


def run_command(fgo_args, out: Path, tracer_mode: str, deadline: float) -> Command:
    """Run ``fgo <fgo_args>`` in a fresh interpreter and collect its record.

    The command is killed, with its workers, if it runs past ``deadline``
    (a ``perf_counter`` value).
    """
    out.mkdir(parents=True)
    record, spans = out / "record.json", out / "spans.json"
    argv = [sys.executable, str(BENCH / "fgo_cmd.py"), "--src", str(SRC), "--record", str(record),
            "--spans", str(spans), "--tracer", tracer_mode, "--", *map(str, fgo_args)]
    worker_kib = {}
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=bench_env(), start_new_session=True)
        try:
            while perf_counter() < deadline:
                try:
                    proc.wait(timeout=SAMPLE_S)
                    break
                except subprocess.TimeoutExpired:
                    for pid in _children(proc.pid):
                        worker_kib[pid] = max(worker_kib.get(pid, 0), _vm_hwm_kib(pid))
        finally:
            timed_out = proc.returncode is None
            if timed_out:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    stdout = (out / "stdout.txt").read_text()
    stderr = (out / "stderr.txt").read_text()
    if timed_out or proc.returncode != 0 or not record.exists():
        reason = "timed out" if timed_out else f"exit code {proc.returncode}"
        return Command(out, proc.returncode, 0.0, 0.0, stdout, stderr, {},
                       errors=[f"{reason}: {stderr.strip()[-500:]}"])
    rec = json.loads(record.read_text())
    cmd = Command(out, rec["rc"], rec["wall_s"], rec["rss_mib"] + sum(worker_kib.values()) / 1024,
                  stdout, stderr, json.loads(spans.read_text()) if spans.exists() else {})
    cmd.points = tracer.weight_points(cmd.spans.get("spans", ()))
    return cmd


# ----------------------------------------------------------------------
# workloads: command line and output checks
# ----------------------------------------------------------------------

def _read_kv(path: Path) -> dict:
    pairs = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path.name}: malformed line {line!r}")
        pairs[key] = value
    return pairs


def run_bsds_args(inputs: Path, out: Path, jobs: int):
    return ["run", "--image", inputs / "scene.ppm", "--gt", inputs / "scene_gt.lm1",
            "--contours", inputs / "scene_contours.lm1", "--segments", inputs / "scene_segments.lm1",
            "--out", out / "fgo", "--preset", "with-both"]


def check_run_bsds(cmd: Command, inputs: Path) -> None:
    """16 finite full-size maps, and the printed FGCA recomputed from them."""
    import numpy as np
    from fgo import io
    from fgo.evaluation import compute_fgca, load_ground_truth

    signed = io.read_signed_map(inputs / "scene_gt.lm1")
    maps = []
    for ti in range(8):
        for si in range(2):
            path = cmd.out / "fgo" / f"final_t{ti}_s{si}.fm1"
            if not path.exists():
                raise ValueError(f"missing {path.name}")
            values = io.read_fm1(path)  # refuses non-finite values
            if values.shape != signed.shape:
                raise ValueError(f"{path.name}: shape {values.shape}, image {signed.shape}")
            maps.append(values)
    final = np.stack(maps).reshape((8, 2) + signed.shape)
    fgca = compute_fgca(final, load_ground_truth(signed))
    expected = f"fgca={fgca.accuracy:.6f} pixels={fgca.pixels} ties={fgca.ties}"
    printed = [line for line in cmd.stdout.splitlines() if line.startswith("fgca=")]
    if printed != [expected]:
        raise ValueError(f"printed {printed}, recomputed {expected!r}")
    cmd.images = 1
    cmd.fgca = float(printed[0].split()[0].split("=")[1])


def tune_small_args(inputs: Path, out: Path, jobs: int):
    return ["tune", "--manifest", inputs / "manifest.txt", "--out", out / "fgo",
            "--weights", "alphaRef,alphaSA,alphaTJ", "--coarse-step", TUNE_STEP]


def check_tune_small(cmd: Command, inputs: Path) -> None:
    """weights.kv and trace.txt parse and agree; one trace row per point;
    no training image skipped."""
    skipped = [line for line in cmd.stderr.splitlines() if line.startswith("skipped ")]
    if skipped:
        cmd.failed = 1
        raise ValueError(f"{len(skipped)} training images skipped: {skipped}")
    weights = _read_kv(cmd.out / "fgo" / "weights.kv")
    alphas = [float(weights[k]) for k in ("alphaRef", "alphaSA", "alphaTJ")]
    objective = float(weights["objective"])
    train = [i for i in weights["trainIds"].split(",") if i]
    if abs(sum(alphas) - 1.0) > 1e-5 or not 0.0 <= objective <= 1.0 or not train:
        raise ValueError(f"implausible weights.kv {weights}")
    lines = (cmd.out / "fgo" / "trace.txt").read_text().splitlines()
    if lines[0].split() != ["round", "alpha_ref", "alpha_sa", "alpha_tj", "objective"]:
        raise ValueError(f"trace.txt header {lines[0]!r}")
    rows = [[float(v) for v in line.split()] for line in lines[1:]]
    if any(len(row) != 5 for row in rows):
        raise ValueError("trace.txt rows need five fields")
    if len(rows) != len(cmd.points) or len(rows) < 100:
        raise ValueError(f"{len(rows)} trace rows, {len(cmd.points)} weight points")
    if f"{max(row[4] for row in rows):.6f}" != weights["objective"]:
        raise ValueError("objective is not the best traced value")
    cmd.images = len(train) * len(rows)  # none skipped, so every train image was scored
    cmd.fgca = objective


def eval_mixed_args(inputs: Path, out: Path, jobs: int):
    return ["eval", "--manifest", inputs / "manifest.txt", "--out", out / "fgo",
            "--compare", ",".join(EVAL_PRESETS), "--jobs", jobs]


def check_eval_mixed(cmd: Command, inputs: Path) -> None:
    """Both reports and compare.kv parse, and every image is scored."""
    rows = cmd.attempted
    scored, correct, pixels = rows, 0.0, 0
    for preset in EVAL_PRESETS:
        report = _read_kv(cmd.out / "fgo" / f"report_{preset}.kv")
        scored = min(scored, int(report["images"]))
        pixels += int(report["pixels"])
        correct += float(report["aggregateFGCA"]) * int(report["pixels"])
    compare = _read_kv(cmd.out / "fgo" / "compare.kv")
    if [compare["presetA"], compare["presetB"]] != list(EVAL_PRESETS):
        raise ValueError(f"compare.kv names {compare['presetA']}, {compare['presetB']}")
    if not 0.0 <= float(compare["pValue"]) <= 1.0:
        raise ValueError(f"pValue {compare['pValue']}")
    cmd.failed = rows - scored
    if cmd.failed or "skipped" in cmd.stderr:
        raise ValueError(f"{rows - scored} of {rows} images not scored")
    cmd.images = rows
    cmd.fgca = correct / pixels


def one_per_command(inputs: Path) -> int:
    return 1


def manifest_rows(inputs: Path) -> int:
    return len((inputs / "manifest.txt").read_text().splitlines())


# workload: (fgo command line, output check, operations per command,
# tracer of the timed commands)
WORKLOADS = {
    "run-bsds": (run_bsds_args, check_run_bsds, one_per_command, "none"),
    "tune-small": (tune_small_args, check_tune_small, one_per_command, "probes"),
    "eval-mixed": (eval_mixed_args, check_eval_mixed, manifest_rows, "none"),
}


def run_and_check(workload: str, inputs: Path, out: Path, trace: bool, deadline: float) -> Command:
    make_args, check, operations, timed_tracer = WORKLOADS[workload]
    tracer_mode = "all" if trace else timed_tracer
    cmd = run_command(make_args(inputs, out, min(2, nproc())), out, tracer_mode, deadline)
    cmd.attempted = operations(inputs)
    if not cmd.errors:
        try:
            if cmd.rc != 0:
                raise ValueError(f"fgo exited with {cmd.rc}: {cmd.stderr.strip()[-500:]}")
            check(cmd, inputs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            cmd.errors.append(f"{type(exc).__name__}: {exc}")
    if cmd.errors:
        cmd.failed = cmd.failed or cmd.attempted
        for message in cmd.errors:
            print(f"check failed in {out.name}: {message}", file=sys.stderr)
    return cmd


# ----------------------------------------------------------------------
# set-up, metrics, main
# ----------------------------------------------------------------------

def set_up(workload: str, seed: int, work: Path, deadline: float):
    """Generate the inputs SETUPS times, each in a fresh interpreter.

    Returns the first copy and the set-up time: the median over the
    copies of the import of fgo plus the time to generate and write.
    """
    setup_times = []
    for k in range(SETUPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "scenes.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(work / f"inputs{k}"), "--src", str(SRC)],
            env=bench_env(), check=True, timeout=max(1.0, deadline - perf_counter()),
            capture_output=True, text=True,
        )
        times = json.loads(proc.stdout.splitlines()[-1])
        setup_times.append(times["import_s"] + times["write_s"])
    names = sorted(os.listdir(work / "inputs0"))
    for k in range(1, SETUPS):
        copy = work / f"inputs{k}"
        _, mismatch, errors = filecmp.cmpfiles(work / "inputs0", copy, names, shallow=False)
        if mismatch or errors or sorted(os.listdir(copy)) != names:
            raise RuntimeError(f"seed {seed} gave different inputs: {mismatch + errors}")
    return work / "inputs0", statistics.median(setup_times)


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(commands, setup_s: float) -> dict:
    ok = [c for c in commands if not c.errors]
    if not ok:
        return {}
    walls = [c.wall_s for c in ok]
    return {
        "setup_s": (setup_s, "s"),
        "command_s.p50": (statistics.median(walls), "s"),
        "peak_rss_mib": (max(c.rss_mib for c in ok), "MiB"),
        "fgca": (statistics.mean(c.fgca for c in ok), "ratio"),
    }


def per_layer(traced: Command, baseline: Command) -> dict:
    stats = tracer.span_stats(traced.spans["spans"])
    counters = {**traced.spans["counters"], **traced.spans["maxima"]}

    def stat(name, kind):
        return stats.get(name, {}).get(kind, 0.0)

    metrics = {}
    for name in PER_LAYER_TIMES:
        layer_fn, kind = name.rsplit(".", 1)
        unit = "count" if kind == "calls" else "s"
        metrics[name] = (stat(layer_fn, kind.replace("_s", "")), unit)
    for name, unit in PER_LAYER_COUNTERS:
        metrics[name] = (counters.get(name, 0.0), unit)
    von_mises = stat("filters.make_von_mises", "calls")
    kernels = len(traced.spans["distinct"].get("filters.make_von_mises.kernels", ()))
    metrics["filters.make_von_mises.distinct_ratio"] = (kernels / von_mises if von_mises else 0.0, "ratio")
    eval_wall = stat("cli.cmd_eval", "busy")
    jobs = counters.get("cli.eval.jobs", 0.0)
    share = stat(tracer.WORKER, "busy") / (jobs * eval_wall) if jobs and eval_wall else 0.0
    metrics["cli.eval.worker_busy_share"] = (share, "ratio")
    metrics["trace.overhead_share"] = ((traced.wall_s - baseline.wall_s) / baseline.wall_s, "ratio")
    points = baseline.points or [0.0]
    metrics["point_s.p50"] = (quantile(points, 0.5), "s")
    metrics["point_s.p90"] = (quantile(points, 0.9), "s")
    return metrics


PER_LAYER_TIMES = (
    "pipeline.prepare_components.busy_s",
    "pipeline.finalize_components.calls",
    "pipeline.finalize_components.busy_s",
    "channels.compute_channels.busy_s",
    "channels.build_channel_pyramids.busy_s",
    "filters.make_von_mises.calls",
    "filters.make_gabor.calls",
    "grid.resample.calls",
    "grid.resample.busy_s",
    "grid.correlate2d.calls",
    "grid.correlate2d.busy_s",
    "grid.cross_scale_sum.busy_s",
    "grid.build_pyramid.busy_s",
    "ownership.cs_pyramids_symmetric.busy_s",
    "ownership.cs_pyramids_oriented.busy_s",
    "ownership.compute_bo_light_dark.calls",
    "ownership.compute_bo_light_dark.self_s",
    "ownership.compute_bo_local_cue.self_s",
    "ownership.scale_contexts.busy_s",
    "ownership.normalize_evidence_pair.busy_s",
    "ownership.combine_bo.busy_s",
    "ownership.winning_bo.busy_s",
    "ownership.final_bo_maps.busy_s",
    "cues.compute_sa_maps.busy_s",
    "cues.detect_t_junctions.busy_s",
    "cues.build_tj_maps.busy_s",
    "evaluation.compute_fgca.calls",
    "evaluation.compute_fgca.busy_s",
    "evaluation.decide_figure.calls",
    "evaluation.load_ground_truth.busy_s",
    "io.write_fm1.busy_s",
    "io.read_ppm.busy_s",
    "io.read_lm1.busy_s",
)
PER_LAYER_COUNTERS = (
    ("pipeline.prepared_mib", "MiB"),
    ("grid.correlate2d.mflop_computed", "Mflop"),
    ("grid.correlate2d.mib_computed", "MiB"),
    ("cues.junctions", "count"),
    ("evaluation.grid_search_weights.points", "count"),
    ("io.write_fm1.mib", "MiB"),
)


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fgo benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fgo" / "cli.py").is_file():
        print(f"no fgo source tree at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # the checks import fgo; leave src/ as it is
    sys.path.insert(0, str(SRC))

    budget = perf_counter() + RUN_BUDGET_S
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        inputs, setup_s = set_up(args.workload, args.seed, work, budget)
        commands = []
        if args.trace:
            for k, trace in enumerate((False, True)):
                commands.append(run_and_check(args.workload, inputs, work / f"run{k}", trace, budget))
        else:
            deadline = perf_counter() + args.seconds
            while True:
                start = perf_counter()
                run_dir = work / f"run{len(commands)}"
                commands.append(run_and_check(args.workload, inputs, run_dir, False, budget))
                now = perf_counter()
                if now + (now - start) > deadline:
                    break
        attempted = sum(c.attempted for c in commands)
        failed = sum(c.failed for c in commands)
        if args.trace:
            metrics = per_layer(commands[1], commands[0]) if not failed else {}
        else:
            metrics = end_to_end(commands, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass

    print("environment " + json.dumps(environment()))
    walls = " ".join(f"{c.wall_s:.3f}" for c in commands)
    print(f"workload {args.workload} seed {args.seed}: {len(commands)} commands, walls [{walls}] s, "
          f"weight points {[len(c.points) for c in commands]}; "
          f"command_s.p50 is {COMMAND_NAMES[args.workload]} here")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    scored = [c for c in commands if not c.errors]
    if scored and not args.trace:
        rate = sum(c.images for c in scored) / sum(c.wall_s for c in scored)
        print(f"images_per_s = {rate:.6g} 1/s (not bounded)")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
