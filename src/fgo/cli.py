"""Command-line interface: run, eval, tune, synth.

Outputs are plain text (FM1/LM1 maps, key=value reports) and binary
PGM/PPM images; identical configuration, inputs and seed give
bit-identical files. ``run`` computes and writes the full final maps;
``eval`` and ``tune`` prepare each image once and score every weight
point from its boundary windows (``evaluation.score_weights``).
"""

from __future__ import annotations

import argparse
import inspect
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing import Value
from pathlib import Path

import numpy as np

from . import evaluation, io, stimuli
from .channels import N_SIDES
from .config import PRESETS, RunConfig, apply_lines, apply_preset, key_name, load_config
from .cues import format_junction
from .evaluation import (
    build_report,
    check_search,
    decisions_for,
    fgca_of,
    format_keyvalues,
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
from .pipeline import prepare_components, run_model

DIRECTION_GRAY_STEP = 15  # winning map index i shown as (i + 1) * 15
CORRECT_GRAY = 255
WRONG_GRAY = 0
TIE_GRAY = 192
BACKGROUND_GRAY = 128


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    """One dataset row: id, image and ground truths, optional labels."""

    image_id: str
    image: str
    gts: list
    contours: str | None
    segments: str | None


def _read_row(row: ManifestEntry):
    """``(image, contours, segments, gts)`` of one row: the PPM image as
    one (3, rows, cols) array (``io.read_ppm``), passed on as read, its
    two label maps (None where the row names none) and the ground truths
    that have boundary records. A truth whose map is not the image's
    shape is refused, and so is a row whose truths all lack records; a
    row that names no truth (``fgo run`` without ``--gt``) has none."""
    path = Path(row.image)
    if path.suffix.lower() != ".ppm":
        raise ValueError(f"unsupported image format {path.suffix!r} (want .ppm)")
    image = io.read_ppm(path)
    contours, segments = [io.read_lm1(p) if p else None for p in (row.contours, row.segments)]
    gts = [load_ground_truth(io.read_signed_map(path)) for path in row.gts]
    for gt in gts:
        gt.check_shape(image.shape[1:])
    gts = [gt for gt in gts if len(gt)]
    if row.gts and not gts:
        raise ValueError("no usable ground truth records")
    return image, contours, segments, gts


def _config_from_args(args) -> RunConfig:
    """The config file, then the preset, then each ``--set``; the alpha
    triple is checked once all are set, before anything is read or
    written. A command that sets the alpha triple itself (``eval
    --compare``, ``tune``) refuses every alpha setting, ``preset=``
    included."""
    config = load_config(args.config) if args.config else RunConfig()
    if args.preset:
        config = apply_preset(config, args.preset)
    config = apply_lines(config, args.set or [], "--set {line}")
    owner = (
        "tune searches the alpha triple; it takes no --preset or alpha key"
        if args.command == "tune"
        else "--compare names both alpha triples; it takes no --preset or alpha key"
        if getattr(args, "compare", None)
        else None
    )
    if owner and config.weight_keys:
        raise ValueError(owner)
    config.weights()  # refuses a bad weight set
    return config


def _direction_image(final: np.ndarray) -> np.ndarray:
    """Gray-encode the winning map index; 0 where nothing responds."""
    n_maps = final.shape[0] * final.shape[1]
    flat = final.reshape(n_maps, *final.shape[2:])
    winner = flat.argmax(axis=0)
    gray = (winner + 1) * DIRECTION_GRAY_STEP
    return np.where(flat.max(axis=0) > 0, gray, 0).astype(np.uint8)


def _correctness_image(shape, gt, dirs, ties) -> np.ndarray:
    correct = score_directions(gt, dirs, ties) == 1.0
    canvas = np.full(shape, BACKGROUND_GRAY, dtype=np.uint8)
    canvas[gt.y, gt.x] = np.where(ties, TIE_GRAY, np.where(correct, CORRECT_GRAY, WRONG_GRAY))
    return canvas


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def cmd_run(args) -> int:
    config = _config_from_args(args)
    image, contours, segments, gts = _read_row(
        ManifestEntry("run", args.image, [args.gt] if args.gt else [], args.contours, args.segments)
    )
    result = run_model(image, config.weights(), config.params, contours, segments)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for ti in range(result.final.shape[0]):
        for si in range(N_SIDES):
            io.write_fm1(out_dir / f"final_t{ti}_s{si}.fm1", result.final[ti, si])
    io.write_pgm(out_dir / "direction.pgm", _direction_image(result.final))

    if contours is not None:
        lines = [format_junction(j) for j in result.junctions]
        (out_dir / "junctions.txt").write_text("".join(f"{l}\n" for l in lines))

    for gt in gts:  # at most one, from --gt
        dirs, ties = decisions_for(result.final, gt)
        fgca = fgca_of(gt, [(dirs, ties)])
        correctness = _correctness_image(result.final.shape[2:], gt, dirs, ties)
        io.write_pgm(out_dir / "correctness.pgm", correctness)
        print(f"fgca={fgca.accuracy:.6f} pixels={fgca.pixels} ties={fgca.ties}")

    n_files = result.final.shape[0] * N_SIDES + 1 + (contours is not None) + len(gts)
    print(f"wrote {n_files} files to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# eval / tune dataset plumbing
# ----------------------------------------------------------------------

def parse_manifest(path) -> list:
    """Rows of ``id image gt1 gt2 [contours segments]``, '-' = absent."""
    base = Path(path).parent
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) not in (4, 6):
                raise ValueError(
                    f"{path}:{lineno}: expected 'id image gt1 gt2 [contours "
                    f"segments]', got {len(parts)} fields"
                )
            if parts[1] == "-":
                raise ValueError(f"{path}:{lineno}: no image given")
            resolve = lambda token: None if token == "-" else str(base / token)
            gts = [p for p in (resolve(parts[2]), resolve(parts[3])) if p]
            if not gts:
                raise ValueError(f"{path}:{lineno}: no ground truth given")
            contours = resolve(parts[4]) if len(parts) == 6 else None
            segments = resolve(parts[5]) if len(parts) == 6 else None
            entries.append(
                ManifestEntry(parts[0], resolve(parts[1]), gts, contours, segments)
            )
    ids = [e.image_id for e in entries]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate image ids")
    return entries


def _scoring_state(entry: ManifestEntry, config: RunConfig, need_sa: bool, need_tj: bool):
    """Read one row (:func:`_read_row`), prepare its image and keep what
    scoring a weight point reads (a :class:`ScoringState`). The truths
    are checked before the image is prepared."""
    image, contours, segments, gts = _read_row(entry)
    prepared = prepare_components(
        image,
        config.params,
        contours=contours,
        segments=segments,
        need_sa=need_sa,
        need_tj=need_tj,
    )
    return prepare_scoring(prepared, gts)


def _score_entry(entry: ManifestEntry, config: RunConfig, weight_sets) -> list:
    """One :class:`FGCAResult` per weight set for one image."""
    state = _scoring_state(
        entry,
        config,
        need_sa=any(w.alpha_sa > 0 for w in weight_sets),
        need_tj=any(w.alpha_tj > 0 for w in weight_sets),
    )
    return [score_weights(state, w) for w in weight_sets]


def _take_rows(next_row, load, entries) -> list:
    """``(index, image_id, load(entry), None)`` for each row this process
    takes, one at a time, from the shared counter ``next_row`` until none
    is left, or ``(index, image_id, None, message)`` when the row is
    refused: a file that cannot be read (OSError) or a value the library
    refuses (ValueError). Any other error is a fault and propagates."""
    taken = []
    while True:
        with next_row.get_lock():
            index = next_row.value
            next_row.value += 1
        if index >= len(entries):
            return taken
        entry = entries[index]
        try:
            taken.append((index, entry.image_id, load(entry), None))
        except (OSError, ValueError) as exc:
            taken.append((index, entry.image_id, None, str(exc)))


_worker_queue = None  # a pool worker's (next_row, load, entries), from its initializer


def _join_queue(*queue) -> None:
    global _worker_queue
    _worker_queue = queue


def _take_queued_rows(_task) -> list:
    """:func:`_take_rows` in a pool worker, on the queue it joined."""
    return _take_rows(*_worker_queue)


def _load_rows(load, entries, jobs: int = 1) -> dict:
    """``{image_id: load(entry)}`` over the rows that are not refused, in
    row order; each refused row is skipped with a message, in row order.

    ``jobs`` processes load the rows, this one included: it and a pool of
    ``min(jobs, rows) - 1`` workers each take the next row from one
    shared counter until none is left."""
    queue = (Value("i", 0), load, entries)
    workers = min(jobs, len(entries)) - 1
    if workers > 0:
        with ProcessPoolExecutor(workers, initializer=_join_queue, initargs=queue) as pool:
            parts = pool.map(_take_queued_rows, range(workers))
            taken = _take_rows(*queue) + [row for part in parts for row in part]
    else:
        taken = _take_rows(*queue)
    loaded = {}
    for _, image_id, result, message in sorted(taken):  # unique indices: no result is compared
        if message is None:
            loaded[image_id] = result
        else:
            print(f"skipped {image_id}: {message}", file=sys.stderr)
    return loaded


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    config = _config_from_args(args)
    if args.compare:
        names = [n.strip() for n in args.compare.split(",")]
        if len(names) != 2:
            raise ValueError(f"--compare expects two presets, got {args.compare!r}")
        if names[0] == names[1]:
            raise ValueError(f"--compare names preset {names[0]!r} twice; name two distinct presets")
        configs = [apply_preset(config, name) for name in names]
        weight_sets = [c.weights() for c in configs]
        labels = names
    else:
        weight_sets = [config.weights()]
        labels = [args.preset or "model"]
    entries = parse_manifest(args.manifest)
    # the t-test needs two images under each preset
    if args.compare and len(entries) < 2:
        raise ValueError(f"--compare needs at least two manifest rows, got {len(entries)}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    load = partial(_score_entry, config=config, weight_sets=weight_sets)
    per_row = _load_rows(load, entries, args.jobs)
    per_preset = [{i: r[w] for i, r in per_row.items()} for w in range(len(weight_sets))]
    scored = len(per_row)
    if args.compare and scored < 2:
        print(f"--compare needs at least two scored images, got {scored}", file=sys.stderr)
        return 1
    if not scored:
        print("all images failed", file=sys.stderr)
        return 1

    reports = []
    for label, scores in zip(labels, per_preset):
        report = build_report(scores)
        reports.append(report)
        stem = f"report_{label}" if len(labels) > 1 else "report"
        (out_dir / f"{stem}.txt").write_text(format_report_text(report))
        (out_dir / f"{stem}.kv").write_text(format_report_keyvalues(report))
        print(
            f"{label}: aggregate={report.aggregate:.6f} "
            f"perImageMean={report.per_image_mean:.6f} images={len(scores)}"
        )

    if args.compare:
        sample_a = [s.accuracy for s in per_preset[0].values()]
        sample_b = [s.accuracy for s in per_preset[1].values()]
        p_value = right_tailed_t_test(sample_a, sample_b)
        (out_dir / "compare.kv").write_text(format_keyvalues([
            ("presetA", labels[0]),
            ("presetB", labels[1]),
            ("aggregateA", f"{reports[0].aggregate:.6f}"),
            ("aggregateB", f"{reports[1].aggregate:.6f}"),
            ("pValue", f"{p_value:.6g}"),
        ]))
        print(f"pValue={p_value:.6g}")
    return 0


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------

def cmd_tune(args) -> int:
    config = _config_from_args(args)
    names = [key_name(token) or token.strip() for token in args.weight_names.split(",")]
    check_search(names, args.coarse_step)
    entries = parse_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_ids, test_ids = make_split([e.image_id for e in entries], config.seed)
    by_id = {e.image_id: e for e in entries}
    train = [by_id[i] for i in train_ids]

    load = partial(
        _scoring_state, config=config, need_sa="alpha_sa" in names, need_tj="alpha_tj" in names
    )
    loaded = _load_rows(load, train)
    if not loaded:
        print("no usable training images", file=sys.stderr)
        return 1

    def objective(weights) -> float:
        """Pixel-weighted FGCA over the train half, as ``eval`` reports it."""
        scores = {
            image_id: score_weights(state, weights) for image_id, state in loaded.items()
        }
        return build_report(scores).aggregate

    tuned, best, trace = grid_search_weights(
        objective, names=tuple(names), coarse_step=args.coarse_step
    )

    (out_dir / "weights.kv").write_text(format_keyvalues([
        ("alphaRef", f"{tuned.alpha_ref:.6f}"),
        ("alphaSA", f"{tuned.alpha_sa:.6f}"),
        ("alphaTJ", f"{tuned.alpha_tj:.6f}"),
        ("objective", f"{best:.6f}"),
        ("seed", config.seed),
        ("trainIds", ",".join(train_ids)),
        ("testIds", ",".join(test_ids)),
    ]))
    trace_lines = ["round " + " ".join(names) + " objective"]
    for round_index, point, value in trace:
        coords = " ".join(f"{v:.6f}" for v in point)
        trace_lines.append(f"{round_index} {coords} {value:.6f}")
    (out_dir / "trace.txt").write_text("".join(f"{l}\n" for l in trace_lines))
    print(
        f"tuned: alphaRef={tuned.alpha_ref:.4f} alphaSA={tuned.alpha_sa:.4f} "
        f"alphaTJ={tuned.alpha_tj:.4f} objective={best:.6f} "
        f"({len(trace)} evaluations)"
    )
    return 0


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------

# synth flag -> the generator parameter it sets
_SYNTH_FLAGS = {"size": "size", "gradient": "gradient", "radius": "r_outer"}


def cmd_synth(args) -> int:
    """Write one fixture; a flag its kind's generator does not take is
    refused, naming the flag."""
    taken = inspect.signature(stimuli.GENERATORS[args.kind]).parameters
    params = {}
    for flag, name in _SYNTH_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if name not in taken:
            raise ValueError(f"--{flag} does not apply to {args.kind}")
        params[name] = value
    stim = stimuli.generate(args.kind, **params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    gray = stim.image
    io.write_ppm(out_dir / "image.ppm", gray, gray, gray)
    io.write_lm1(out_dir / "gt.lm1", stim.signed.astype(np.int64))
    if stim.contours is not None:
        io.write_lm1(out_dir / "contours.lm1", stim.contours)
    if stim.segments is not None:
        io.write_lm1(out_dir / "segments.lm1", stim.segments)
    n_files = 2 + (stim.contours is not None) + (stim.segments is not None)
    print(f"wrote {n_files} files to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def _add_config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), help="named alpha triple"
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgo",
        description="Border-ownership / figure-ground model runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the model on one image")
    p_run.add_argument("--image", required=True)
    p_run.add_argument("--contours", help="contour-id LM1 map")
    p_run.add_argument("--segments", help="segment-id LM1 map")
    p_run.add_argument("--gt", help="signed ground-truth LM1 map")
    p_run.add_argument("--out", required=True)
    _add_config_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="score a dataset manifest")
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--compare", metavar="PRESET_A,PRESET_B")
    p_eval.add_argument(
        "--jobs", type=int, default=1,
        help="processes that score images, this one included (default 1)",
    )
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_tune = sub.add_parser("tune", help="grid-search cue weights")
    p_tune.add_argument("--manifest", required=True)
    p_tune.add_argument(
        "--weights",
        dest="weight_names",
        default=",".join(evaluation.SEARCH_NAMES),
        help="comma list of weights to search (others pinned to 0)",
    )
    p_tune.add_argument("--coarse-step", type=float, default=evaluation.COARSE_STEP)
    p_tune.add_argument("--out", required=True)
    _add_config_flags(p_tune)
    p_tune.set_defaults(func=cmd_tune)

    p_synth = sub.add_parser("synth", help="generate a synthetic fixture")
    p_synth.add_argument("kind", choices=sorted(stimuli.GENERATORS))
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--size", type=int)
    p_synth.add_argument("--gradient", type=float)
    p_synth.add_argument("--radius", type=float)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
