"""Command-line interface: run, eval, tune, synth.

Outputs are plain text (FM1/LM1 maps, key=value reports) and binary
PGM/PPM images; identical configuration, inputs and seed give
bit-identical files. ``run`` computes and writes the full final maps;
``eval`` and ``tune`` prepare each image once and score every weight
point from its boundary windows (``evaluation.score_weights``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import io, stimuli
from .channels import RGBImage
from .config import PRESETS, RunConfig, apply_lines, apply_preset, key_name, load_config
from .cues import format_junction
from .evaluation import (
    ALPHA_NAMES,
    build_report,
    check_search,
    decisions_for,
    fgca_of,
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
from .ownership import N_SIDES
from .pipeline import prepare_components, run_model

DIRECTION_GRAY_STEP = 15  # winning map index i shown as (i + 1) * 15
CORRECT_GRAY = 255
WRONG_GRAY = 0
TIE_GRAY = 192
BACKGROUND_GRAY = 128


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------

def _read_image(path: Path) -> RGBImage:
    if path.suffix.lower() != ".ppm":
        raise ValueError(f"unsupported image format {path.suffix!r} (want .ppm)")
    return RGBImage(*io.read_ppm(path))


def _load_labels(*paths) -> list:
    return [io.read_lm1(path) if path else None for path in paths]


def _load_truths(paths, shape) -> list:
    """The ground truths at ``paths`` that have boundary records. A
    truth whose map is not the image ``shape`` is refused, and so are
    truths none of which has a record."""
    gts = [load_ground_truth(io.read_signed_map(path)) for path in paths]
    for gt in gts:
        gt.check_shape(shape)
    gts = [gt for gt in gts if len(gt)]
    if not gts:
        raise ValueError("no usable ground truth records")
    return gts


def _config_from_args(args) -> RunConfig:
    """The config file, then the preset, then each ``--set``, then
    ``--weights``; the weights are checked once all are set, before
    anything is read or written."""
    config = RunConfig()
    if args.config:
        config = load_config(args.config, config)
    if args.preset:
        config = apply_preset(config, args.preset)
    config = apply_lines(config, args.set or [], "--set {line}")
    triple = getattr(args, "weights", None)
    if triple:
        parts = triple.split(",")
        if len(parts) != 3:
            raise ValueError(f"--weights expects alphaRef,alphaSA,alphaTJ, got {triple!r}")
        lines = [f"{name}={value}" for name, value in zip(ALPHA_NAMES, parts)]
        config = apply_lines(config, lines, "--weights {line}")
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
    image = _read_image(Path(args.image))
    contours, segments = _load_labels(args.contours, args.segments)
    gt = _load_truths([args.gt], image.shape)[0] if args.gt else None
    result = run_model(image, config.weights(), config.params, contours, segments)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for ti in range(result.final.shape[0]):
        for si in range(N_SIDES):
            path = out_dir / f"final_t{ti}_s{si}.fm1"
            io.write_fm1(path, result.final[ti, si])
            written.append(path)
    io.write_pgm(out_dir / "direction.pgm", _direction_image(result.final))
    written.append(out_dir / "direction.pgm")

    if contours is not None:
        lines = [format_junction(j) for j in result.junctions]
        (out_dir / "junctions.txt").write_text("".join(f"{l}\n" for l in lines))
        written.append(out_dir / "junctions.txt")

    if gt is not None:
        dirs, ties = decisions_for(result.final, gt)
        fgca = fgca_of(gt, [(dirs, ties)])
        correctness = _correctness_image(result.final.shape[2:], gt, dirs, ties)
        io.write_pgm(out_dir / "correctness.pgm", correctness)
        written.append(out_dir / "correctness.pgm")
        print(f"fgca={fgca.accuracy:.6f} pixels={fgca.pixels} ties={fgca.ties}")

    print(f"wrote {len(written)} files to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# eval / tune dataset plumbing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestEntry:
    """One dataset row: id, image and ground truths, optional labels."""

    image_id: str
    image: str
    gts: list
    contours: str | None
    segments: str | None


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
    """Read one row's image, label maps and ground truths, prepare the
    image and keep what scoring a weight point reads (a
    :class:`ScoringState`). The truths are checked
    (:func:`_load_truths`) before the image is prepared."""
    image = _read_image(Path(entry.image))
    contours, segments = _load_labels(entry.contours, entry.segments)
    gts = _load_truths(entry.gts, image.shape)
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


def _load_row(task):
    """``(image_id, load(entry), None)``, or ``(image_id, None, message)``
    when the row is refused: a file that cannot be read (OSError) or a
    value the library refuses (ValueError). Any other error is a fault
    and propagates."""
    load, entry = task
    try:
        return entry.image_id, load(entry), None
    except (OSError, ValueError) as exc:
        return entry.image_id, None, str(exc)


def _load_rows(load, entries, jobs: int = 1) -> dict:
    """``{image_id: load(entry)}`` over the rows that are not refused, in
    row order, on a pool of up to ``jobs`` processes; each refused row
    is skipped with a message."""
    tasks = [(load, entry) for entry in entries]
    workers = min(jobs, len(tasks))  # a fork pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_load_row, tasks))
    else:
        results = list(map(_load_row, tasks))
    loaded = {}
    for image_id, result, message in results:
        if message is None:
            loaded[image_id] = result
        else:
            print(f"skipped {image_id}: {message}", file=sys.stderr)
    return loaded


def _score_dataset(entries, config: RunConfig, weight_sets, jobs: int) -> list:
    """Per weight set ``{image_id: FGCAResult}`` over the rows that are
    not refused (:func:`_load_rows`)."""
    load = partial(_score_entry, config=config, weight_sets=weight_sets)
    scores = _load_rows(load, entries, jobs)
    return [{i: r[w] for i, r in scores.items()} for w in range(len(weight_sets))]


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    config = _config_from_args(args)
    if args.compare:
        if config.weight_keys:
            raise ValueError(
                "--compare names both alpha triples; it takes no --preset, --weights "
                "or alpha key"
            )
        names = [n.strip() for n in args.compare.split(",")]
        if len(names) != 2:
            raise ValueError(f"--compare expects two presets, got {args.compare!r}")
        configs = [apply_preset(config, name) for name in names]
        weight_sets = [c.weights() for c in configs]
        labels = names
    else:
        weight_sets = [config.weights()]
        labels = [args.preset or "model"]
    entries = parse_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    per_preset = _score_dataset(entries, config, weight_sets, args.jobs)
    if not per_preset[0]:
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
        lines = (
            f"presetA={labels[0]}\n"
            f"presetB={labels[1]}\n"
            f"aggregateA={reports[0].aggregate:.6f}\n"
            f"aggregateB={reports[1].aggregate:.6f}\n"
            f"pValue={p_value:.6g}\n"
        )
        (out_dir / "compare.kv").write_text(lines)
        print(f"pValue={p_value:.6g}")
    return 0


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------

def cmd_tune(args) -> int:
    config = _config_from_args(args)
    names = []
    for token in args.weight_names.split(","):
        name = key_name(token)
        if name not in ALPHA_NAMES:
            raise ValueError(f"unknown weight name {token.strip()!r}")
        names.append(name)
    check_search(names, args.coarse_step)
    entries = parse_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    split = make_split([e.image_id for e in entries], config.seed)
    by_id = {e.image_id: e for e in entries}
    train = [by_id[i] for i in split.train_ids]

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

    weights_text = (
        f"alphaRef={tuned.alpha_ref:.6f}\n"
        f"alphaSA={tuned.alpha_sa:.6f}\n"
        f"alphaTJ={tuned.alpha_tj:.6f}\n"
        f"objective={best:.6f}\n"
        f"seed={config.seed}\n"
        f"trainIds={','.join(split.train_ids)}\n"
        f"testIds={','.join(split.test_ids)}\n"
    )
    (out_dir / "weights.kv").write_text(weights_text)
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

def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = {}
    if args.size is not None:
        params["size"] = args.size
    if args.gradient is not None:
        params["gradient"] = args.gradient
    if args.radius is not None:
        params["r_outer"] = args.radius
    stim = stimuli.generate(args.kind, **params)

    written = []
    gray = stim.image
    io.write_ppm(out_dir / "image.ppm", gray, gray, gray)
    written.append(out_dir / "image.ppm")
    io.write_lm1(out_dir / "gt.lm1", stim.signed.astype(np.int64))
    written.append(out_dir / "gt.lm1")
    if stim.contours is not None:
        io.write_lm1(out_dir / "contours.lm1", stim.contours)
        written.append(out_dir / "contours.lm1")
    if stim.segments is not None:
        io.write_lm1(out_dir / "segments.lm1", stim.segments)
        written.append(out_dir / "segments.lm1")
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def _add_config_flags(parser, with_weights=True):
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
    if with_weights:
        parser.add_argument(
            "--weights", metavar="REF,SA,TJ", help="explicit alpha triple"
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
    p_eval.add_argument("--jobs", type=int, default=1)
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_tune = sub.add_parser("tune", help="grid-search cue weights")
    p_tune.add_argument("--manifest", required=True)
    p_tune.add_argument(
        "--weights",
        dest="weight_names",
        default="alphaRef,alphaSA",
        help="comma list of weights to search (others pinned to 0)",
    )
    p_tune.add_argument("--coarse-step", type=float, default=0.1)
    p_tune.add_argument("--out", required=True)
    _add_config_flags(p_tune, with_weights=False)
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
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
