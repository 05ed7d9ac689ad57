"""Seeded inputs for the benchmark workloads.

Every scene is a grid of occlusion pairs from
``fgo.stimuli.overlapping_squares`` on one shared background: square B
(the figure) occludes square A and carries a vertical shading gradient,
which gives the spectral-anisotropy cue something to find, and the two
overlaps form the T-junctions that the contour and segment maps
describe. The accuracy of a single pair swings widely with its edges,
grays and hues. A scene therefore holds a fixed, stratified set of
pairs (see ``_pair_parameters``), and the seed places them on the grid:
the set fixes the image-wide maxima that the model normalizes by. What
the placement still moves is how neighbouring pairs interact through
the coarse pyramid levels: over seeds 1-10, the pooled accuracy's
spread (interquartile range over median) is about 5 % on run-bsds and
under 1 % on the other two workloads, whose scenes are smaller.

Scenes are coloured per segment: the background and the two squares of
a pair take three hues a third of the hue circle apart, yellow for the
background and cyan and magenta for the squares, in either order and
with a jitter of up to 10 degrees. The three together make all
four rectified opponency maps (RG, GR, BY, YB) non-zero, so a colour
image runs all four opponency routes of the model; a gray image runs
none of them. Hue gains have unit mean, so the image intensity, and
with it the shading, is the gray stimulus. The background's gray and
hue and the grid's position are the same for every seed too.

Why each workload gets the inputs it gets:

* ``run-bsds``: one colour scene at the BSDS image size, 321x481, a
  4 x 6 grid of 80 px cells, with ground truth and label maps, so
  ``fgo run --preset with-both`` takes every route (four opponency
  routes, intensity, orientation, SA, TJ) on large arrays and writes
  16 maps of the full size.
* ``tune-small``: four small labelled colour fixtures of fixed sizes 64
  to 96 px in 32 px cells, so a sweep over (alphaRef, alphaSA, alphaTJ)
  spends its time in many finalize and scoring calls on cheap prepared
  states: the per-call overhead regime.
* ``eval-mixed``: four images of 96 to 256 px in 48 px cells, two colour
  and two gray, two with label maps and two without (their TJ weight
  folds into the contrast route), so dataset scoring goes through the
  PPM and LM1 readers, both sides of the TJ fold and a process pool
  whose tasks differ in cost.

Sizes and grids are fixed per workload and manifest row; the seed
shuffles the pairs over the cells of each scene. How much work a run
does therefore hardly depends on its seed.

Run as a script, it writes one copy of one workload's inputs and prints
how long the import of fgo and the writing took::

    python3 perfbench/scenes.py --workload run-bsds --seed 1 --out DIR --src src
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zlib
from pathlib import Path
from time import perf_counter

import numpy as np

BSDS_SHAPE = (321, 481)
BSDS_TILE = 80  # a 4 x 6 grid of occlusion pairs
TUNE_SIZES = (64, 72, 88, 96)
TUNE_TILE = 32
# (size, colour, labelled) per eval manifest row
EVAL_ROWS = ((96, True, True), (160, False, False), (192, True, False), (256, False, True))
EVAL_TILE = 48

_BACKGROUND = 0.2
_BACKGROUND_HUE = 60.0  # yellow
_FIGURE_HUES = (180.0, 300.0)  # cyan and magenta, in either order per pair
_SATURATION = 0.3


def _hue_vector(degrees: float) -> np.ndarray:
    """RGB gains with mean one: 1 + s * cos of the hue at each primary."""
    h = math.radians(degrees)
    phases = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    return np.array([1.0 + _SATURATION * math.cos(h - p) for p in phases])


def _pair_parameters(count: int, size: int) -> list:
    """Parameters of ``count`` occlusion pairs on ``size`` px cells.

    Every parameter is stratified over its range: it takes ``count``
    evenly spaced values (integer edge offsets and the two hue orders in
    equal shares), combined into pairs by a fixed shuffle. The set does
    not depend on the seed: the model normalizes its maps by their
    maxima over the whole image, so the pair that happened to combine
    the brightest occluder with the strongest shading and hue would
    move the accuracy of every other pair.

    The geometry is one template (A spans 16-56 % of the side, B 36-76 %)
    with every edge moved by up to 2 % of the side.
    """
    shuffle = np.random.default_rng(count).permutation
    slack = max(1, round(0.02 * size))

    def levels(low: float, high: float) -> np.ndarray:
        return shuffle(low + (high - low) * (np.arange(count) + 0.5) / count)

    def offsets() -> np.ndarray:
        return shuffle(np.resize(np.arange(-slack, slack + 1), count))

    edges = {name: round(fraction * size) + offsets()
             for name, fraction in (("a_first", 0.16), ("a_last", 0.56), ("b_first", 0.36), ("b_last", 0.76))}
    a_gray, b_gray, gradient = levels(0.35, 0.45), levels(0.50, 0.58), levels(0.12, 0.17)
    swap = shuffle(np.arange(count) % 2)
    jitter = [levels(-10.0, 10.0) for _ in _FIGURE_HUES]
    pairs = []
    for k in range(count):
        hues = _FIGURE_HUES[::-1] if swap[k] else _FIGURE_HUES
        pairs.append({
            "stimulus": dict(
                size=size, background=_BACKGROUND, a_gray=float(a_gray[k]),
                b_gray=float(b_gray[k]), gradient=float(gradient[k]),
                **{name: int(value[k]) for name, value in edges.items()},
            ),
            "hues": [h + j[k] for h, j in zip(hues, jitter)],
        })
    return pairs


def _scene(rng, shape, tile: int, colour: bool = True):
    """Occlusion pairs on a grid of ``tile`` px cells filling ``shape``.

    All pairs share one background segment (label 1) and gray; pair k
    has segments 2 + 2k (visible A) and 3 + 2k (B) and contours
    1 + 3k .. 3 + 3k. Returns (rgb, signed, contours, segments).
    """
    from fgo import stimuli

    n_c = shape[1] // tile
    gray = np.full(shape, _BACKGROUND)
    signed = np.zeros(shape, dtype=np.int64)
    contours = np.zeros(shape, dtype=np.int64)
    segments = np.ones(shape, dtype=np.int64)
    gains = [_hue_vector(_BACKGROUND_HUE)]
    pairs = _pair_parameters((shape[0] // tile) * n_c, tile)
    for k, index in enumerate(rng.permutation(len(pairs))):
        pair = pairs[index]
        stim = stimuli.overlapping_squares(**pair["stimulus"])
        window = np.s_[
            (k // n_c) * tile : (k // n_c + 1) * tile,
            (k % n_c) * tile : (k % n_c + 1) * tile,
        ]
        gray[window] = stim.image
        signed[window] = stim.signed
        contours[window] = np.where(stim.contours > 0, stim.contours + 3 * k, 0)
        # overlapping_squares labels visible A 1, B 2, background 3
        segments[window] = np.where(stim.segments == 3, 1, stim.segments + 1 + 2 * k)
        gains += [_hue_vector(h) for h in pair["hues"]]
    rgb = gray[:, :, None] * (np.stack(gains)[segments - 1] if colour else 1.0)
    rgb = np.clip(np.broadcast_to(rgb, shape + (3,)), 0.0, 1.0)
    return rgb, signed, contours, segments


def _write_scene(out: Path, name: str, rgb, signed, contours=None, segments=None) -> dict:
    from fgo import io

    files = {"image": f"{name}.ppm", "gt": f"{name}_gt.lm1"}
    io.write_ppm(out / files["image"], rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2])
    io.write_lm1(out / files["gt"], signed.astype(np.int64))
    if contours is not None:
        files["contours"] = f"{name}_contours.lm1"
        files["segments"] = f"{name}_segments.lm1"
        io.write_lm1(out / files["contours"], contours)
        io.write_lm1(out / files["segments"], segments)
    return files


def _manifest_line(image_id: str, files: dict) -> str:
    fields = [image_id, files["image"], files["gt"], "-"]
    if "contours" in files:
        fields += [files["contours"], files["segments"]]
    return " ".join(fields) + "\n"


def write_run_bsds(rng, out: Path) -> None:
    _write_scene(out, "scene", *_scene(rng, BSDS_SHAPE, BSDS_TILE))


def write_tune_small(rng, out: Path) -> None:
    lines = []
    for k, size in enumerate(TUNE_SIZES):
        files = _write_scene(out, f"fx{k}", *_scene(rng, (size, size), TUNE_TILE))
        lines.append(_manifest_line(f"fx{k}", files))
    (out / "manifest.txt").write_text("".join(lines))


def write_eval_mixed(rng, out: Path) -> None:
    lines = []
    for k, (size, colour, labelled) in enumerate(EVAL_ROWS):
        rgb, signed, contours, segments = _scene(rng, (size, size), EVAL_TILE, colour)
        labels = (contours, segments) if labelled else ()
        files = _write_scene(out, f"im{k}", rgb, signed, *labels)
        lines.append(_manifest_line(f"im{k}", files))
    (out / "manifest.txt").write_text("".join(lines))


WRITERS = {
    "run-bsds": write_run_bsds,
    "tune-small": write_tune_small,
    "eval-mixed": write_eval_mixed,
}


def write_inputs(workload: str, seed: int, out) -> None:
    """Write one workload's inputs for ``seed`` into the directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](np.random.default_rng([seed, zlib.crc32(workload.encode())]), out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WRITERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the inputs to")
    parser.add_argument("--src", required=True, help="directory holding the fgo package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    start = perf_counter()
    import fgo  # noqa: F401  (timed: set-up includes the import)

    imported = perf_counter()
    write_inputs(args.workload, args.seed, args.out)
    times = {"import_s": imported - start, "write_s": perf_counter() - imported}
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
