"""Self-test of the benchmark: one seed, two runs, the same results.

    python3 perfbench/check_repeat.py [--workload NAME ...] [--seed N]

Runs each workload (all by default) twice untraced and twice traced on
one seed, from the root of a source checkout, and checks that

* every result lists exactly the metrics, with the units, that
  ``BENCHMARK.json`` names for its mode, and nothing failed;
* ``fgca``, ``attempted`` and ``failed`` repeat exactly;
* every computed per-layer count repeats exactly: the call counts,
  ``grid.correlate2d.mflop_computed`` and ``.mib_computed``,
  ``filters.make_von_mises.distinct_ratio``, ``cues.junctions``,
  ``pipeline.prepared_mib``, ``io.write_fm1.mib`` and
  ``evaluation.grid_search_weights.points``. Times and the two time
  ratios are not expected to repeat.

Prints the first result of each pair. Exits 0 when every check holds
and 1 otherwise. Takes about ten minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_RATIOS = ("cli.eval.worker_busy_share", "trace.overhead_share")


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    exact = {
        0: ["fgca"],
        1: [name for name, unit in expected[1].items() if unit != "s" and name not in TIME_RATIOS],
    }
    problems = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            first, second = (run(workload, args.seed, trace, 1) for _ in range(2))
            label = f"{workload} trace {trace}"
            for result in (first, second):
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{label}: metrics {sorted(units)} are not those of BENCHMARK.json")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: failed {result['failed']} of {result['attempted']}")
            for key in ("attempted", "failed"):
                if first[key] != second[key]:
                    problems.append(f"{label}: {key} {first[key]} then {second[key]}")
            for name in exact[trace]:
                a, b = (r["metrics"].get(name, {}).get("value") for r in (first, second))
                if a != b:
                    problems.append(f"{label}: {name} {a} then {b}")
            print(f"{label}: checked {len(exact[trace])} exact values; first result:", flush=True)
            print(json.dumps(first), flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("repeat check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
