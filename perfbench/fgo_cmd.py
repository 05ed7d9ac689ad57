"""Run one ``fgo`` CLI command under the benchmark's tracer.

    python3 perfbench/fgo_cmd.py --src SRC --record REC --spans SPANS --tracer MODE -- ARGS...

calls ``fgo.cli.main(ARGS)`` with the source tree ``SRC`` first on the
import path. ``MODE`` is ``none`` for the bare program, ``probes`` for
only the weight-point probes of ``tracer.PROBES`` and ``all`` for every
public function of the fgo layers. Writes to ``REC`` a JSON record of
the exit code, the wall time of ``main`` and the process's own peak
resident memory, and, unless ``MODE`` is ``none``, to ``SPANS`` the
tracer's spans and counters. The exit code is that of the command.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--tracer", choices=("none", "probes", "all"), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    import tracer
    from fgo import cli

    if args.tracer != "none":
        tracer.install(None if args.tracer == "all" else tracer.PROBES)
    start = perf_counter()
    rc = cli.main(argv)
    wall_s = perf_counter() - start
    sys.stdout.flush()
    if args.tracer != "none":
        tracer.dump(args.spans)
    record = {
        "rc": rc,
        "wall_s": wall_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
