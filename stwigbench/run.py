"""Benchmark of the STwig engine: one client, closed loop, serial executor.

Usage (from the repository root)::

    python3 stwigbench/run.py --workload join-heavy --seed 1 --seconds 20 --trace 0

A run sets the workload up ``SETUP_REPS`` times (``setup_s`` is the
median), then answers its query list in whole rounds, each round in an
order shuffled by ``--seed``, until ``--seconds`` of wall time have passed.
Every output is checked outside the timed region; an operation that raises
or fails its check counts as failed.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
set-ups and rounds alternate between the program as it is and the program
with its layer entry points wrapped (:mod:`spans`); the run prints a
per-layer table and reports the per-layer metrics plus the tracing
overhead (traced minus untraced end-to-end figures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from harness import end_to_end, measure, summarize

    work_dir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, ROOT, work_dir)
        workload.prepare(args.seed)
        if args.trace:
            import layers

            report = layers.traced_run(workload, args, work_dir.parent)
        else:
            phases = measure(workload, args.seed, args.seconds)
            report = summarize(phases, end_to_end(phases[0]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
