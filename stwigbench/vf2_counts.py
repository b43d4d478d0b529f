"""Regenerate ``vf2_counts.json``: VF2 match counts of the join-heavy queries.

VF2 (``repro.baselines.vf2``) is a different algorithm from the STwig
engine, so its counts are an independent reference for ``join-heavy``.
Matches are counted, not kept, so memory stays flat.  Takes about seven
minutes on one core (9 s for seed 1009, 55 s for 1003, 76 s for 1001 and
274 s for 1012)::

    python3 stwigbench/vf2_counts.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.baselines.vf2 import _Vf2State  # noqa: E402

from workloads import GRAPH, QUERY_NODES, VF2_COUNTS, dfs_queries, generate_graph  # noqa: E402

SEEDS = (1001, 1003, 1009, 1012)


class _Counter:
    """Stands in for VF2's result list: counts appends, keeps nothing."""

    def __init__(self) -> None:
        self.count = 0

    def append(self, _match) -> None:
        self.count += 1

    def __len__(self) -> int:
        return self.count


def vf2_count(graph, query) -> int:
    state = _Vf2State(graph, query, None)
    state.results = _Counter()
    state.search()
    return state.results.count


def main() -> None:
    graph = generate_graph()
    counts = {}
    for name, query in dfs_queries(graph, SEEDS):
        started = time.perf_counter()
        counts[name.split("-", 1)[1]] = vf2_count(graph, query)
        print(f"{name}: {counts[name.split('-', 1)[1]]} matches "
              f"({time.perf_counter() - started:.1f} s)", flush=True)
    doc = {"graph": GRAPH, "query_nodes": QUERY_NODES, "counts": counts}
    VF2_COUNTS.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
