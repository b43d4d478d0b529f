"""Fast self-tests of the benchmark's own checks and tracing.

Run from the repository root::

    python3 -m pytest stwigbench -q
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from harness import measure
from layers import counters
from spans import END, PARENT, START, Tracer, self_times
from validate import Reference, degree_bands, motif_counts
from workloads import CoauthorWorkload, read_external_edges
from repro.workloads.motifs import MOTIFS

ROOT = Path(__file__).resolve().parent.parent

# Labels 0,0,1,1,0 on the path 0-1-2-3 plus the edges 0-2, 2-4 and 0-4.
TINY = Reference(
    np.array([0, 0, 1, 1, 0]), np.array([0, 1, 2, 0, 2, 0]), np.array([1, 2, 3, 2, 4, 4])
)
# a(0) - b(1) - c(0): a and c share a label but are not adjacent.
WEDGE = ({"a": 0, "b": 1, "c": 0}, [("a", "b"), ("c", "b")])


def problems(rows):
    return TINY.check_rows(np.array(rows), ("a", "b", "c"), *WEDGE)


def test_validator_accepts_embeddings():
    assert problems([[0, 2, 1], [1, 2, 0]]) == []


@pytest.mark.parametrize(
    "rows, fault",
    [
        ([[1, 0, 4]], "lacks label"),
        ([[0, 3, 1]], "not a data edge"),
        ([[0, 2, 0]], "share a node"),
        ([[0, 2, 1], [1, 2, 0], [0, 2, 1]], "repeats"),
    ],
)
def test_validator_rejects(rows, fault):
    found = problems(rows)
    assert found and all(fault in problem for problem in found), found


def brute_force(labels, edges, query):
    """Embeddings of ``query`` by trying every injective assignment."""
    adjacent = set(edges) | {(v, u) for u, v in edges}
    nodes = query.nodes()
    total = 0
    for image in itertools.permutations(range(len(labels)), len(nodes)):
        assign = dict(zip(nodes, image))
        if all(f"rank{labels[assign[q]]}" == query.label(q) for q in nodes) and all(
            (assign[a], assign[b]) in adjacent for a, b in query.edges()
        ):
            total += 1
    return total


def test_closed_forms_match_brute_force():
    # Hubs 0 and 1 (degree 8: rank2) share eight rank1 neighbours on a
    # ring with two chords; node 10 (degree 1) is rank0.
    edges = [(h, i) for h in (0, 1) for i in range(2, 10)]
    edges += [(i, i + 1) for i in range(2, 9)] + [(2, 4), (3, 5), (2, 10)]
    src, dst = np.array(edges).T
    bands = degree_bands(np.bincount(np.concatenate((src, dst))))
    assert sorted(set(bands.tolist())) == [0, 1, 2]
    closed = motif_counts(len(bands), src, dst, bands)
    keys = {"coauthor-triangle": "triangle", "star-collaboration": "star",
            "cross-label-path": "path"}
    for name, factory in MOTIFS.items():
        assert closed[keys[name]] == brute_force(bands, edges, factory()), name
    assert min(closed.values()) > 0


def test_closed_forms_on_the_unmodified_slice():
    pairs = read_external_edges(ROOT / "benchmarks" / "data" / "coauthor_5k.edges")
    index = np.searchsorted(np.unique(pairs), pairs)
    index = np.unique(np.sort(index[index[:, 0] != index[:, 1]], axis=1), axis=0)
    n = int(index.max()) + 1
    bands = degree_bands(np.bincount(index.ravel(), minlength=n))
    counts = motif_counts(n, index[:, 0], index[:, 1], bands)
    assert counts == {"triangle": 402, "star": 17268, "path": 3602}


def traced_pass(tmp_path):
    """coauthor-snapshot with one untraced and one traced set-up and round."""
    workload = CoauthorWorkload(ROOT, tmp_path)
    workload.setup_reps = 1
    workload.prepare(7)
    tracer = Tracer()
    started = time.perf_counter()
    plain, phase = measure(workload, 7, 0.0, tracer)
    wall = time.perf_counter() - started
    assert plain.failed == phase.failed == 0 and not phase.inconsistent
    assert len(plain.ops) == len(phase.ops) == len(workload.queries)
    return phase, tracer, wall


def test_traced_runs_repeat_counters_exactly(tmp_path):
    first, _, _ = traced_pass(tmp_path / "one")
    second, _, _ = traced_pass(tmp_path / "two")
    assert counters(first) == counters(second)
    assert first.bytes_written == second.bytes_written > 0


def test_spans_nest_and_self_times_fit_wall_time(tmp_path):
    _, tracer, wall = traced_pass(tmp_path)
    spans = tracer.spans
    assert len(spans) > 50
    for span in spans:
        assert span[START] <= span[END]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
    own = self_times(spans)
    assert min(own) > -1e-9
    assert sum(own) <= wall
