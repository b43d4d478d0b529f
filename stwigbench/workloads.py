"""The benchmark's three workloads.

Each workload has

* ``prepare(seed)`` — builds the benchmark's own inputs and references
  (query list, delta batch, reference graph, expected counts) outside any
  timed region;
* ``setup()`` — the timed set-up path, from the first call into the
  program until the first query has answered and its result is consumed;
* ``run_query(index)`` — one timed operation, returning the
  :class:`~repro.core.result.MatchResult` and the consumed payload;
* ``check(index, result, payload)`` — the untimed output check, returning
  a list of problems (empty when the output is right);
* ``reset()`` — releases the state of the previous set-up.

Calls into the program go through module and class attributes
(``power_law.generate_power_law``, ``MemoryCloud.from_graph``, ...), so the
traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro.api as api
from repro.cloud.cluster import MemoryCloud
from repro.cloud.config import ClusterConfig
from repro.core.engine import SubgraphMatcher
from repro.graph.generators import power_law
from repro.ingest import edgelist
from repro.query.generators import dfs_query
from repro.storage import delta
from repro.storage.delta import DeltaLog
from repro.storage.snapshot import DATA_NAME
from repro.workloads.motifs import MOTIFS

from validate import Reference, degree_bands, motif_counts

HERE = Path(__file__).resolve().parent
VF2_COUNTS = HERE / "vf2_counts.json"

#: The baseline power-law graph: 100k nodes, average degree 8, label
#: density 5e-4 (50 labels), graph seed 29, on 4 machines.
GRAPH = {"nodes": 100_000, "degree": 8, "label_density": 5e-4, "seed": 29}
MACHINES = 4
QUERY_NODES = 6

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = {"join-heavy": 7, "first-k": 11, "coauthor-snapshot": 15}


def generate_graph():
    """The baseline graph, straight from the generator."""
    return power_law.generate_power_law(
        GRAPH["nodes"], GRAPH["degree"], label_density=GRAPH["label_density"], seed=GRAPH["seed"]
    )


def dfs_queries(graph, seeds):
    """``(name, query)`` for 6-node DFS queries drawn from ``graph``."""
    return [(f"dfs-{s}", dfs_query(graph, QUERY_NODES, seed=s)) for s in seeds]


def graph_reference(graph) -> Reference:
    """Labels and edges read from the generator's CSR arrays."""
    offsets = np.asarray(graph.offset_array())
    neighbors = np.asarray(graph.neighbor_array())
    node_ids = np.asarray(graph.node_id_array())
    if not np.array_equal(node_ids, np.arange(len(node_ids))):
        raise SystemExit("the generated graph's node IDs are not 0..n-1")
    src = np.repeat(node_ids, np.diff(offsets))
    return Reference(np.asarray(graph.label_id_array()), src, neighbors)


class GeneratedWorkload:
    """DFS queries over the baseline power-law graph, via ``SubgraphMatcher.match``.

    Results are consumed as the numpy array behind ``result.table``.  A
    result byte-identical to one already validated for the same query
    shares its verdict, so the full check runs once per distinct output.
    """

    def __init__(self, name: str, seeds, limit) -> None:
        self.name = name
        self.setup_reps = SETUP_REPS[name]
        self.seeds = tuple(seeds)
        self.limit = limit
        self.cloud = None
        self.matcher = None
        self._verdicts: Dict[Tuple[int, bytes], List[str]] = {}

    def prepare(self, seed: int) -> None:
        graph = generate_graph()
        self.queries = dfs_queries(graph, self.seeds)
        self.reference = graph_reference(graph)
        table = graph.label_table
        self.query_labels = [
            {node: table.id_of(query.label(node)) for node in query.nodes()}
            for _, query in self.queries
        ]
        self.expected = self._expected_counts()

    def _expected_counts(self) -> List[int]:
        if self.limit is not None:
            return [self.limit] * len(self.queries)
        doc = json.loads(VF2_COUNTS.read_text())
        if doc["graph"] != GRAPH or doc["query_nodes"] != QUERY_NODES:
            raise SystemExit(f"{VF2_COUNTS} was made for another graph; regenerate it")
        missing = [s for s in self.seeds if str(s) not in doc["counts"]]
        if missing:
            raise SystemExit(f"{VF2_COUNTS} lacks VF2 counts for seeds {missing}")
        return [doc["counts"][str(s)] for s in self.seeds]

    def reset(self) -> None:
        if self.matcher is not None:
            self.matcher.close()
            self.cloud.close()
        self.cloud = self.matcher = None

    def setup(self):
        graph = generate_graph()
        self.cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=MACHINES))
        self.matcher = SubgraphMatcher(self.cloud, executor="serial")
        return self.run_query(0)

    def run_query(self, index: int):
        result = self.matcher.match(self.queries[index][1], limit=self.limit)
        return result, result.table.materialize().to_array()

    def check(self, index: int, result, payload) -> List[str]:
        problems: List[str] = []
        if len(payload) != self.expected[index]:
            source = "limit" if self.limit is not None else "VF2"
            problems.append(f"{len(payload)} rows, {source} says {self.expected[index]}")
        if self.limit is not None and not result.stats.truncated:
            problems.append("a first-k result is not marked truncated")
        key = (index, hashlib.sha1(np.ascontiguousarray(payload)).digest())
        verdict = self._verdicts.get(key)
        if verdict is None:
            query = self.queries[index][1]
            verdict = self.reference.check_rows(
                payload, result.columns, self.query_labels[index], query.edges()
            )
            self._verdicts[key] = verdict
        return problems + verdict


#: Size of the seeded batch of new co-author edges appended to the delta log.
DELTA_EDGES = 256
#: Motif name -> key of its closed-form count.
MOTIF_COUNT_KEYS = {
    "coauthor-triangle": "triangle",
    "star-collaboration": "star",
    "cross-label-path": "path",
}


def read_external_edges(path: Path) -> np.ndarray:
    """The edge list's ``(m, 2)`` external-ID pairs, parsed apart from the program."""
    return np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)


class CoauthorWorkload:
    """Ingest, snapshot, log append, compaction and reopen; motif queries via ``Session.query``.

    The delta batch is drawn from ``--seed``: ``DELTA_EDGES`` new edges
    between distinct existing authors that are not yet co-authors.
    """

    name = "coauthor-snapshot"

    def __init__(self, root: Path, work_dir: Path) -> None:
        self.setup_reps = SETUP_REPS[self.name]
        self.edge_path = root / "benchmarks" / "data" / "coauthor_5k.edges"
        self.snapshot_dir = work_dir / "snapshot"
        self.session = None
        self.bytes_written = 0

    def prepare(self, seed: int) -> None:
        pairs = read_external_edges(self.edge_path)
        self.externals = np.unique(pairs)
        index = np.searchsorted(self.externals, pairs)
        index = index[index[:, 0] != index[:, 1]]
        index = np.unique(np.sort(index, axis=1), axis=0)
        n = len(self.externals)
        bands = degree_bands(np.bincount(index.ravel(), minlength=n))

        existing = set((index[:, 0] * n + index[:, 1]).tolist())
        rng = np.random.default_rng(seed)
        batch: List[Tuple[int, int]] = []
        while len(batch) < DELTA_EDGES:
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u != v and u * n + v not in existing:
                existing.add(u * n + v)
                batch.append((u, v))
        added = np.asarray(batch, dtype=np.int64)
        self.delta_external = self.externals[added]

        edges = np.concatenate((index, added))
        self.reference = Reference(bands, edges[:, 0], edges[:, 1])
        counts = motif_counts(n, edges[:, 0], edges[:, 1], bands)
        self.queries = [(name, factory()) for name, factory in MOTIFS.items()]
        self.expected = [counts[MOTIF_COUNT_KEYS[name]] for name, _ in self.queries]
        self.query_labels = [
            {node: int(query.label(node)[len("rank"):]) for node in query.nodes()}
            for _, query in self.queries
        ]

    def reset(self) -> None:
        if self.session is not None:
            self.session.close()
        self.session = None
        shutil.rmtree(self.snapshot_dir, ignore_errors=True)

    def setup(self):
        directory = self.snapshot_dir
        src, dst, _ = edgelist.read_edge_list(str(self.edge_path))
        graph = edgelist.ingest_edges(
            src, dst, labeler=edgelist.degree_band_labeler(), source=str(self.edge_path)
        )
        cloud = MemoryCloud.from_graph(graph, ClusterConfig(machine_count=MACHINES))
        try:
            cloud.save_snapshot(directory)
        finally:
            cloud.close()
        written = (directory / DATA_NAME).stat().st_size
        log = DeltaLog(directory)
        log.append_edges(graph.id_map.to_dense(self.delta_external.ravel()).reshape(-1, 2))
        written += log.size_bytes()
        delta.compact_snapshot(directory)
        self.bytes_written = written + (directory / DATA_NAME).stat().st_size
        self.session = api.connect(directory, executor="serial")
        return self.run_query(0)

    def run_query(self, index: int):
        result = self.session.query(self.queries[index][1])
        return result, result.as_dicts()

    def check(self, index: int, result, payload) -> List[str]:
        problems: List[str] = []
        if len(payload) != self.expected[index]:
            problems.append(f"{len(payload)} rows, the closed form says {self.expected[index]}")
        query = self.queries[index][1]
        columns = tuple(query.nodes())
        external = np.asarray(
            [[row[c] for c in columns] for row in payload], dtype=np.int64
        ).reshape(len(payload), len(columns))
        rows = np.searchsorted(self.externals, external)
        rows[rows == len(self.externals)] = 0
        unknown = np.flatnonzero((self.externals[rows] != external).any(axis=1))
        if len(unknown):
            return problems + [f"row {int(unknown[0])} holds an ID not in the edge list"]
        return problems + self.reference.check_rows(
            rows, columns, self.query_labels[index], query.edges()
        )


def make_workload(name: str, root: Path, work_dir: Path):
    if name == "join-heavy":
        return GeneratedWorkload(name, (1001, 1003, 1009, 1012), limit=None)
    if name == "first-k":
        return GeneratedWorkload(name, (*range(1001, 1010), 1012), limit=1024)
    if name == "coauthor-snapshot":
        return CoauthorWorkload(root, work_dir)
    raise SystemExit(f"unknown workload {name!r}")
