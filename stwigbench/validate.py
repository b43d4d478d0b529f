"""Reference checks computed apart from the engine.

Everything here works on plain numpy arrays that the benchmark builds
itself — the generator's CSR arrays or the benchmark's own parse of an
edge list — never on the memory cloud, so a fault in the engine's storage
or lookup paths cannot hide behind a matching fault in the check.

* :class:`Reference` holds node labels and an undirected edge set over
  node indexes ``0..n-1`` and validates result rows as embeddings: each
  column carries its query node's label, each query edge is a data edge,
  the columns of a row are pairwise distinct, and no row repeats.
* :func:`motif_counts` gives the closed-form embedding counts of the three
  co-authorship motifs (triangle, star, path) under degree-band labels.
* :func:`degree_bands` re-derives those labels from degrees.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Rows checked per block, which bounds the validator's own memory.
CHUNK_ROWS = 1 << 18
#: At most this many problems are reported per check.
MAX_PROBLEMS = 5

_MIX = np.uint64(0x9E3779B97F4A7C15)
_MUL = np.uint64(0xBF58476D1CE4E5B9)


class Reference:
    """Labels and undirected edges of a data graph over indexes ``0..n-1``."""

    def __init__(self, labels: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
        self.labels = np.asarray(labels)
        self.node_count = len(self.labels)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n = np.int64(self.node_count)
        self._keys = np.unique(np.concatenate((src * n + dst, dst * n + src)))

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Boolean mask: is ``(u[i], v[i])`` an edge?"""
        keys = u.astype(np.int64) * np.int64(self.node_count) + v.astype(np.int64)
        at = np.searchsorted(self._keys, keys)
        at[at == len(self._keys)] = 0
        return self._keys[at] == keys if len(self._keys) else np.zeros(len(keys), bool)

    def check_rows(
        self,
        rows: np.ndarray,
        columns: Sequence[str],
        query_labels: Dict[str, object],
        query_edges: Sequence[Tuple[str, str]],
    ) -> List[str]:
        """Problems found in ``rows`` (empty when every row is a valid embedding).

        Args:
            rows: ``(r, len(columns))`` node indexes.
            columns: query-node name of each column.
            query_labels: query node -> label, in the same encoding as
                :attr:`labels`.
            query_edges: query edges as pairs of query-node names.
        """
        rows = np.asarray(rows)
        problems: List[str] = []
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            return [f"result shape {rows.shape} does not fit columns {tuple(columns)}"]
        if set(columns) != set(query_labels):
            return [f"result columns {tuple(columns)} are not the query nodes"]
        col = {name: i for i, name in enumerate(columns)}
        for start in range(0, len(rows), CHUNK_ROWS):
            block = rows[start : start + CHUNK_ROWS]
            if block.size and (block.min() < 0 or block.max() >= self.node_count):
                problems.append(f"rows {start}+: node index out of range")
                break
            for name, label in query_labels.items():
                bad = np.flatnonzero(self.labels[block[:, col[name]]] != label)
                if len(bad):
                    problems.append(
                        f"row {start + int(bad[0])}: column {name} lacks label {label}"
                    )
            for a, b in query_edges:
                bad = np.flatnonzero(~self.has_edges(block[:, col[a]], block[:, col[b]]))
                if len(bad):
                    problems.append(
                        f"row {start + int(bad[0])}: query edge {a}-{b} is not a data edge"
                    )
            width = block.shape[1]
            for i in range(width):
                for j in range(i + 1, width):
                    bad = np.flatnonzero(block[:, i] == block[:, j])
                    if len(bad):
                        problems.append(
                            f"row {start + int(bad[0])}: columns {columns[i]} and "
                            f"{columns[j]} share a node"
                        )
            if len(problems) >= MAX_PROBLEMS:
                break
        if not problems:
            duplicate = first_duplicate_row(rows)
            if duplicate is not None:
                problems.append(f"row {duplicate} repeats an earlier row")
        return problems[:MAX_PROBLEMS]


def row_hashes(rows: np.ndarray) -> np.ndarray:
    """A 64-bit hash per row (equal rows hash equal; collisions are possible)."""
    hashes = np.empty(len(rows), dtype=np.uint64)
    for start in range(0, len(rows), CHUNK_ROWS):
        block = rows[start : start + CHUNK_ROWS].astype(np.uint64)
        h = np.zeros(len(block), dtype=np.uint64)
        for column in block.T:
            h = (h ^ (column + _MIX)) * _MUL
            h ^= h >> np.uint64(31)
        hashes[start : start + CHUNK_ROWS] = h
    return hashes


def first_duplicate_row(rows: np.ndarray):
    """Index of a row that repeats another row, or ``None``.

    Rows are hashed, the hashes sorted, and only rows whose hashes collide
    are compared exactly, so memory stays at two 8-byte words per row.
    """
    if len(rows) < 2:
        return None
    hashes = row_hashes(rows)
    order = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[order]
    same = np.flatnonzero(sorted_hashes[1:] == sorted_hashes[:-1])
    if not len(same):
        return None
    suspects = np.unique(np.concatenate((order[same], order[same + 1])))
    block = rows[suspects]
    _, first, counts = np.unique(block, axis=0, return_index=True, return_counts=True)
    if (counts > 1).any():
        return int(suspects[first[counts > 1][0]])
    return None


def degree_bands(degrees: np.ndarray, cuts: Sequence[int] = (2, 8, 32)) -> np.ndarray:
    """Band index per node: ``k`` when exactly ``k`` cuts are ``<= degree``."""
    return np.searchsorted(np.asarray(sorted(cuts)), degrees, side="right")


def motif_counts(
    node_count: int, src: np.ndarray, dst: np.ndarray, bands: np.ndarray
) -> Dict[str, int]:
    """Closed-form embedding counts of the co-authorship motifs.

    ``src``/``dst`` are the undirected edges (no self-loops, no repeats) and
    ``bands`` the degree band of each node (1 = ``rank1``, 2 = ``rank2``).

    * triangle (three ``rank1`` nodes): 6 embeddings per ``rank1`` triangle;
    * star (a ``rank2`` centre with three ``rank1`` leaves): ``k(k-1)(k-2)``
      per centre with ``k`` ``rank1`` neighbours;
    * path (``rank2``-``rank1``-``rank2``): ``m(m-1)`` per ``rank1`` middle
      with ``m`` ``rank2`` neighbours.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    bands = np.asarray(bands)
    both = np.concatenate((src, dst))
    other = np.concatenate((dst, src))

    dense = both[(bands[both] == 2) & (bands[other] == 1)]
    k = np.bincount(dense, minlength=node_count).astype(np.int64)
    star = int((k * (k - 1) * (k - 2)).sum())

    middle = both[(bands[both] == 1) & (bands[other] == 2)]
    m = np.bincount(middle, minlength=node_count).astype(np.int64)
    path = int((m * (m - 1)).sum())

    inner = (bands[src] == 1) & (bands[dst] == 1)
    adjacency: Dict[int, set] = {}
    for u, v in zip(src[inner].tolist(), dst[inner].tolist()):
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    triangles = 0
    for u, neighbours in adjacency.items():
        for v in neighbours:
            if v > u:
                triangles += sum(1 for w in neighbours & adjacency[v] if w > v)
    return {"triangle": 6 * triangles, "star": star, "path": path}
