"""In-memory spans around the program's layer entry points.

:func:`instrument` wraps the public functions each layer exposes — from
here, without touching the program's sources — so every call records a
span ``(name, start, end, parent, op)``.  ``parent`` is the index of the
enclosing span (``-1`` at the top) and ``op`` the benchmark operation the
call belongs to.  Spans stay in a list until :meth:`Tracer.write`.

A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Span names are
``<layer>.<function>``, so ``distributed.assemble_results`` and the
``distributed.machine_result_rows`` calls nested under the runtime's
``Executor.run`` add up to the distributed layer's own work (gather,
binding filter, concatenation).
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

# Indexes into a span record.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a span called ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(record)
            self._stack.append(index)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _runtime_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """Trace ``Executor.run`` and the ``on_result`` callback it drives.

    The callback is the exploration layer's binding merge, which the
    executor calls from inside ``run``; tracing it as an exploration span
    keeps that work out of the runtime's self time.
    """
    traced_run = tracer.wrap("runtime.run", fn)

    @functools.wraps(fn)
    def run(self, cloud, tasks, on_result=None):
        if on_result is not None:
            on_result = tracer.wrap("exploration.merge_bindings", on_result)
        return traced_run(self, cloud, tasks, on_result)

    return run


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function that undoes it.

    Module-level functions are replaced in the modules that call them
    (``from x import f`` binds a name per importing module).  The
    exploration module's own ``match_stwig`` name is left alone: ``explore``
    compares its matcher argument against it to pick the executor path.
    """
    from repro.cloud.cluster import MemoryCloud
    from repro.core import distributed, engine
    from repro.core.engine import SubgraphMatcher
    from repro.core.planner import QueryPlanner
    from repro.core.result import MatchResult
    from repro.core.tasks import TableHandle
    from repro.graph.generators import power_law
    from repro.ingest import edgelist, idmap
    from repro.runtime import executors
    from repro.serve.service import QueryService
    from repro.storage import delta
    from repro.storage.delta import DeltaLog

    functions: List[Tuple[object, str, str]] = [
        (engine, "explore", "exploration.explore"),
        (engine, "assemble_results", "distributed.assemble_results"),
        (executors, "match_stwig", "matcher.match_stwig"),
        (executors, "machine_result_rows", "distributed.machine_result_rows"),
        (distributed, "multiway_join", "join.multiway_join"),
        (idmap, "remap_results", "idmap.remap_results"),
        (power_law, "generate_power_law", "graph.generate_power_law"),
        (edgelist, "read_edge_list", "ingest.read_edge_list"),
        (edgelist, "ingest_edges", "ingest.ingest_edges"),
        (delta, "compact_snapshot", "storage.compact_snapshot"),
    ]
    methods: List[Tuple[type, str, str]] = [
        (QueryService, "submit", "serve.submit"),
        (SubgraphMatcher, "match", "engine.match"),
        (QueryPlanner, "plan_cached", "planner.plan_cached"),
        (TableHandle, "materialize", "result.materialize"),
        (MatchResult, "as_dicts", "result.as_dicts"),
        (MemoryCloud, "save_snapshot", "storage.save_snapshot"),
        (DeltaLog, "append_edges", "storage.append_edges"),
    ]
    classmethods: List[Tuple[type, str, str]] = [
        (MemoryCloud, "from_graph", "cloud.from_graph"),
        (MemoryCloud, "open_snapshot", "storage.open_snapshot"),
    ]
    undo: List[Tuple[object, str, object]] = []

    def replace(owner, attribute, new) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)

    for module, attribute, name in functions:
        replace(module, attribute, tracer.wrap(name, getattr(module, attribute)))
    for cls, attribute, name in methods:
        replace(cls, attribute, tracer.wrap(name, cls.__dict__[attribute]))
    for cls, attribute, name in classmethods:
        original = cls.__dict__[attribute].__func__
        replace(cls, attribute, classmethod(tracer.wrap(name, original)))
    for cls in (executors.SerialExecutor, executors.ThreadExecutor, executors.ProcessExecutor):
        replace(cls, "run", _runtime_wrapper(tracer, cls.__dict__["run"]))

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)
        undo.clear()

    return restore


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span (duration minus its direct children's)."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_of(name: str) -> str:
    """The layer a span name belongs to (the part before the first dot)."""
    return name.split(".", 1)[0]


def layer_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per layer: call count, total time (outermost spans of the layer) and self time."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        layer = layer_of(span[NAME])
        row = table.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[index]
        parent = span[PARENT]
        while parent >= 0 and layer_of(spans[parent][NAME]) != layer:
            parent = spans[parent][PARENT]
        if parent < 0:
            row["total_s"] += span[END] - span[START]
    return table
