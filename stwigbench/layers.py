"""The traced run: per-layer metrics from spans and the engine's counters.

Per-operation layer times follow ``query_ms``: the median over the repeats
of each query, then the mean over the query list.  Set-up layer times are
the median over the set-up repetitions.  Counters are exact: the sum over
one pass of the query list (``join.peak_intermediate_rows`` is the
largest single value).  A layer a workload does not cross reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

from harness import end_to_end, measure, summarize
from spans import END, NAME, OP, PARENT, START, Tracer, layer_of, layer_table, self_times

#: metric -> (how, span name or layer) for per-operation times.
QUERY_TIMES = {
    "planner.plan_ms": ("total", "planner.plan_cached"),
    "serve.submit_self_ms": ("self", "serve.submit"),
    "engine.match_self_ms": ("self", "engine.match"),
    "exploration.explore_self_ms": ("layer", "exploration"),
    "runtime.run_self_ms": ("layer", "runtime"),
    "matcher.match_stwig_ms": ("total", "matcher.match_stwig"),
    "distributed.assemble_self_ms": ("layer", "distributed"),
    "join.multiway_join_ms": ("total", "join.multiway_join"),
    "result.materialize_ms": ("total", "result.materialize"),
    "result.as_dicts_ms": ("self", "result.as_dicts"),
    "idmap.remap_ms": ("total", "idmap.remap_results"),
}

#: metric -> span names called directly by the set-up path.
SETUP_TIMES = {
    "graph.generate_ms": ("graph.generate_power_law",),
    "cloud.load_ms": ("cloud.from_graph",),
    "ingest.edge_list_ms": ("ingest.read_edge_list", "ingest.ingest_edges"),
    "storage.save_ms": ("storage.save_snapshot",),
    "storage.append_ms": ("storage.append_edges",),
    "storage.compact_ms": ("storage.compact_snapshot",),
    "storage.open_ms": ("storage.open_snapshot",),
}

SUMMED_COUNTERS = (
    "exploration.stwig_rows",
    "cloud.loads",
    "cloud.remote_loads",
    "cloud.label_probes",
    "cloud.messages",
    "cloud.bytes_transferred",
    "distributed.rows_shipped",
    "distributed.rows_filtered",
    "join.rows_materialized",
)


def op_times(spans: List[list]) -> Dict[object, Dict[str, float]]:
    """Seconds per ``QUERY_TIMES`` metric, per operation id."""
    own = self_times(spans)
    per_op: Dict[object, Dict[str, float]] = defaultdict(lambda: dict.fromkeys(QUERY_TIMES, 0.0))
    for index, span in enumerate(spans):
        values = per_op[span[OP]]
        for metric, (how, key) in QUERY_TIMES.items():
            if how == "layer":
                if layer_of(span[NAME]) == key:
                    values[metric] += own[index]
            elif span[NAME] == key:
                values[metric] += own[index] if how == "self" else span[END] - span[START]
    return per_op


def setup_times(spans: List[list], reps: int) -> Dict[str, float]:
    """Median seconds per ``SETUP_TIMES`` metric over the set-up repetitions."""
    sums = {metric: [0.0] * reps for metric in SETUP_TIMES}
    for span in spans:
        op = span[OP]
        if span[PARENT] >= 0 or not (isinstance(op, str) and op.startswith("setup-")):
            continue
        rep = int(op.split("-", 1)[1])
        for metric, names in SETUP_TIMES.items():
            if span[NAME] in names:
                sums[metric][rep] += span[END] - span[START]
    return {metric: statistics.median(values) for metric, values in sums.items()}


def counters(phase) -> Dict[str, float]:
    """Exact counters over one pass of the query list."""
    per_query = [phase.counters[i] for i in sorted(phase.counters)]
    totals = {name: sum(c[name] for c in per_query) for name in SUMMED_COUNTERS}
    totals["join.peak_intermediate_rows"] = max(
        c["join.peak_intermediate_rows"] for c in per_query
    )
    matches = sum(c["matches"] for c in per_query)
    materialized = totals["join.rows_materialized"]
    totals["join.useful_ratio"] = matches / materialized if materialized else 1.0
    return totals


def layer_metrics(phase, tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of a traced phase (times in ms, counts as counts)."""
    per_op = op_times(tracer.spans)
    by_query = defaultdict(list)
    for op, index in enumerate(phase.ops):
        by_query[index].append(per_op.get(op, dict.fromkeys(QUERY_TIMES, 0.0)))
    metrics: Dict[str, float] = {}
    for metric in QUERY_TIMES:
        medians = [statistics.median(v[metric] for v in ops) for ops in by_query.values()]
        metrics[metric] = 1e3 * statistics.fmean(medians)
    for metric, seconds in setup_times(tracer.spans, len(phase.setup_seconds)).items():
        metrics[metric] = 1e3 * seconds
    hits, misses = phase.plan_cache
    metrics["planner.cache_hit_ratio"] = hits / max(1, hits + misses)
    metrics.update(counters(phase))
    metrics["storage.bytes_written"] = phase.bytes_written
    return metrics


UNITS = {
    "planner.cache_hit_ratio": "ratio",
    "join.useful_ratio": "ratio",
    "cloud.bytes_transferred": "bytes",
    "storage.bytes_written": "bytes",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    return "count"


def traced_run(workload, args, out_dir) -> dict:
    """Alternating untraced and traced measurement (see :func:`harness.measure`)."""
    tracer = Tracer()
    plain, traced = measure(workload, args.seed, args.seconds, tracer)
    baseline = end_to_end(plain)
    observed = end_to_end(traced)
    metrics = layer_metrics(traced, tracer)
    metrics["tracing.query_overhead_ms"] = (
        observed["query_ms"]["value"] - baseline["query_ms"]["value"]
    )
    metrics["tracing.setup_overhead_s"] = (
        observed["setup_s"]["value"] - baseline["setup_s"]["value"]
    )

    print(f"# {workload.name}: traced phase, {len(traced.ops)} operations, "
          f"{len(tracer.spans)} spans")
    print(f"# {'layer':<12} {'calls':>8} {'total_ms':>12} {'self_ms':>12}")
    for layer, row in sorted(layer_table(tracer.spans).items()):
        print(f"# {layer:<12} {row['calls']:>8} {1e3 * row['total_s']:>12.3f} "
              f"{1e3 * row['self_s']:>12.3f}")
    for name in ("setup_s", "query_ms", "matches_per_s"):
        print(f"# untraced {name} {baseline[name]['value']:.6g}  traced {observed[name]['value']:.6g}")
    tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")

    return summarize(
        [plain, traced],
        {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(metrics.items())},
    )
