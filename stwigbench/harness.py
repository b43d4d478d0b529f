"""One measured phase: set-ups, timed rounds, output checks, end-to-end metrics."""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, List

from spans import instrument


class Phase:
    """What one measured phase (set-ups plus timed rounds) observed."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.setup_seconds: List[float] = []
        self.latencies: Dict[int, List[float]] = {i: [] for i in range(len(workload.queries))}
        self.ops: List[int] = []  # query index of each timed operation, in order
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.rows = 0
        self.query_seconds = 0.0
        self.counters: Dict[int, dict] = {}
        self.inconsistent: List[str] = []
        self.plan_cache = (0, 0)  # planner hits and misses after the last operation
        self.bytes_written = 0

    def record(self, index: int, outcome) -> None:
        """Count and check one operation; ``outcome`` is (result, payload) or an exception."""
        self.attempted += 1
        name = self.workload.queries[index][0]
        if isinstance(outcome, Exception):
            self.failed += 1
            self.problems.append(f"{name}: raised {outcome!r}")
            return
        result, payload = outcome
        problems = self.workload.check(index, result, payload)
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {problems[0]}")
            return
        self.plan_cache = (result.stats.plan_cache_hits, result.stats.plan_cache_misses)
        counters = op_counters(result)
        if self.counters.setdefault(index, counters) != counters:
            self.inconsistent.append(name)


def op_counters(result) -> dict:
    """Exact per-operation counters from ``MatchResult.metrics`` and ``.stats``."""
    metrics = result.metrics
    return {
        "exploration.stwig_rows": result.stats.stwig_result_rows,
        "cloud.loads": metrics["local_loads"] + metrics["remote_loads"],
        "cloud.remote_loads": metrics["remote_loads"],
        "cloud.label_probes": metrics["local_label_probes"] + metrics["remote_label_probes"],
        "cloud.messages": metrics["messages"],
        "cloud.bytes_transferred": metrics["bytes_transferred"],
        "distributed.rows_shipped": metrics["result_rows_shipped"],
        "distributed.rows_filtered": metrics["result_rows_filtered"],
        "join.rows_materialized": result.stats.join_rows_materialized,
        "join.peak_intermediate_rows": result.stats.join_peak_intermediate_rows,
        "matches": result.match_count,
    }


def timed_call(fn, *args):
    """``(outcome, seconds)``; the outcome is the exception if ``fn`` raised."""
    started = time.perf_counter()
    try:
        outcome = fn(*args)
    except Exception as error:  # a failing operation is counted, not fatal
        outcome = error
    return outcome, time.perf_counter() - started


def measure(workload, seed: int, seconds: float, tracer=None) -> List[Phase]:
    """Set the workload up ``setup_reps`` times, then run whole rounds for ``seconds``.

    Each round answers every query once, in an order shuffled by ``seed``.
    Returns ``[untraced]``, or with a ``tracer`` ``[untraced, traced]``:
    set-ups and rounds then alternate between the program as it is and the
    program with its layer entry points wrapped (:func:`spans.instrument`),
    so a drift in machine speed during the run reaches both alike.  Spans
    are tagged ``setup-<k>`` or with the index of their operation among the
    traced phase's timed operations.
    """
    phases = [Phase(workload)] if tracer is None else [Phase(workload), Phase(workload)]
    for rep in range(workload.setup_reps * len(phases)):
        phase = phases[rep % len(phases)]
        workload.reset()
        with _traced(tracer, phase is not phases[0], f"setup-{len(phase.setup_seconds)}"):
            outcome, elapsed = timed_call(workload.setup)
        phase.setup_seconds.append(elapsed)
        phase.bytes_written = getattr(workload, "bytes_written", 0)
        phase.record(0, outcome)
        del outcome
    order = list(range(len(workload.queries)))
    shuffle = random.Random(seed)
    started = time.perf_counter()
    rounds = 0
    while rounds % len(phases) or time.perf_counter() - started < seconds or not rounds:
        phase = phases[rounds % len(phases)]
        shuffle.shuffle(order)
        with _traced(tracer, phase is not phases[0], None):
            for index in order:
                if tracer is not None:
                    tracer.op = len(phase.ops)
                outcome, elapsed = timed_call(workload.run_query, index)
                phase.ops.append(index)
                phase.latencies[index].append(elapsed)
                phase.query_seconds += elapsed
                if not isinstance(outcome, Exception):
                    phase.rows += outcome[0].match_count
                phase.record(index, outcome)
                del outcome
        rounds += 1
    workload.reset()
    return phases


@contextmanager
def _traced(tracer, active: bool, op):
    """Wrap the program's entry points for the block when ``active``."""
    if not active:
        yield
        return
    tracer.op = op
    restore = instrument(tracer)
    try:
        yield
    finally:
        restore()
        tracer.op = None


def end_to_end(phase: Phase) -> dict:
    """The four end-to-end metrics of a phase."""
    medians = [statistics.median(v) for v in phase.latencies.values()]
    return {
        "setup_s": {"value": statistics.median(phase.setup_seconds), "unit": "s"},
        "query_ms": {"value": 1e3 * statistics.fmean(medians), "unit": "ms"},
        "matches_per_s": {"value": phase.rows / phase.query_seconds, "unit": "1/s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def summarize(phases: List[Phase], metrics: dict) -> dict:
    """The result object over ``phases``; problems go to standard error."""
    for phase in phases:
        for problem in phase.problems[:10]:
            print(f"FAILED {problem}", file=sys.stderr)
        for name in sorted(set(phase.inconsistent)):
            print(f"INCONSISTENT counters across repeats of {name}", file=sys.stderr)
    return {
        "correct": not any(phase.inconsistent for phase in phases),
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": metrics,
    }
