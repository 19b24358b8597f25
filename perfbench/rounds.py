"""Closed-loop rounds over a fixed design list (isdc-cold, dse-minclock).

A workload supplies ``run_round(tracer)``, which serves every design once
from cold state and returns ``(wall_s, records)`` with each record's
request latency last, and ``score(records, failures)``, which checks the
answers, appends a message per problem and returns the failed count.
"""

from __future__ import annotations

import time
from statistics import median

from layers import coverage, span_metrics, split_lines
from measure import latency_notes
from tracing import Tracer


def measure_rounds(run_round, score, seconds: float, min_rounds: int) -> dict:
    """Rounds until the next would end past ``seconds`` (``min_rounds`` at least)."""
    walls: list[float] = []
    latencies: list[float] = []
    failures: list[str] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        wall, records = run_round(None)
        walls.append(wall)
        latencies.extend(record[-1] for record in records)
        attempted += len(records)
        failed += score(records, failures)
        spent = time.perf_counter() - started
        if len(walls) >= min_rounds and spent + spent / len(walls) > seconds:
            break
    wall_s = median(walls)
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {"wall_s": wall_s},
        "notes": latency_notes(latencies, wall_s, len(walls)) + [
            f"{len(walls)} rounds of {len(records)} designs; round walls "
            + ", ".join(f"{wall:.3f}" for wall in walls) + " s"],
    }


def trace_round(run_round, score, install, counters) -> dict:
    """One untraced and one traced round: the split, coverage, overhead.

    ``install(tracer)`` puts the spans on; ``counters(records)`` returns
    the workload's own per-layer counts read off the traced round.
    """
    plain_wall, plain_records = run_round(None)
    tracer = Tracer()
    install(tracer)
    try:
        traced_wall, records = run_round(tracer)
    finally:
        tracer.restore()
    failures: list[str] = []
    failed = score(plain_records, failures) + score(records, failures)
    metrics = span_metrics(tracer)
    metrics.update(counters(records))
    metrics.update({
        "sdc.lp_solves": metrics.get("sdc.highs.calls", 0),
        "trace.wall_s": traced_wall,
        "trace.coverage": coverage(tracer, traced_wall),
        "trace.overhead": traced_wall / plain_wall - 1.0,
    })
    return {"attempted": 2 * len(records), "failed": failed,
            "failures": failures, "metrics": metrics, "tracer": tracer,
            "notes": [f"untraced round {plain_wall:.3f} s, traced round "
                      f"{traced_wall:.3f} s"] + split_lines(tracer,
                                                          traced_wall)}
