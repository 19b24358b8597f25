"""From-scratch certificate of an emitted schedule.

:func:`verify_schedule_certificate` trusts nothing a solve path cached or
patched.  It rebuilds every dependency, timing and loop row of the graph
with :func:`~repro.sdc.problem.build_system` from the delay matrix, budget
and II the schedule claims, and checks that the schedule

* covers exactly the graph's nodes and satisfies every row and pin, and
* reaches the optimum of the full register-minimisation LP, solved cold
  over *every* row (no implied row dropped) straight through HiGHS.

Tests call it on the schedules warm paths emit: DSE probes served by a
clone-and-rebase or a plateau reuse, and ISDC iterations re-solved on a
patched problem.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from repro.ir.graph import DataflowGraph
from repro.sdc.problem import (assemble_lp, build_system, register_weights,
                               users_map)

#: Objective agreement demanded of the schedule and the LP optimum,
#: relative to the optimum's size (HiGHS solves to ~1e-7).
OBJECTIVE_TOLERANCE = 1e-6


def schedule_objective(graph: DataflowGraph, schedule: Mapping[int, int],
                       latency_weight: float = 1e-3) -> float:
    """The LP objective of an integral schedule.

    Each weighted value lives ``max(0, latest user - producer)`` stages;
    every operation adds ``latency_weight`` per cycle it starts late.
    """
    weights, users = register_weights(graph), users_map(graph)
    total = latency_weight * sum(schedule.values())
    for node_id, weight in weights.items():
        if weight > 0 and users[node_id]:
            lifetime = max(schedule[user] - schedule[node_id]
                           for user in users[node_id])
            total += weight * max(0, lifetime)
    return total


def verify_schedule_certificate(graph: DataflowGraph, matrix: np.ndarray,
                                index_of: Mapping[int, int],
                                budget_ps: float, ii: int,
                                schedule: Mapping[int, int],
                                latency_weight: float = 1e-3) -> None:
    """Check ``schedule`` against constraints rebuilt from scratch.

    Args:
        graph: the scheduled dataflow graph.
        matrix: the delay matrix the schedule was solved against.
        index_of: node id -> matrix row/column.
        budget_ps: combinational budget of one stage.
        ii: initiation interval of the loop rows.
        schedule: node id -> time step.
        latency_weight: tie-breaking objective weight of the solve.

    Raises:
        AssertionError: naming the first check the schedule fails.
    """
    system = build_system(graph, matrix, index_of, budget_ps, ii=ii)
    assert set(schedule) == system.variables, "schedule misses variables"
    violated = system.violations(dict(schedule))
    assert not violated, f"schedule violates {violated[:3]}"
    weights, users = register_weights(graph), users_map(graph)
    lp = assemble_lp(system, weights, users, latency_weight)
    if lp.a_ub is None:
        result = linprog(lp.objective, bounds=lp.bounds, method="highs")
    else:
        result = linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                         bounds=lp.bounds, method="highs")
    assert result.success, f"cold full LP failed: {result.message}"
    objective = schedule_objective(graph, schedule, latency_weight)
    assert abs(objective - result.fun) \
        <= OBJECTIVE_TOLERANCE * max(1.0, abs(result.fun)), \
        f"schedule objective {objective} != cold LP optimum {result.fun}"
