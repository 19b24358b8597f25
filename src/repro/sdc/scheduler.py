"""The baseline SDC scheduler (Cong & Zhang formulation, XLS-style objective)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.ir.graph import DataflowGraph
from repro.sdc.constraints import ConstraintSystem
from repro.sdc.delays import critical_path_matrix, node_delays
from repro.sdc.flow import check_latency_weight
from repro.sdc.loops import min_feasible_ii
from repro.sdc.problem import (
    ScheduleProblem,
    build_system,
    register_weights,
    users_map,
)
from repro.tech.delay_model import OperatorModel

__all__ = [
    "Schedule",
    "SchedulingResult",
    "SdcScheduler",
    "register_weights",
    "users_map",
]


@dataclass(frozen=True)
class Schedule:
    """A pipeline schedule: every node mapped to a time step (clock cycle).

    Attributes:
        graph: the scheduled dataflow graph.
        clock_period_ps: target clock period used to derive the schedule.
        stages: node id -> stage index (0-based).
        ii: initiation interval -- a new loop iteration issues every ``ii``
            cycles.  Always 1 for feed-forward (DAG) designs; for pipelined
            loops it is the minimum II the recurrence constraints allow.
    """

    graph: DataflowGraph
    clock_period_ps: float
    stages: dict[int, int]
    ii: int = 1

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages (max stage index + 1)."""
        if not self.stages:
            return 0
        return max(self.stages.values()) + 1

    def stage_of(self, node_id: int) -> int:
        """Stage index of a node."""
        return self.stages[node_id]

    def nodes_in_stage(self, stage: int) -> list[int]:
        """Node ids scheduled into ``stage`` (ascending id order)."""
        return sorted(nid for nid, s in self.stages.items() if s == stage)

    def stage_node_map(self) -> dict[int, list[int]]:
        """Mapping from stage index to the node ids in that stage."""
        mapping: dict[int, list[int]] = {}
        for node_id, stage in self.stages.items():
            mapping.setdefault(stage, []).append(node_id)
        return {stage: sorted(nodes) for stage, nodes in sorted(mapping.items())}

    def lifetime(self, node_id: int) -> int:
        """Stage boundaries the node's result must cross to reach its users."""
        users = self.graph.users_of(node_id)
        if not users:
            return 0
        return max(0, max(self.stages[u] for u in set(users)) - self.stages[node_id])


@dataclass
class SchedulingResult:
    """Everything produced by one scheduler invocation.

    Attributes:
        schedule: the resulting schedule.
        delay_matrix: all-pairs critical-path delay matrix (naive estimates).
        index_of: node id -> matrix row/column.
        runtime_s: wall-clock scheduling time in seconds.
        problem: the persistent :class:`~repro.sdc.problem.ScheduleProblem`
            built for the graph (its ``system`` is the one that was
            solved); the ISDC loop adopts it for all re-solves.
        solve_runtime_s: wall-clock time of constraint build + LP solve alone
            (excludes delay characterisation).
    """

    schedule: Schedule
    delay_matrix: np.ndarray
    index_of: dict[int, int]
    runtime_s: float
    problem: ScheduleProblem = field(repr=False)
    solve_runtime_s: float = 0.0

    @property
    def num_constraints(self) -> int:
        """Total difference constraints in the solved system."""
        return len(self.problem.system)


class SdcScheduler:
    """The original SDC scheduling algorithm used as the paper's baseline.

    Args:
        delay_model: object exposing ``node_delay(node)``; defaults to the
            closed-form :class:`~repro.tech.delay_model.OperatorModel`.
        clock_period_ps: target clock period.
        register_overhead_ps: sequential overhead (clock-to-Q plus setup)
            subtracted from the clock period to obtain the combinational
            timing budget of a stage.  Defaults to the synthetic SKY130
            register figure so reported post-synthesis slack stays
            non-negative by construction.
        pin_sources: pin parameters and constants to cycle 0 (models operands
            arriving with the pipeline's first stage).
        latency_weight: tie-breaking weight pulling operations earlier
            (finite and ``>= 0``; anything else raises ``ValueError``).
    """

    def __init__(self, delay_model=None, clock_period_ps: float = 2500.0,
                 register_overhead_ps: float | None = None,
                 pin_sources: bool = True, latency_weight: float = 1e-3) -> None:
        self.delay_model = delay_model or OperatorModel()
        self.clock_period_ps = float(clock_period_ps)
        if register_overhead_ps is None:
            register_overhead_ps = _default_register_overhead()
        self.register_overhead_ps = float(register_overhead_ps)
        self.timing_budget_ps = self.clock_period_ps - self.register_overhead_ps
        if not math.isfinite(self.timing_budget_ps):
            raise ValueError(f"clock period {self.clock_period_ps} and "
                             f"register overhead {self.register_overhead_ps} "
                             "must be finite")
        if self.timing_budget_ps <= 0:
            raise ValueError("clock period does not cover the register overhead")
        self.pin_sources = pin_sources
        self.latency_weight = check_latency_weight(latency_weight)

    def build_constraints(self, graph: DataflowGraph, matrix: np.ndarray,
                          index_of: Mapping[int, int]) -> ConstraintSystem:
        """Build the full constraint system for ``graph``."""
        return build_system(graph, matrix, index_of, self.timing_budget_ps,
                            self.pin_sources)

    def schedule(self, graph: DataflowGraph) -> SchedulingResult:
        """Schedule ``graph`` and return the full :class:`SchedulingResult`."""
        start_time = time.perf_counter()
        delays = node_delays(graph, self.delay_model)
        self._check_clock(graph, delays)
        matrix, index_of = critical_path_matrix(graph, delays)
        solve_start = time.perf_counter()
        problem = ScheduleProblem(graph, matrix, index_of,
                                  self.timing_budget_ps,
                                  latency_weight=self.latency_weight,
                                  pin_sources=self.pin_sources)
        # The minimum feasible II: one solve at II 1 for a DAG, in-place
        # rebase_ii probes of the persistent problem for a pipelined loop.
        ii, solution = min_feasible_ii(problem)
        end_time = time.perf_counter()
        schedule = Schedule(graph=graph, clock_period_ps=self.clock_period_ps,
                            stages=solution, ii=ii)
        return SchedulingResult(schedule=schedule, delay_matrix=matrix,
                                index_of=index_of,
                                runtime_s=end_time - start_time,
                                problem=problem,
                                solve_runtime_s=end_time - solve_start)

    def _check_clock(self, graph: DataflowGraph, delays: dict[int, float]) -> None:
        """Reject clock periods smaller than the largest single-operation delay."""
        worst = max(delays.values(), default=0.0)
        if worst > self.timing_budget_ps:
            slowest = max(delays, key=delays.get)
            raise ValueError(
                f"operation {graph.node(slowest).name} needs {worst:.0f} ps, which "
                f"exceeds the {self.timing_budget_ps:.0f} ps combinational budget of "
                f"the {self.clock_period_ps:.0f} ps clock period; raise the clock "
                f"period (the paper uses 5000 ps for such designs)")


def _default_register_overhead() -> float:
    """Register overhead of the default technology library."""
    from repro.tech.sky130 import sky130_library

    return sky130_library().register_delay_ps
