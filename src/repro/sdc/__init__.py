"""SDC (system-of-difference-constraints) scheduling.

This package implements the classic Cong & Zhang SDC scheduling formulation
that both XLS and the paper's baseline use:

* :mod:`~repro.sdc.constraints` -- the constraint system: every row
  ``s_u - s_v <= bound`` stored as four aligned integer arrays ``u``,
  ``v``, ``bound`` and ``kind``;
* :mod:`~repro.sdc.delays` -- per-node delays and the all-pairs critical-path
  (combinational) delay matrix used for timing constraints;
* :mod:`~repro.sdc.problem` -- the one vectorized constraint build, the
  implied-row rule that keeps the solved LP to the rows no other rows
  imply, and the persistent :class:`ScheduleProblem`, whose timing, clock
  and II updates all write new bounds through one step into the rows;
* :mod:`~repro.sdc.flow` -- the register-lifetime LP's dual as a min-cost
  flow, solved exactly by a dual network simplex, with its optimality
  certificate and the least optimal schedule it determines;
* :mod:`~repro.sdc.solver` -- the one production solve of a persistent
  problem, ASAP/ALAP as one vectorized Bellman-Ford fixpoint over the row
  arrays, and the incremental re-solve of the ISDC loop;
* :mod:`~repro.sdc.highs` -- the HiGHS reference the tests hold the flow
  solve to (loads scipy; never imported by production code);
* :mod:`~repro.sdc.scheduler` -- the end-to-end baseline scheduler;
* :mod:`~repro.sdc.pipeline` -- schedule → pipeline stages, register usage,
  post-synthesis slack.
"""

from repro.sdc.constraints import DifferenceConstraint, ConstraintSystem
from repro.sdc.delays import node_delays, critical_path_matrix
from repro.sdc.problem import ScheduleProblem
from repro.sdc.solver import (
    IncrementalSolver,
    SdcInfeasibleError,
    solve_alap,
    solve_asap,
)
from repro.sdc.scheduler import SdcScheduler, Schedule
from repro.sdc.pipeline import PipelineAnalyzer, PipelineReport

__all__ = [
    "DifferenceConstraint",
    "ConstraintSystem",
    "node_delays",
    "critical_path_matrix",
    "ScheduleProblem",
    "solve_asap",
    "solve_alap",
    "SdcInfeasibleError",
    "IncrementalSolver",
    "SdcScheduler",
    "Schedule",
    "PipelineAnalyzer",
    "PipelineReport",
]
