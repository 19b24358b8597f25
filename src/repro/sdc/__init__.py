"""SDC (system-of-difference-constraints) scheduling.

This package implements the classic Cong & Zhang SDC scheduling formulation
that both XLS and the paper's baseline use:

* :mod:`~repro.sdc.constraints` -- the constraint system: every row
  ``s_u - s_v <= bound`` stored as four aligned integer arrays ``u``,
  ``v``, ``bound`` and ``kind``;
* :mod:`~repro.sdc.delays` -- per-node delays and the all-pairs critical-path
  (combinational) delay matrix used for timing constraints;
* :mod:`~repro.sdc.problem` -- the one vectorized constraint build, the LP
  assembly (one sparse matrix call over the row arrays), the implied-row
  rule that keeps the solved LP to the rows no other rows imply, and the
  persistent :class:`ScheduleProblem`, whose timing, clock and II updates
  all write new bounds through one step into the rows and the cached LP;
* :mod:`~repro.sdc.solver` -- LP solution (scipy HiGHS) of the constraint
  system with a register-lifetime objective, ASAP/ALAP and the rounding
  repair as one vectorized Bellman-Ford fixpoint over the row arrays, and
  the incremental re-solve of a persistent problem (plus the from-scratch
  reference it is tested against);
* :mod:`~repro.sdc.scheduler` -- the end-to-end baseline scheduler;
* :mod:`~repro.sdc.pipeline` -- schedule → pipeline stages, register usage,
  post-synthesis slack.
"""

from repro.sdc.constraints import DifferenceConstraint, ConstraintSystem
from repro.sdc.delays import node_delays, critical_path_matrix
from repro.sdc.problem import ScheduleProblem, assemble_lp
from repro.sdc.solver import (
    FullSolver,
    IncrementalSolver,
    SdcInfeasibleError,
    solve_alap,
    solve_asap,
    solve_lp,
)
from repro.sdc.scheduler import SdcScheduler, Schedule
from repro.sdc.pipeline import PipelineAnalyzer, PipelineReport

__all__ = [
    "DifferenceConstraint",
    "ConstraintSystem",
    "node_delays",
    "critical_path_matrix",
    "ScheduleProblem",
    "assemble_lp",
    "solve_asap",
    "solve_alap",
    "solve_lp",
    "SdcInfeasibleError",
    "FullSolver",
    "IncrementalSolver",
    "SdcScheduler",
    "Schedule",
    "PipelineAnalyzer",
    "PipelineReport",
]
