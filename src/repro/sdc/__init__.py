"""SDC (system-of-difference-constraints) scheduling.

This package implements the classic Cong & Zhang SDC scheduling formulation
that both XLS and the paper's baseline use:

* :mod:`~repro.sdc.constraints` -- difference-constraint objects and the
  constraint system container;
* :mod:`~repro.sdc.delays` -- per-node delays and the all-pairs critical-path
  (combinational) delay matrix used for timing constraints;
* :mod:`~repro.sdc.problem` -- the persistent :class:`ScheduleProblem`
  (cached objective data, constraint system with stable row identities,
  assembled LP structure) and its delta timing updates;
* :mod:`~repro.sdc.solver` -- LP solution (scipy HiGHS) of the constraint
  system with a register-lifetime objective, ASAP/ALAP solvers based on
  longest-path propagation, and the incremental re-solve of a persistent
  problem (plus the from-scratch reference it is tested against);
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
