"""Design-space exploration over clock periods with warm-started re-solves.

The DSE layer answers "what is the fastest clock this design schedules
at?" (and, more generally, "what latency/register trade-offs exist across
clock periods?") by treating one (design, clock period) schedule as a
black-box probe and searching over periods.  The perf heart is the
warm-start engine (:mod:`repro.dse.warm`): across clock points of one
design the delay matrix is *identical* -- only the combinational budget
moves -- so it keeps answers, not constraint systems: one template
:class:`~repro.sdc.problem.ScheduleProblem` per design carries the
per-graph constants, and a probe whose timing bounds all equal a solved
period's takes that period's schedule without a build or a solve,
byte-identical to a cold solve.

Modules:

* :mod:`repro.dse.warm` -- per-design :class:`ProblemCache` (context build,
  fingerprint memoization, answer-reuse warm start) and
  :class:`ProbeOutcome`.
* :mod:`repro.dse.optimizer` -- the :class:`Optimizer` protocol
  (``next_batch`` / ``process_outcome`` / ``done`` / ``best``) with
  :class:`MinClockOptimizer` (bracketing + batch-speculative bisection)
  and :class:`ParetoOptimizer` (latency vs. register-count front).
* :mod:`repro.dse.search` -- the batched driver threading probes through a
  process pool with per-worker caches.
* :mod:`repro.dse.cli` -- the ``runner dse`` subcommand.

The warm-vs-cold speedup gate lives in ``benchmarks/test_speedup_gates.py``;
end-to-end DSE timings are measured by ``perfbench/`` (see
``perfbench/README.md``).
"""

from repro.dse.optimizer import (
    BestPoint,
    MinClockOptimizer,
    Optimizer,
    ParetoOptimizer,
    ParetoPoint,
)
from repro.dse.search import DesignSearchResult, DseResult, run_dse
from repro.dse.warm import DesignContext, ProbeOutcome, ProblemCache

__all__ = [
    "BestPoint",
    "DesignContext",
    "DesignSearchResult",
    "DseResult",
    "MinClockOptimizer",
    "Optimizer",
    "ParetoOptimizer",
    "ParetoPoint",
    "ProbeOutcome",
    "ProblemCache",
    "run_dse",
]
