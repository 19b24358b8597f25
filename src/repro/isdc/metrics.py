"""Per-iteration history and final results of the ISDC loop."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sdc.pipeline import PipelineReport
from repro.sdc.scheduler import Schedule


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one ISDC iteration.

    Attributes:
        iteration: 0 for the initial (plain SDC) schedule, then 1, 2, ...
        num_stages: pipeline depth of the iteration's schedule.
        num_registers: pipeline register bits of the iteration's schedule.
        subgraphs_evaluated: subgraphs sent to the downstream flow this
            iteration (0 for the initial schedule).
        matrix_updates: delay-matrix entries lowered by feedback + propagation.
        estimation_error: mean relative error of the scheduler's stage-delay
            estimates against post-synthesis STA (``None`` when tracking is
            disabled).
        naive_estimation_error: the same error computed with the original
            (feedback-free) delay matrix -- the "original SDC" curve of the
            paper's Fig. 7.
        runtime_s: wall-clock time spent in this iteration.
        solver_runtime_s: wall-clock time of the iteration's scheduling
            re-solve (constraint bound patches or rebuild, then the flow
            solve); for iteration 0 the baseline's constraint build + solve.
        synthesis_runtime_s: wall-clock time spent extracting subgraphs and
            evaluating them through the downstream flow (0 for iteration 0).
    """

    iteration: int
    num_stages: int
    num_registers: int
    subgraphs_evaluated: int = 0
    matrix_updates: int = 0
    estimation_error: float | None = None
    naive_estimation_error: float | None = None
    runtime_s: float = 0.0
    solver_runtime_s: float = 0.0
    synthesis_runtime_s: float = 0.0


@dataclass
class IsdcResult:
    """Final outcome of an ISDC run.

    Attributes:
        design: design name.
        initial_schedule: the plain-SDC starting point.
        final_schedule: the schedule of the best (lowest-register) iteration.
        initial_report: pipeline report of the starting point.
        final_report: pipeline report of the best iteration.
        history: one :class:`IterationRecord` per iteration, in order.
        iterations: number of refinement iterations actually run.
        total_runtime_s: total wall-clock scheduling time (including the
            initial SDC schedule and all feedback evaluations).
        baseline_runtime_s: wall-clock time of the initial SDC schedule alone.
        subgraphs_evaluated: total distinct subgraphs synthesised (true
            backend runs; evaluation-cache answers are excluded).
        solver_runtime_s: cumulative scheduling-solve time across the run
            (sum of the per-iteration ``solver_runtime_s``).
        synthesis_runtime_s: cumulative subgraph extraction + downstream
            evaluation time across the run.
    """

    design: str
    initial_schedule: Schedule
    final_schedule: Schedule
    initial_report: PipelineReport
    final_report: PipelineReport
    history: list[IterationRecord] = field(default_factory=list)
    iterations: int = 0
    total_runtime_s: float = 0.0
    baseline_runtime_s: float = 0.0
    subgraphs_evaluated: int = 0
    solver_runtime_s: float = 0.0
    synthesis_runtime_s: float = 0.0

    @property
    def register_reduction(self) -> float:
        """Fractional register reduction relative to the initial schedule."""
        initial = self.initial_report.num_registers
        if initial == 0:
            return 0.0
        return 1.0 - self.final_report.num_registers / initial

    @property
    def runtime_ratio(self) -> float:
        """ISDC runtime divided by the baseline SDC runtime."""
        if self.baseline_runtime_s <= 0:
            return float("inf")
        return self.total_runtime_s / self.baseline_runtime_s

    def register_trajectory(self) -> list[int]:
        """Register usage per iteration (for the Fig. 5 / Fig. 6 curves)."""
        return [record.num_registers for record in self.history]

    def estimation_error_trajectory(self) -> list[float | None]:
        """Estimation error per iteration (for the Fig. 7 curves)."""
        return [record.estimation_error for record in self.history]
