"""The ISDC iterative scheduling loop (paper Section III-A, Fig. 2)."""

from __future__ import annotations

import time

import numpy as np

from repro.ir.graph import DataflowGraph
from repro.isdc.config import IsdcConfig
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.extraction import SubgraphExtractor
from repro.isdc.feedback import FeedbackEngine
from repro.isdc.metrics import IsdcResult, IterationRecord
from repro.isdc.reformulate import propagate_delays
from repro.sdc.pipeline import PipelineAnalyzer, count_pipeline_registers
from repro.sdc.problem import ScheduleProblem
from repro.sdc.scheduler import Schedule, SdcScheduler
from repro.sdc.solver import IncrementalSolver
from repro.synth.backend import create_backend
from repro.synth.estimator import CharacterizedOperatorModel
from repro.tech.delay_model import OperatorModel
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library


class IsdcScheduler:
    """Feedback-guided iterative SDC scheduler.

    The loop mirrors the paper's Fig. 2: schedule with plain SDC, extract
    combinational subgraphs from the schedule, measure their post-synthesis
    delays, fold the measurements into the pairwise delay matrix (Alg. 1),
    re-propagate the matrix (Alg. 2), update the timing constraints, re-solve
    the LP, and repeat until register usage stops improving.

    One persistent :class:`~repro.sdc.problem.ScheduleProblem` (built by the
    baseline SDC schedule) is held for the whole loop, so the register
    weights, users map, constraint system and assembled LP are built once
    per graph.  Each iteration's re-solve re-derives the timing bounds from
    the whole updated delay matrix and patches the ones that moved, or
    rebuilds when the constrained-pair set changed
    (:class:`~repro.sdc.solver.IncrementalSolver`), with schedules and
    histories byte-identical to rebuilding everything from the delay matrix
    (see ``tests/isdc/test_solver_parity.py``).  After a run,
    ``last_problem`` and ``last_solver`` expose the rebuild/patch counters.

    Args:
        config: loop configuration; a default :class:`IsdcConfig` is used
            when omitted.
        library: technology library shared by the delay model, the feedback
            flow and the pipeline analyser.
        delay_model: override the isolated-operation delay model (mostly for
            tests); by default a characterised or closed-form model is chosen
            according to ``config.use_characterized_delays``.
    """

    def __init__(self, config: IsdcConfig | None = None,
                 library: TechLibrary | None = None,
                 delay_model=None) -> None:
        self.config = config or IsdcConfig()
        self.library = library or sky130_library()
        if delay_model is not None:
            self.delay_model = delay_model
        elif self.config.use_characterized_delays:
            self.delay_model = CharacterizedOperatorModel(self.library)
        else:
            self.delay_model = OperatorModel(self.library)
        if self.config.register_overhead_ps is None:
            self.register_overhead_ps = self.library.register_delay_ps
        else:
            self.register_overhead_ps = float(self.config.register_overhead_ps)
        self.timing_budget_ps = self.config.clock_period_ps - self.register_overhead_ps
        if self.timing_budget_ps <= 0:
            raise ValueError("clock period does not cover the register overhead")
        self.extractor = SubgraphExtractor(self.config)
        self.feedback = FeedbackEngine(create_backend(
            self.config.backend, self.library,
            optimize=self.config.optimize_subgraphs))
        # Reports go through the loop's cache: their stage sets have usually
        # been synthesised already (by the estimation-error tracking).
        self.analyzer = PipelineAnalyzer(flow=self.feedback.cache,
                                         library=self.library)
        self.last_problem: ScheduleProblem | None = None
        self.last_solver: IncrementalSolver | None = None

    # ------------------------------------------------------------------ public

    def schedule(self, graph: DataflowGraph) -> IsdcResult:
        """Run the full ISDC loop on ``graph`` and return the result bundle."""
        config = self.config
        total_start = time.perf_counter()

        baseline = SdcScheduler(delay_model=self.delay_model,
                                clock_period_ps=config.clock_period_ps,
                                register_overhead_ps=self.register_overhead_ps,
                                latency_weight=config.latency_weight)
        base_result = baseline.schedule(graph)
        baseline_runtime = base_result.runtime_s
        problem = base_result.problem
        solver = IncrementalSolver()
        self.last_problem = problem
        self.last_solver = solver

        delay_matrix = DelayMatrix(graph, base_result.delay_matrix.copy(),
                                   dict(base_result.index_of))
        naive_matrix = DelayMatrix(graph, base_result.delay_matrix.copy(),
                                   dict(base_result.index_of))

        current = base_result.schedule
        current_registers, _ = count_pipeline_registers(current)
        history: list[IterationRecord] = [IterationRecord(
            iteration=0,
            num_stages=current.num_stages,
            num_registers=current_registers,
            estimation_error=self._estimation_error(current, delay_matrix),
            runtime_s=baseline_runtime,
            solver_runtime_s=base_result.solve_runtime_s,
        )]
        self._log(history[-1])

        best_schedule = current
        best_registers = current_registers
        iterations_run = 0
        stale_iterations = 0

        for iteration in range(1, config.max_iterations + 1):
            iteration_start = time.perf_counter()
            subgraphs = self.extractor.extract(current, delay_matrix)
            if not subgraphs:
                break
            feedback = self.feedback.evaluate(graph, subgraphs)
            synthesis_runtime = time.perf_counter() - iteration_start
            updates = delay_matrix.update_with_feedback(
                (item.node_ids, item.delay_ps) for item in feedback)
            updates += propagate_delays(delay_matrix)

            solver_start = time.perf_counter()
            current = self._reschedule(problem, solver, delay_matrix)
            solver_runtime = time.perf_counter() - solver_start
            current_registers, _ = count_pipeline_registers(current)
            iterations_run = iteration

            record = IterationRecord(
                iteration=iteration,
                num_stages=current.num_stages,
                num_registers=current_registers,
                subgraphs_evaluated=len(feedback),
                matrix_updates=updates,
                estimation_error=self._estimation_error(current, delay_matrix),
                naive_estimation_error=self._estimation_error(current, naive_matrix),
                runtime_s=time.perf_counter() - iteration_start,
                solver_runtime_s=solver_runtime,
                synthesis_runtime_s=synthesis_runtime,
            )
            history.append(record)
            self._log(record)

            if current_registers < best_registers:
                best_registers = current_registers
                best_schedule = current
                stale_iterations = 0
            else:
                stale_iterations += 1
            if stale_iterations >= config.patience:
                break

        total_runtime = time.perf_counter() - total_start
        # Read before the reports: ``subgraphs_evaluated`` counts the loop's
        # syntheses, not the report stages the cache had to synthesise.
        evaluations = self.feedback.evaluations
        initial_report = self.analyzer.report(base_result.schedule)
        final_report = self.analyzer.report(best_schedule)
        return IsdcResult(
            design=graph.name,
            initial_schedule=base_result.schedule,
            final_schedule=best_schedule,
            initial_report=initial_report,
            final_report=final_report,
            history=history,
            iterations=iterations_run,
            total_runtime_s=total_runtime,
            baseline_runtime_s=baseline_runtime,
            subgraphs_evaluated=evaluations,
            solver_runtime_s=sum(r.solver_runtime_s for r in history),
            synthesis_runtime_s=sum(r.synthesis_runtime_s for r in history),
        )

    # ----------------------------------------------------------------- helpers

    def _reschedule(self, problem: ScheduleProblem, solver: IncrementalSolver,
                    delay_matrix: DelayMatrix) -> Schedule:
        """Re-solve the persistent problem against the updated delay matrix."""
        solution = solver.solve(problem, delay_matrix.matrix,
                                delay_matrix.index_of)
        return Schedule(graph=problem.graph,
                        clock_period_ps=self.config.clock_period_ps,
                        stages=solution, ii=problem.ii)

    def _estimation_error(self, schedule: Schedule, delay_matrix: DelayMatrix
                          ) -> float | None:
        """Mean relative stage-delay estimation error against synthesis."""
        if not self.config.track_estimation_error:
            return None
        graph = schedule.graph
        stages: list[int] = []
        stage_sets: list[list[int]] = []
        for stage, node_ids in schedule.stage_node_map().items():
            operations = [nid for nid in node_ids if not graph.node(nid).is_source]
            if operations:
                stages.append(stage)
                stage_sets.append(operations)
        if not stage_sets:
            return None
        reports = self.feedback.cache.evaluate_batch(
            graph, stage_sets,
            [f"{graph.name}_stage{stage}" for stage in stages])
        errors: list[float] = []
        for operations, report in zip(stage_sets, reports):
            estimated = self._estimated_stage_delay(delay_matrix, operations)
            if report.delay_ps <= 0:
                continue
            errors.append(abs(estimated - report.delay_ps) / report.delay_ps)
        if not errors:
            return None
        return sum(errors) / len(errors)

    @staticmethod
    def _estimated_stage_delay(delay_matrix: DelayMatrix,
                               node_ids: list[int]) -> float:
        """The scheduler's estimate of a stage's critical combinational delay."""
        indices = [delay_matrix.index_of[nid] for nid in node_ids]
        block = delay_matrix.matrix[np.ix_(indices, indices)]
        return float(block.max()) if block.size else 0.0

    def _log(self, record: IterationRecord) -> None:
        if not self.config.verbose:
            return
        error = ("n/a" if record.estimation_error is None
                 else f"{record.estimation_error:.1%}")
        print(f"[isdc] iter {record.iteration:2d}: stages={record.num_stages:3d} "
              f"registers={record.num_registers:6d} "
              f"subgraphs={record.subgraphs_evaluated:2d} error={error}")
