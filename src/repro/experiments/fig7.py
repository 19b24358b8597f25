"""Fig. 7: delay-estimation accuracy of ISDC vs. the original SDC.

For every iteration, the paper compares the scheduler's estimated critical
path delays against post-synthesis STA, averaged over the 17 benchmarks.
ISDC's error shrinks towards a few percent as feedback accumulates, while the
original (feedback-free) estimate gets *worse* on the refined schedules --
the more aggressively operations are chained, the more low-level optimisation
the naive estimate misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.designs.suite import BenchmarkCase, table1_suite
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.parallel import parallel_map


@dataclass
class EstimationAccuracyResult:
    """Per-iteration estimation error, averaged over benchmarks.

    Attributes:
        isdc_error: mean relative error of ISDC's (feedback-updated) stage
            delay estimates, indexed by iteration.
        sdc_error: mean relative error of the original SDC estimates evaluated
            on the same (ISDC-refined) schedules, indexed by iteration.
        per_design: raw per-design error trajectories (ISDC estimates).
    """

    isdc_error: list[float] = field(default_factory=list)
    sdc_error: list[float] = field(default_factory=list)
    per_design: dict[str, list[float]] = field(default_factory=dict)

    @property
    def final_isdc_error(self) -> float:
        return self.isdc_error[-1] if self.isdc_error else 0.0

    @property
    def final_sdc_error(self) -> float:
        return self.sdc_error[-1] if self.sdc_error else 0.0


def _accuracy_curves(case: BenchmarkCase, max_iterations: int,
                     subgraphs_per_iteration: int
                     ) -> tuple[list[float], list[float]]:
    """ISDC and naive-SDC estimation-error curves of one benchmark case."""
    graph = case.build()
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=subgraphs_per_iteration,
                        max_iterations=max_iterations,
                        patience=max_iterations,
                        track_estimation_error=True)
    result = IsdcScheduler(config).schedule(graph)
    isdc_curve = [record.estimation_error for record in result.history]
    sdc_curve = [record.naive_estimation_error
                 if record.naive_estimation_error is not None
                 else record.estimation_error
                 for record in result.history]
    return ([e for e in isdc_curve if e is not None],
            [e for e in sdc_curve if e is not None])


def run_estimation_accuracy(cases: list[BenchmarkCase] | None = None,
                            max_iterations: int = 8,
                            subgraphs_per_iteration: int = 16,
                            jobs: int = 1
                            ) -> EstimationAccuracyResult:
    """Reproduce Fig. 7 on the given benchmark cases.

    Args:
        cases: benchmark cases (defaults to the small/medium half of the
            Table-I suite, which keeps the per-iteration stage synthesis
            affordable).
        max_iterations: how many ISDC iterations to profile.
        subgraphs_per_iteration: ISDC's ``m``.
        jobs: run cases concurrently over a process pool; curves are
            identical to a serial run.
    """
    if cases is None:
        cases = [case for case in table1_suite() if case.scale != "large"]

    curves = parallel_map(
        partial(_accuracy_curves, max_iterations=max_iterations,
                subgraphs_per_iteration=subgraphs_per_iteration),
        cases, jobs)
    per_design_isdc: dict[str, list[float]] = {}
    per_design_sdc: dict[str, list[float]] = {}
    for case, (isdc_curve, sdc_curve) in zip(cases, curves):
        per_design_isdc[case.name] = isdc_curve
        per_design_sdc[case.name] = sdc_curve

    result = EstimationAccuracyResult(per_design=per_design_isdc)
    num_iterations = max((len(curve) for curve in per_design_isdc.values()),
                         default=0)
    for iteration in range(num_iterations):
        isdc_values = [curve[min(iteration, len(curve) - 1)]
                       for curve in per_design_isdc.values() if curve]
        sdc_values = [curve[min(iteration, len(curve) - 1)]
                      for curve in per_design_sdc.values() if curve]
        if isdc_values:
            result.isdc_error.append(sum(isdc_values) / len(isdc_values))
        if sdc_values:
            result.sdc_error.append(sum(sdc_values) / len(sdc_values))
    return result


def format_estimation_accuracy(result: EstimationAccuracyResult) -> str:
    """ASCII rendition of the two Fig. 7 curves."""
    lines = [f"{'iteration':>9s} {'ISDC error':>11s} {'SDC error':>10s}"]
    for iteration, (isdc, sdc) in enumerate(zip(result.isdc_error, result.sdc_error)):
        lines.append(f"{iteration:9d} {isdc:11.1%} {sdc:10.1%}")
    return "\n".join(lines)
