"""Fig. 1: post-synthesis STA delay vs. HLS-estimated critical-path delay.

The paper profiles 6912 design points of one HLS design and shows that the
scheduler's estimated critical-path delays deviate substantially from the
post-synthesis STA ground truth.  Here a design point is one pipeline stage
of one schedule: sweeping several designs over a range of clock periods
produces hundreds of (estimated, measured) pairs with the same qualitative
picture -- estimates consistently above (and poorly correlated with) the
measured delays, i.e. unused slack the feedback loop can reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.designs.suite import BenchmarkCase, table1_suite
from repro.experiments.tables import pearson_correlation
from repro.parallel import parallel_map
from repro.sdc.scheduler import SdcScheduler
from repro.synth.cache import EvaluationCache
from repro.synth.estimator import CharacterizedOperatorModel
from repro.synth.flow import SynthesisFlow


@dataclass(frozen=True)
class DesignPoint:
    """One profiled design point (a pipeline stage of one schedule).

    Attributes:
        design: design name.
        clock_period_ps: clock period of the schedule the stage belongs to.
        stage: stage index.
        estimated_delay_ps: the scheduler's (pre-characterised, summed)
            estimate of the stage's critical combinational delay.
        measured_delay_ps: post-synthesis STA delay of the stage.
        aig_depth: AND-level depth of the stage's AIG (used by Fig. 8).
    """

    design: str
    clock_period_ps: float
    stage: int
    estimated_delay_ps: float
    measured_delay_ps: float
    aig_depth: int


def _default_cases() -> list[BenchmarkCase]:
    """A small/medium subset of the suite used for the profiling sweep."""
    wanted = {"ML-core datapath1", "rrot", "binary divide", "crc32",
              "ML-core datapath2", "video-core datapath"}
    return [case for case in table1_suite() if case.name in wanted]


def _profile_case(case: BenchmarkCase, clock_scales: tuple[float, ...],
                  compute_aig: bool) -> list[DesignPoint]:
    """Profile every pipeline stage of one case across the clock sweep.

    Each case has its own operator model and evaluation cache; AIG depths
    appear in the points iff ``compute_aig`` is set.
    """
    model = CharacterizedOperatorModel()
    cache = EvaluationCache(SynthesisFlow(compute_aig=compute_aig))
    graph = case.build()
    points: list[DesignPoint] = []
    for scale in clock_scales:
        clock = case.clock_period_ps * scale
        scheduler = SdcScheduler(delay_model=model, clock_period_ps=clock)
        try:
            result = scheduler.schedule(graph)
        except ValueError:
            # Clock too fast for the design's slowest operation.
            continue
        schedule = result.schedule
        matrix = result.delay_matrix
        index_of = result.index_of
        stages: list[tuple[int, list[int], float]] = []
        for stage, node_ids in schedule.stage_node_map().items():
            operations = [nid for nid in node_ids
                          if not graph.node(nid).is_source]
            if not operations:
                continue
            indices = [index_of[nid] for nid in operations]
            block = matrix[indices][:, indices]
            stages.append((stage, operations, float(block.max())))
        reports = cache.evaluate_batch(
            graph, [operations for _, operations, _ in stages],
            [f"{graph.name}_c{clock:.0f}_s{stage}" for stage, _, _ in stages])
        for (stage, _, estimated), report in zip(stages, reports):
            points.append(DesignPoint(
                design=case.name, clock_period_ps=clock, stage=stage,
                estimated_delay_ps=estimated,
                measured_delay_ps=report.delay_ps,
                aig_depth=report.aig_depth or 0))
    return points


def run_delay_profile(cases: list[BenchmarkCase] | None = None,
                      clock_scales: tuple[float, ...] = (0.7, 0.85, 1.0, 1.25, 1.5),
                      compute_aig: bool = True, jobs: int = 1
                      ) -> list[DesignPoint]:
    """Sweep schedules over clock periods and profile every pipeline stage.

    Args:
        cases: benchmark cases to sweep (defaults to a mid-size subset).
        clock_scales: multipliers applied to each case's nominal clock period;
            every (case, scale) pair produces one schedule and each of its
            stages becomes one design point.
        compute_aig: also record each stage's AIG depth (needed by Fig. 8).
        jobs: profile cases concurrently over a process pool; point values
            and ordering are identical to a serial run.

    Returns:
        All profiled design points.
    """
    cases = cases if cases is not None else _default_cases()
    per_case = parallel_map(partial(_profile_case, clock_scales=clock_scales,
                                    compute_aig=compute_aig), cases, jobs)
    return [point for case_points in per_case for point in case_points]


def profile_summary(points: list[DesignPoint]) -> dict[str, float]:
    """Summary statistics of a Fig. 1 profile.

    Returns:
        A dict with the number of points, the mean relative over-estimation
        (``(estimate - measured) / measured``), the fraction of points whose
        estimate exceeds the measurement, and the estimate/measurement
        Pearson correlation.
    """
    if not points:
        return {"num_points": 0, "mean_overestimation": 0.0,
                "fraction_overestimated": 0.0, "correlation": 0.0}
    overestimation = [
        (p.estimated_delay_ps - p.measured_delay_ps) / p.measured_delay_ps
        for p in points if p.measured_delay_ps > 0]
    over_count = sum(1 for p in points
                     if p.estimated_delay_ps > p.measured_delay_ps)
    correlation = pearson_correlation(
        [p.estimated_delay_ps for p in points],
        [p.measured_delay_ps for p in points],
        strict=False)  # tiny --quick profiles may be degenerate
    return {
        "num_points": float(len(points)),
        "mean_overestimation": sum(overestimation) / len(overestimation),
        "fraction_overestimated": over_count / len(points),
        "correlation": correlation,
    }


def format_profile(points: list[DesignPoint], max_rows: int = 20) -> str:
    """Human-readable listing of the first ``max_rows`` design points."""
    lines = [f"{'design':30s} {'clock':>8s} {'stage':>5s} {'estimated':>10s} "
             f"{'measured':>10s} {'aig depth':>9s}"]
    for point in points[:max_rows]:
        lines.append(f"{point.design:30s} {point.clock_period_ps:8.0f} "
                     f"{point.stage:5d} {point.estimated_delay_ps:10.1f} "
                     f"{point.measured_delay_ps:10.1f} {point.aig_depth:9d}")
    if len(points) > max_rows:
        lines.append(f"... ({len(points) - max_rows} more points)")
    summary = profile_summary(points)
    lines.append(f"mean over-estimation: {summary['mean_overestimation']:.1%}, "
                 f"overestimated points: {summary['fraction_overestimated']:.1%}, "
                 f"correlation: {summary['correlation']:.3f}")
    return "\n".join(lines)
