"""Table I: benchmarking SDC vs. ISDC on the 17-design suite."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.designs.suite import BenchmarkCase, table1_suite
from repro.experiments.tables import format_table, geometric_mean
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.parallel import parallel_map


def registry_case_names(cases: list[BenchmarkCase]) -> set[str]:
    """Names of the given cases that can be re-built from :func:`table1_suite`.

    Worker processes receive cases by *name* (factories are lambdas and do
    not pickle), so a case only qualifies when the registry entry of the same
    name also matches its clock period and scale -- a caller-supplied custom
    case that merely reuses a suite name must not be silently replaced by the
    registry design.
    """
    registry = {case.name: case for case in table1_suite()}
    matched = set()
    for case in cases:
        reference = registry.get(case.name)
        if (reference is not None
                and reference.clock_period_ps == case.clock_period_ps
                and reference.scale == case.scale):
            matched.add(case.name)
    return matched


@dataclass(frozen=True)
class TableOneRow:
    """One benchmark row of Table I.

    Columns mirror the paper: target clock period, then (slack, stage count,
    register count, schedule time) for the SDC baseline and for ISDC, plus
    the number of ISDC iterations actually run, the number of distinct
    subgraphs the run truly synthesised (cache answers excluded) and the
    per-phase split of the ISDC runtime (cumulative LP re-solve time vs.
    cumulative subgraph synthesis time).
    """

    benchmark: str
    clock_period_ps: float
    sdc_slack_ps: float
    sdc_stages: int
    sdc_registers: int
    sdc_time_s: float
    isdc_slack_ps: float
    isdc_stages: int
    isdc_registers: int
    isdc_time_s: float
    isdc_iterations: int
    isdc_evaluations: int = 0
    isdc_solver_time_s: float = 0.0
    isdc_synthesis_time_s: float = 0.0

    @property
    def register_reduction(self) -> float:
        """Fractional register reduction of ISDC over SDC on this row."""
        if self.sdc_registers == 0:
            return 0.0
        return 1.0 - self.isdc_registers / self.sdc_registers


@dataclass
class TableOneResult:
    """All rows plus the geometric-mean summary of Table I."""

    rows: list[TableOneRow] = field(default_factory=list)

    def geomean(self, attribute: str) -> float:
        """Geometric mean of one column across all rows.

        Zeros are clamped to ``1e-9`` (a metric may legitimately collapse
        to zero on a degenerate row; the summary must stay defined) and an
        empty table summarises to ``0.0``.
        """
        if not self.rows:
            return 0.0
        return geometric_mean((getattr(row, attribute) for row in self.rows),
                              floor=1e-9)

    @property
    def register_ratio(self) -> float:
        """ISDC/SDC register geometric-mean ratio (paper: 71.5 %)."""
        baseline = self.geomean("sdc_registers")
        if baseline == 0:
            return 1.0
        return self.geomean("isdc_registers") / baseline

    @property
    def stage_ratio(self) -> float:
        """ISDC/SDC pipeline-stage geometric-mean ratio (paper: 70.0 %)."""
        baseline = self.geomean("sdc_stages")
        if baseline == 0:
            return 1.0
        return self.geomean("isdc_stages") / baseline

    @property
    def slack_ratio(self) -> float:
        """ISDC/SDC slack geometric-mean ratio (paper: 60.9 %)."""
        baseline = self.geomean("sdc_slack_ps")
        if baseline == 0:
            return 1.0
        return self.geomean("isdc_slack_ps") / baseline

    @property
    def runtime_ratio(self) -> float:
        """ISDC/SDC scheduling-runtime geometric-mean ratio (paper: ~40x)."""
        baseline = self.geomean("sdc_time_s")
        if baseline == 0:
            return float("inf")
        return self.geomean("isdc_time_s") / baseline


def run_table1_case(case: BenchmarkCase, subgraphs_per_iteration: int = 16,
                    max_iterations: int = 15, verbose: bool = False
                    ) -> TableOneRow:
    """Run SDC + ISDC on one benchmark case and produce its Table-I row."""
    graph = case.build()
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=subgraphs_per_iteration,
                        max_iterations=max_iterations,
                        track_estimation_error=False,
                        verbose=verbose)
    result = IsdcScheduler(config).schedule(graph)
    return TableOneRow(
        benchmark=case.name,
        clock_period_ps=case.clock_period_ps,
        sdc_slack_ps=result.initial_report.slack_ps,
        sdc_stages=result.initial_report.num_stages,
        sdc_registers=result.initial_report.num_registers,
        sdc_time_s=result.baseline_runtime_s,
        isdc_slack_ps=result.final_report.slack_ps,
        isdc_stages=result.final_report.num_stages,
        isdc_registers=result.final_report.num_registers,
        isdc_time_s=result.total_runtime_s,
        isdc_iterations=result.iterations,
        isdc_evaluations=result.subgraphs_evaluated,
        isdc_solver_time_s=result.solver_runtime_s,
        isdc_synthesis_time_s=result.synthesis_runtime_s,
    )


def _run_registry_case(payload: tuple) -> TableOneRow:
    """Worker-side case runner (module-level so it pickles into the pool).

    Cases are shipped by *name* and re-built from :func:`table1_suite` in the
    worker, because :class:`BenchmarkCase` factories are lambdas and do not
    pickle.
    """
    name, subgraphs_per_iteration, max_iterations = payload
    for case in table1_suite():
        if case.name == name:
            return run_table1_case(case, subgraphs_per_iteration, max_iterations)
    raise KeyError(f"benchmark case {name!r} not in the Table-I suite")


def run_table1(cases: list[BenchmarkCase] | None = None,
               subgraphs_per_iteration: int = 16, max_iterations: int = 15,
               verbose: bool = False, jobs: int = 1) -> TableOneResult:
    """Run the full Table-I benchmark (or a subset of its cases).

    Args:
        cases: benchmark cases to run; defaults to the full 17-design suite.
        subgraphs_per_iteration: ISDC's ``m`` (the paper uses 16).
        max_iterations: ISDC iteration cap (the paper uses 15).
        verbose: print one line per row as it completes.
        jobs: run cases concurrently over a process pool.  Row order and all
            schedule-quality figures are identical to a serial run (only the
            wall-clock timing columns differ).  Cases whose names are not in
            the Table-I registry cannot be shipped to workers and run
            serially.
    """
    case_list = list(cases) if cases is not None else table1_suite()
    rows: list[TableOneRow | None] = [None] * len(case_list)

    if jobs > 1:
        registry = registry_case_names(case_list)
        indices = [i for i, case in enumerate(case_list)
                   if case.name in registry]
        payloads = [(case_list[i].name, subgraphs_per_iteration, max_iterations)
                    for i in indices]
        for i, row in zip(indices, parallel_map(_run_registry_case, payloads,
                                                jobs)):
            rows[i] = row

    result = TableOneResult()
    for i, case in enumerate(case_list):
        row = rows[i] or run_table1_case(case, subgraphs_per_iteration,
                                         max_iterations)
        result.rows.append(row)
        if verbose:
            print(f"  {row.benchmark:35s} registers {row.sdc_registers:6d} -> "
                  f"{row.isdc_registers:6d} ({row.register_reduction:+.1%})")
    return result


def format_table1(result: TableOneResult) -> str:
    """ASCII rendition of Table I, including the geometric-mean summary rows."""
    headers = ["Benchmark", "Clock (ps)", "SDC slack", "SDC stages", "SDC regs",
               "SDC time (s)", "ISDC slack", "ISDC stages", "ISDC regs",
               "ISDC time (s)", "Iters", "Evals"]
    rows = []
    for row in result.rows:
        rows.append([
            row.benchmark, f"{row.clock_period_ps:.0f}", f"{row.sdc_slack_ps:.1f}",
            row.sdc_stages, row.sdc_registers, f"{row.sdc_time_s:.2f}",
            f"{row.isdc_slack_ps:.1f}", row.isdc_stages, row.isdc_registers,
            f"{row.isdc_time_s:.2f}", row.isdc_iterations, row.isdc_evaluations,
        ])
    rows.append([
        "Geo. Mean", "", f"{result.geomean('sdc_slack_ps'):.1f}",
        f"{result.geomean('sdc_stages'):.2f}", f"{result.geomean('sdc_registers'):.1f}",
        f"{result.geomean('sdc_time_s'):.2f}", f"{result.geomean('isdc_slack_ps'):.1f}",
        f"{result.geomean('isdc_stages'):.2f}", f"{result.geomean('isdc_registers'):.1f}",
        f"{result.geomean('isdc_time_s'):.2f}", "", "",
    ])
    rows.append([
        "Ratio", "", f"{result.slack_ratio:.1%}", f"{result.stage_ratio:.1%}",
        f"{result.register_ratio:.1%}", "100.0%", "", "", "",
        f"{result.runtime_ratio * 100:.1f}%", "", "",
    ])
    return format_table(headers, rows)
