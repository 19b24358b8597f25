"""Fig. 5: delay-driven vs. fanout-driven subgraph extraction ablation.

The paper runs 30 ISDC iterations on one design at 400 MHz, extracting 4, 8
or 16 subgraphs per iteration with the path-based expansion, and compares the
register-usage trajectories of the delay-driven and fanout-driven ranking
strategies.  The fanout-driven strategy converges faster and ends lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.designs.suite import ablation_design
from repro.ir.graph import DataflowGraph
from repro.isdc.config import ExpansionStrategy, ExtractionStrategy, IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.parallel import parallel_map


@dataclass(frozen=True)
class AblationCurve:
    """Register-usage trajectory of one ablation configuration.

    Attributes:
        strategy: extraction-strategy label ("delay" or "fanout").
        expansion: expansion-strategy label ("path", "cone" or "window").
        subgraphs_per_iteration: the ``m`` setting.
        registers: register usage per iteration (index 0 = initial SDC).
    """

    strategy: str
    expansion: str
    subgraphs_per_iteration: int
    registers: tuple[int, ...]

    @property
    def final_registers(self) -> int:
        return self.registers[-1]

    @property
    def iterations_to_best(self) -> int:
        """Index of the first iteration reaching the best register count."""
        best = min(self.registers)
        return self.registers.index(best)


def run_single_ablation(graph: DataflowGraph, clock_period_ps: float,
                        extraction: ExtractionStrategy,
                        expansion: ExpansionStrategy,
                        subgraphs_per_iteration: int,
                        iterations: int) -> AblationCurve:
    """Run one ablation configuration and return its trajectory."""
    config = IsdcConfig(
        clock_period_ps=clock_period_ps,
        subgraphs_per_iteration=subgraphs_per_iteration,
        max_iterations=iterations,
        patience=iterations,  # ablations run the full iteration budget
        extraction=extraction,
        expansion=expansion,
        track_estimation_error=False,
    )
    result = IsdcScheduler(config).schedule(graph.copy())
    return AblationCurve(
        strategy=extraction.value,
        expansion=expansion.value,
        subgraphs_per_iteration=subgraphs_per_iteration,
        registers=tuple(result.register_trajectory()),
    )


def _run_configuration(design: DataflowGraph, clock_period_ps: float,
                       configuration: tuple[str, str, int, int]
                       ) -> AblationCurve:
    """Run one ``(extraction, expansion, m, iterations)`` grid point."""
    extraction, expansion, count, iterations = configuration
    return run_single_ablation(design, clock_period_ps,
                               ExtractionStrategy(extraction),
                               ExpansionStrategy(expansion), count, iterations)


def _ablation_grid(configurations: list[tuple[str, str, int, int]],
                   design: DataflowGraph | None,
                   clock_period_ps: float | None,
                   jobs: int) -> list[AblationCurve]:
    """Run a grid of ablation configurations, one pool task each.

    Each task carries the design graph with its configuration.
    """
    if design is None or clock_period_ps is None:
        design, clock_period_ps = ablation_design()
    return parallel_map(partial(_run_configuration, design, clock_period_ps),
                        configurations, jobs)


def run_extraction_ablation(subgraph_counts: tuple[int, ...] = (4, 8, 16),
                            iterations: int = 30,
                            design: DataflowGraph | None = None,
                            clock_period_ps: float | None = None,
                            jobs: int = 1
                            ) -> dict[tuple[str, int], AblationCurve]:
    """Reproduce Fig. 5: delay-driven vs. fanout-driven, path-based expansion.

    Args:
        jobs: run the ablation configurations concurrently over a process
            pool.  Trajectories are identical to a serial run.

    Returns:
        Mapping from ``(strategy, m)`` to the corresponding trajectory.
    """
    configurations = [
        (strategy.value, ExpansionStrategy.PATH.value, count, iterations)
        for count in subgraph_counts
        for strategy in (ExtractionStrategy.DELAY, ExtractionStrategy.FANOUT)]
    results = _ablation_grid(configurations, design, clock_period_ps, jobs)
    return {(extraction, count): curve
            for (extraction, _, count, _), curve
            in zip(configurations, results)}


def format_ablation(curves: dict[tuple[str, int], AblationCurve]) -> str:
    """One line per configuration: final registers and convergence iteration."""
    lines = []
    for (strategy, count), curve in sorted(curves.items()):
        trajectory = ", ".join(str(r) for r in curve.registers[:10])
        lines.append(f"{strategy:>7s} m={count:2d}: final={curve.final_registers:6d} "
                     f"best@iter={curve.iterations_to_best:2d} "
                     f"trajectory=[{trajectory}{', ...' if len(curve.registers) > 10 else ''}]")
    return "\n".join(lines)
