"""Fig. 6: path vs. cone vs. window subgraph expansion ablation.

Same protocol as Fig. 5, but the ranking strategy is fixed to fanout-driven
(the winner of Fig. 5) and the expansion strategy is varied.  The paper finds
that cone/window expansions escape the local minima the path-based expansion
gets stuck in, with a slight edge for windows.
"""

from __future__ import annotations

from repro.experiments.fig5 import (
    AblationCurve,
    _ablation_grid,
    format_ablation,
)
from repro.ir.graph import DataflowGraph
from repro.isdc.config import ExpansionStrategy, ExtractionStrategy


def run_expansion_ablation(subgraph_counts: tuple[int, ...] = (4, 8, 16),
                           iterations: int = 30,
                           design: DataflowGraph | None = None,
                           clock_period_ps: float | None = None,
                           jobs: int = 1
                           ) -> dict[tuple[str, int], AblationCurve]:
    """Reproduce Fig. 6: path/cone/window expansion under fanout-driven ranking.

    Args:
        jobs: run the ablation configurations concurrently (see Fig. 5).

    Returns:
        Mapping from ``(expansion, m)`` to the corresponding trajectory.
    """
    configurations = [
        (ExtractionStrategy.FANOUT.value, expansion.value, count, iterations)
        for count in subgraph_counts
        for expansion in (ExpansionStrategy.PATH, ExpansionStrategy.CONE,
                          ExpansionStrategy.WINDOW)]
    results = _ablation_grid(configurations, design, clock_period_ps, jobs)
    return {(expansion, count): curve
            for (_, expansion, count, _), curve
            in zip(configurations, results)}


__all__ = ["run_expansion_ablation", "format_ablation"]
