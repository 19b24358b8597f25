"""Certify served ``schedule`` answers against independently rebuilt rows.

The service's answers come from the pool worker's warm
:class:`~repro.dse.warm.ProblemCache`, from the daemon's warm layer, from
a coalesced cold computation or from the artifact store.
:func:`certify_schedule_answer` trusts none of them: it rebuilds the
design's delay matrix through the same
:func:`~repro.dse.warm.build_context` the worker uses, derives the stage
budget from the answer's clock period, and hands the answer's schedule to
:func:`tests.sdc.certificate.verify_schedule_certificate`.
"""

from __future__ import annotations

import functools

from repro.dse.warm import DesignContext, build_context
from repro.service.daemon import ServiceConfig

from tests.sdc.certificate import verify_schedule_certificate


@functools.lru_cache(maxsize=None)
def _context(design: str) -> DesignContext:
    return build_context(design)


def certify_schedule_answer(result: dict,
                            latency_weight: float = ServiceConfig().latency_weight
                            ) -> None:
    """Check one ``schedule`` result payload; infeasible answers must say why.

    Raises:
        AssertionError: naming the first check the answer fails.
    """
    if not result["feasible"]:
        assert result["reason"] in ("budget", "lp"), result
        assert "stages" not in result, result
        return
    context = _context(result["design"])
    stages = {int(node_id): stage for node_id, stage in result["stages"].items()}
    verify_schedule_certificate(
        context.graph, context.matrix, context.index_of,
        result["clock_period_ps"] - context.register_overhead_ps,
        result["ii"], stages, latency_weight)
    assert result["num_stages"] == max(stages.values(), default=-1) + 1, result
