"""Benchmark: incremental re-solves vs. full rebuilds in the ISDC loop.

Runs the same multi-iteration designs through the default loop (timing
bounds re-derived from the whole delay matrix and patched in place, or
rebuilt when the constrained-pair set moved) and through a reference run with the loop's
``IncrementalSolver`` swapped for ``FullSolver`` (rebuild every iteration),
and compares the cumulative scheduling re-solve time (the per-iteration
``solver_runtime_s``, excluding the shared baseline solve).  The estimator
backend keeps the synthesis half cheap so the solver half dominates and the
comparison is stable.
"""

from __future__ import annotations

import pytest

import repro.isdc.scheduler as isdc_scheduler
from repro.designs.suite import table1_suite
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.sdc.solver import FullSolver


def _run(design: str, max_iterations: int):
    case = next(c for c in table1_suite() if c.name == design)
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=8,
                        max_iterations=max_iterations,
                        patience=max_iterations,
                        track_estimation_error=False,
                        use_characterized_delays=False,
                        backend="estimator")
    scheduler = IsdcScheduler(config)
    result = scheduler.schedule(case.build())
    return result, scheduler


def _resolve_time(result) -> float:
    """Cumulative re-solve time across refinement iterations (not iter 0)."""
    return sum(record.solver_runtime_s for record in result.history[1:])


@pytest.mark.benchmark(group="incremental-solver")
@pytest.mark.parametrize("design", ["internal datapath", "fpexp 32"])
def test_incremental_reduces_cumulative_solver_time(benchmark, design, scale,
                                                    monkeypatch):
    iterations = 6 if scale == "quick" else 15

    with monkeypatch.context() as patch:
        patch.setattr(isdc_scheduler, "IncrementalSolver", FullSolver)
        full, _ = _run(design, iterations)
    full_resolve = _resolve_time(full)

    incremental, scheduler = _run(design, iterations)
    incremental_resolve = _resolve_time(incremental)

    def run():
        result, _ = _run(design, iterations)
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["full_resolve_s"] = full_resolve
    benchmark.extra_info["incremental_resolve_s"] = incremental_resolve
    benchmark.extra_info["bound_patches"] = scheduler.last_problem.bound_patches
    benchmark.extra_info["rebuilds"] = scheduler.last_problem.rebuilds

    # Same multi-iteration run, measurably cheaper re-solves.
    assert result.iterations >= 2
    assert scheduler.last_solver.incremental_solves >= 1
    assert incremental_resolve < full_resolve
    # And identical outcomes (spot check; the full parity suite is tier-1).
    assert result.final_schedule.stages == full.final_schedule.stages
    assert [r.num_registers for r in result.history] == \
        [r.num_registers for r in full.history]
