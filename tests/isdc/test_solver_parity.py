"""Incremental re-solves must not change any ISDC result.

The ISDC loop re-solves through :class:`~repro.sdc.solver.IncrementalSolver`
(persistent problem, patched LP bounds, warm-started repair).  It must
produce byte-identical schedules, iteration histories and serialized JSON
to a reference run with that class swapped for
:class:`~repro.sdc.solver.FullSolver` (rebuild every iteration) on every
design of the arith + misc suites.
"""

import dataclasses
import json
import pickle

import pytest

from repro.designs.suite import table1_suite
import repro.isdc.scheduler as isdc_scheduler
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.sdc.scheduler import SdcScheduler
from repro.sdc.solver import FullSolver, IncrementalSolver
from tests.sdc.certificate import verify_schedule_certificate

# The arith suite designs plus the misc-package design, by Table-I row name.
ARITH_MISC_DESIGNS = (
    "rrot",
    "binary divide",
    "float32 fast rsqrt",
    "fpexp 32",
    "internal datapath",
)


def _case(name):
    return next(case for case in table1_suite() if case.name == name)


def _run(name: str, backend: str = "estimator"):
    case = _case(name)
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=4, max_iterations=3,
                        patience=3, track_estimation_error=False,
                        use_characterized_delays=(backend == "local"),
                        backend=backend)
    scheduler = IsdcScheduler(config)
    return scheduler.schedule(case.build()), scheduler


def _certified_run(monkeypatch, name: str, backend: str = "estimator"):
    """:func:`_run`, certifying every history schedule from scratch.

    Each schedule -- the baseline's and every re-solve's -- is recorded
    with the delay matrix it was solved against and checked by
    :func:`verify_schedule_certificate`.
    """
    solves = []
    real_baseline, real_solve = SdcScheduler.schedule, IncrementalSolver.solve

    def baseline(self, graph):
        result = real_baseline(self, graph)
        solves.append((result.delay_matrix.copy(), dict(result.index_of),
                       dict(result.schedule.stages)))
        return result

    def solve(self, problem, matrix, index_of):
        stages = real_solve(self, problem, matrix, index_of)
        solves.append((matrix.copy(), dict(index_of), dict(stages)))
        return stages

    with monkeypatch.context() as patch:
        patch.setattr(SdcScheduler, "schedule", baseline)
        patch.setattr(IncrementalSolver, "solve", solve)
        result, scheduler = _run(name, backend)
    assert len(solves) == len(result.history)
    for matrix, index_of, stages in solves:
        verify_schedule_certificate(
            scheduler.last_problem.graph, matrix, index_of,
            scheduler.timing_budget_ps, scheduler.last_problem.ii, stages,
            latency_weight=scheduler.config.latency_weight)
    return result, scheduler


def _reference(monkeypatch, name: str, backend: str = "estimator"):
    """The same run with every re-solve rebuilt from scratch."""
    with monkeypatch.context() as patch:
        patch.setattr(isdc_scheduler, "IncrementalSolver", FullSolver)
        return _run(name, backend)


def _canonical_history(result):
    """The history with wall-clock fields zeroed (everything else compared)."""
    return [dataclasses.replace(record, runtime_s=0.0, solver_runtime_s=0.0,
                                synthesis_runtime_s=0.0)
            for record in result.history]


def _canonical_json(result):
    """Serialized run outcome with the wall-clock fields dropped."""
    payload = {
        "design": result.design,
        "initial_stages": sorted(result.initial_schedule.stages.items()),
        "final_stages": sorted(result.final_schedule.stages.items()),
        "iterations": result.iterations,
        "subgraphs_evaluated": result.subgraphs_evaluated,
        "initial_registers": result.initial_report.num_registers,
        "final_registers": result.final_report.num_registers,
        "final_slack_ps": result.final_report.slack_ps,
        "history": [dataclasses.asdict(record)
                    for record in _canonical_history(result)],
    }
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("design", ARITH_MISC_DESIGNS)
def test_incremental_matches_full_on_arith_misc(design, monkeypatch):
    full, _ = _reference(monkeypatch, design)
    incremental, scheduler = _certified_run(monkeypatch, design)

    assert pickle.dumps(_canonical_history(full)) == \
        pickle.dumps(_canonical_history(incremental))
    assert full.initial_schedule.stages == incremental.initial_schedule.stages
    assert full.final_schedule.stages == incremental.final_schedule.stages
    assert _canonical_json(full) == _canonical_json(incremental)

    # The incremental engine was exercised (patched or structural fallback,
    # but always through the persistent problem).
    solver = scheduler.last_solver
    assert solver.incremental_solves + solver.fallback_solves == \
        incremental.iterations


def test_incremental_matches_full_through_real_synthesis(monkeypatch):
    """Parity also holds under the full local synthesis backend."""
    full, _ = _reference(monkeypatch, "rrot", backend="local")
    incremental, _ = _certified_run(monkeypatch, "rrot", backend="local")
    assert pickle.dumps(_canonical_history(full)) == \
        pickle.dumps(_canonical_history(incremental))
    assert full.final_schedule.stages == incremental.final_schedule.stages
    assert _canonical_json(full) == _canonical_json(incremental)


def test_incremental_patches_bounds_on_a_multi_iteration_design():
    """The delta path is really taken: bounds are patched, not rebuilt."""
    result, scheduler = _run("fpexp 32")
    assert result.iterations >= 2
    assert scheduler.last_problem.bound_patches > 0
    assert scheduler.last_solver.incremental_solves >= 1


def test_weights_and_users_computed_once_per_graph(monkeypatch):
    """Satellite regression: register_weights/users_map run once per run.

    The persistent ScheduleProblem owns both; neither the baseline schedule
    nor any re-solve iteration may recompute them.
    """
    import repro.sdc.problem as problem_module

    calls = {"register_weights": 0, "users_map": 0}
    real_weights = problem_module.register_weights
    real_users = problem_module.users_map

    def counting_weights(graph):
        calls["register_weights"] += 1
        return real_weights(graph)

    def counting_users(graph):
        calls["users_map"] += 1
        return real_users(graph)

    monkeypatch.setattr(problem_module, "register_weights", counting_weights)
    monkeypatch.setattr(problem_module, "users_map", counting_users)

    result, _ = _run("rrot")
    assert result.iterations >= 2
    assert calls == {"register_weights": 1, "users_map": 1}

    result, _ = _reference(monkeypatch, "rrot")
    assert result.iterations >= 2
    assert calls == {"register_weights": 2, "users_map": 2}
