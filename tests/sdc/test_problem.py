"""Tests for the persistent ScheduleProblem and its timing retargets."""

import numpy as np
import pytest

from repro.designs.arith import build_rrot
from repro.sdc.constraints import TIMING, ConstraintSystem
from repro.sdc.delays import critical_path_matrix, node_delays
from repro.sdc.flow import flow_network
from repro.sdc.problem import ScheduleProblem, assemble_lp
from repro.sdc.scheduler import SdcScheduler
from repro.sdc.solver import FullSolver, IncrementalSolver, solve_lp
from repro.tech.delay_model import OperatorModel
from tests.sdc.helpers import assert_flow_equal

CLOCK_PS = 2500.0


@pytest.fixture()
def rrot_setup():
    """Graph, naive delay matrix and a ScheduleProblem for a small design."""
    graph = build_rrot(width=32, num_rounds=6)
    scheduler = SdcScheduler(delay_model=OperatorModel(),
                             clock_period_ps=CLOCK_PS)
    delays = node_delays(graph, scheduler.delay_model)
    matrix, index_of = critical_path_matrix(graph, delays)
    problem = ScheduleProblem(graph, matrix, index_of,
                              scheduler.timing_budget_ps)
    return graph, matrix, index_of, problem, scheduler


def _timing_row(system, u, v):
    """Row of the timing constraint on ``(u, v)``, or None."""
    rows = np.flatnonzero((system.u == u) & (system.v == v)
                          & (system.kind == TIMING))
    return int(rows[0]) if len(rows) else None


def _row_costs(problem):
    """The kept rows and the costs of their arcs in the flow network."""
    rows = problem.lp_rows
    network = flow_network(problem.system, rows, problem.objective)
    return rows, network.cost[:network.num_rows]


def _timing_pair(problem, min_distance=1):
    """Some constrained pair needing at least ``min_distance`` cycles."""
    row = next(int(row) for row in problem.system.rows_of("timing")
               if problem.system.bound[row] <= -min_distance)
    return int(problem.system.u[row]), int(problem.system.v[row])


class TestConstraintRowIdentity:
    def test_timing_rows_recorded(self, rrot_setup):
        """Dependencies first, then timing rows in row-major matrix order."""
        graph, matrix, index_of, problem, _ = rrot_setup
        system = problem.system
        timing = system.rows_of("timing")
        dependencies = system.rows_of("dependency")
        assert len(dependencies) + len(timing) == len(system)
        np.testing.assert_array_equal(dependencies,
                                      np.arange(len(dependencies)))
        np.testing.assert_array_equal(
            timing, len(dependencies) + np.arange(len(timing)))
        rows = np.array([index_of[u] for u in system.u[timing].tolist()])
        cols = np.array([index_of[v] for v in system.v[timing].tolist()])
        keys = rows * len(matrix) + cols
        assert (np.diff(keys) > 0).all()
        assert (system.bound[timing] < 0).all()

    def test_bound_write_keeps_row_positions(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        u, v, kind = problem.system.u, problem.system.v, problem.system.kind
        bounds = problem.system.bound.copy()
        pair = _timing_pair(problem, min_distance=2)
        row = _timing_row(problem.system, *pair)
        matrix[index_of[pair[0]], index_of[pair[1]]] = \
            scheduler.timing_budget_ps * 1.5
        assert problem.retarget(matrix, index_of, problem.timing_budget_ps)
        assert problem.system.u is u and problem.system.v is v
        assert problem.system.kind is kind
        bounds[row] = -1
        np.testing.assert_array_equal(problem.system.bound, bounds)
        # The flow solve gets the non-implied rows: their arc costs are the
        # system's bounds over the kept rows, whichever rows the write left.
        rows, costs = _row_costs(problem)
        np.testing.assert_array_equal(costs, bounds[rows])

    def test_unchanged_bound_is_not_a_patch(self, rrot_setup):
        graph, matrix, index_of, problem, _ = rrot_setup
        assert problem.retarget(matrix, index_of, problem.timing_budget_ps)
        assert problem.bound_patches == 0


class TestScheduleProblem:
    def test_system_matches_scratch_build(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        scratch = scheduler.build_constraints(graph, matrix, index_of)
        assert problem.system.constraints() == scratch.constraints()
        assert problem.system.pinned == scratch.pinned

    def test_weights_and_users_cached(self, rrot_setup):
        _, _, _, problem, _ = rrot_setup
        assert problem.register_weights
        assert problem.users_map
        assert problem.register_weights is problem.register_weights

    def test_retarget_patches_bound_and_lp(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        budget = scheduler.timing_budget_ps
        # Pick a pair that carries a timing constraint spanning >= 2 cycles
        # and lower its delay so the constraint relaxes but survives.
        pair = _timing_pair(problem, min_distance=2)
        row = _timing_row(problem.system, *pair)
        old_bound = problem.system.bound[row]
        new_delay = budget * 1.5  # one stage boundary needed
        matrix[index_of[pair[0]], index_of[pair[1]]] = new_delay
        assert problem.retarget(matrix, index_of, budget)
        assert problem.system.bound[row] == -1 != old_bound
        assert _timing_row(problem.system, *pair) == row
        rows, costs = _row_costs(problem)
        np.testing.assert_array_equal(costs, problem.system.bound[rows])
        assert problem.bound_patches == 1

    def test_timing_write_patches_or_reassembles_lp(self, rrot_setup):
        """A timing write may keep the kept rows or move them; either way
        the flow solve gets what a cold build hands it."""
        graph, matrix, index_of, problem, scheduler = rrot_setup
        budget = scheduler.timing_budget_ps
        lp_rows = problem.lp_rows
        kept = moved = 0
        for row in lp_rows[problem.system.kind[lp_rows] == TIMING].tolist():
            pair = int(problem.system.u[row]), int(problem.system.v[row])
            for stages in (1.5, 2.5, 3.5):
                clone, edited = problem.clone(), matrix.copy()
                edited[index_of[pair[0]], index_of[pair[1]]] = budget * stages
                assert clone.retarget(edited, index_of, budget)
                cold = ScheduleProblem(graph, edited, index_of, budget)
                if np.array_equal(clone.lp_rows, lp_rows):
                    kept += 1
                else:
                    moved += 1
                rows, costs = _row_costs(clone)
                if row in rows:
                    position = np.searchsorted(rows, row)
                    assert costs[position] == clone.system.bound[row]
                assert_flow_equal(clone, cold)
        assert kept and moved

    def test_retarget_rebuilds_on_vanishing_constraint(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        budget = scheduler.timing_budget_ps
        pair = _timing_pair(problem)
        matrix[index_of[pair[0]], index_of[pair[1]]] = budget / 2
        assert not problem.retarget(matrix, index_of, budget)
        assert _timing_row(problem.system, *pair) is None
        assert problem.rebuilds == 1
        assert problem.bound_patches == 0
        cold = ScheduleProblem(graph, matrix, index_of, budget)
        assert problem.system.constraints() == cold.system.constraints()

    def test_retarget_ignores_diagonal(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        bounds = problem.system.bound.copy()
        index = index_of[next(iter(index_of))]
        matrix[index, index] = scheduler.timing_budget_ps * 3
        assert problem.retarget(matrix, index_of, scheduler.timing_budget_ps)
        np.testing.assert_array_equal(problem.system.bound, bounds)

    def test_rebuild_counts_and_invalidates(self, rrot_setup):
        graph, matrix, index_of, problem, _ = rrot_setup
        system_before = problem.system
        problem.rebuild(matrix, index_of)
        assert problem.rebuilds == 1
        assert problem.system is not system_before


class TestSolverStrategies:
    def test_full_and_incremental_agree_from_scratch(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        reference = solve_lp(problem.system, problem.register_weights,
                             problem.users_map, problem.latency_weight)
        full = FullSolver().solve(problem, matrix, index_of)
        incremental = IncrementalSolver().solve(problem, matrix, index_of)
        assert full == reference
        assert incremental == reference

    def test_incremental_agrees_after_delta(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        incremental = IncrementalSolver()
        incremental.solve(problem, matrix, index_of)

        # Relax every timing constraint's delay by 10% (all survive).
        for constraint in problem.system.constraints("timing"):
            u, v = constraint.u, constraint.v
            entry = matrix[index_of[u], index_of[v]]
            matrix[index_of[u], index_of[v]] = entry * 0.9
        patched = incremental.solve(problem, matrix, index_of)
        assert incremental.incremental_solves >= 1

        fresh = ScheduleProblem(graph, matrix, index_of,
                                scheduler.timing_budget_ps)
        reference = solve_lp(fresh.system, fresh.register_weights,
                             fresh.users_map, fresh.latency_weight)
        assert patched == reference

    def test_incremental_falls_back_on_structure_change(self, rrot_setup):
        graph, matrix, index_of, problem, scheduler = rrot_setup
        incremental = IncrementalSolver()
        incremental.solve(problem, matrix, index_of)

        constraint = problem.system.constraints("timing")[0]
        matrix[index_of[constraint.u], index_of[constraint.v]] = \
            scheduler.timing_budget_ps / 2
        schedule = incremental.solve(problem, matrix, index_of)
        assert incremental.fallback_solves >= 1
        assert _timing_row(problem.system, constraint.u, constraint.v) is None

        fresh = ScheduleProblem(graph, matrix, index_of,
                                scheduler.timing_budget_ps)
        reference = solve_lp(fresh.system, fresh.register_weights,
                             fresh.users_map, fresh.latency_weight)
        assert schedule == reference


class TestAssembledLp:
    def test_constraint_rows_lead_in_order(self):
        system = ConstraintSystem()
        system.pin(0, 0)
        system.add_dependency(0, 1)
        system.add_timing(0, 1, 2)
        lp = assemble_lp(system, {0: 8.0}, {0: [1]})
        assert lp.num_constraint_rows == len(system)
        assert list(lp.b_ub[:2]) == [0.0, -2.0]
        # One lifetime row follows the difference constraints.
        assert lp.a_ub.shape[0] == 3
        assert lp.b_ub[2] == 0.0

    def test_empty_system(self):
        system = ConstraintSystem()
        system.add_variable(5)
        lp = assemble_lp(system)
        assert lp.a_ub is None
        assert lp.b_ub.size == 0
