"""Soundness of the implied-row rule the flow solve runs under.

:func:`~repro.sdc.solver.solve_problem` hands the flow solve only the rows
of :attr:`~repro.sdc.problem.ScheduleProblem.lp_rows`: every row but the
timing rows another timing row already implies through one dependency
row, read off the delay matrix.  Over every Table-I row, the tight-budget
designs, the loop example at II 1 and 2 and three seeded generated
designs, these tests check that

* the kept rows are exactly those the same rule stated over the rows
  keeps (:mod:`tests.sdc.pairing_rule`), cold, over a clock-rebase
  ladder, after ISDC feedback and after writes straight into the delay
  matrix;
* the reduced system has the same earliest and latest schedules as the
  full one;
* every dropped row is implied by the kept rows, by a Floyd–Warshall
  longest-path oracle written here, also on random DAGs whose delay
  matrices are not path-consistent;
* after the ladder, the feedback and a direct matrix write, the
  retargeted problem hands the flow solve the same rows, arcs, costs and
  demands as a cold build at the same bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.warm import build_context
from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.reformulate import propagate_delays
from repro.sdc.constraints import DEPENDENCY, TIMING, ConstraintSystem
from repro.sdc.delays import NOT_CONNECTED
from repro.sdc.problem import ScheduleProblem
from repro.sdc.solver import (IncrementalSolver, SdcInfeasibleError,
                              solve_alap, solve_asap, solve_problem)
from tests.sdc import pairing_rule
from tests.sdc.certificate import verify_schedule_certificate
from tests.sdc.helpers import assert_flow_equal
from tests.sdc.test_lp_golden import cold_problem, lp_cases

GEN_DESIGNS = tuple(
    f"gen:seed={seed},depth=5,width=3,fanout=2,bits=8,inputs=3,clock=2000,"
    "mix=add3+xor2+sub1+rotr1" for seed in (1, 2, 3))

#: Budget factors of the clock-rebase ladder, walked in order from the
#: case's own budget.  Small steps keep the constrained-pair set (bound
#: patches); the larger ones move it (rebuilds).
LADDER = (1.001, 1.004, 0.999, 0.99, 1.02, 0.97, 1.1, 0.9)


def _cases() -> dict[str, tuple[str, float | None, int]]:
    cases = lp_cases()
    for design in GEN_DESIGNS:
        cases[f"gen/{design}"] = (design, None, 1)
    return cases


CASES = sorted(_cases())


def _system_arrays(system: ConstraintSystem) -> list[np.ndarray]:
    return [system.u, system.v, system.bound, system.kind]


def assert_pairing_rule(problem: ScheduleProblem) -> None:
    """``problem`` keeps exactly the rows the pairing rule keeps."""
    np.testing.assert_array_equal(problem.lp_rows,
                                  pairing_rule.lp_rows(problem.system))


def assert_lp_equals_cold(warm: ScheduleProblem, cold: ScheduleProblem):
    """The warm problem's system and flow input equal the cold build's,
    and both keep the pairing rule's rows."""
    for patched, fresh in zip(_system_arrays(warm.system),
                              _system_arrays(cold.system)):
        np.testing.assert_array_equal(patched, fresh)
    assert_flow_equal(warm, cold)
    assert_pairing_rule(warm)
    assert_pairing_rule(cold)


def _longest_paths(system: ConstraintSystem, rows: np.ndarray) -> np.ndarray:
    """Floyd–Warshall over ``rows``: the most cycles each pair is forced apart.

    Row ``s_u - s_v <= b`` is an edge ``u -> v`` of weight ``-b``; entry
    ``[u, v]`` of the closure is the heaviest path (``-inf`` if none).
    """
    order, tail, head = system.columns()
    closure = np.full((len(order), len(order)), -np.inf)
    np.fill_diagonal(closure, 0.0)
    np.maximum.at(closure, (tail[rows], head[rows]), -system.bound[rows])
    for middle in range(len(order)):
        np.maximum(closure, closure[:, middle, None] + closure[None, middle, :],
                   out=closure)
    return closure


@pytest.fixture(scope="module", params=CASES)
def case(request):
    name, budget, ii = _cases()[request.param]
    return request.param, cold_problem(name, budget, ii)


def _outcome(solve, *args):
    """A fixpoint's schedule, or ``"infeasible"`` when it raises."""
    try:
        return solve(*args)
    except SdcInfeasibleError:
        return "infeasible"


def test_reduced_system_has_the_same_asap_and_alap(case):
    _, problem = case
    full = problem.system
    reduced = full.subsystem(problem.lp_rows)
    asap = _outcome(solve_asap, full)
    assert _outcome(solve_asap, reduced) == asap
    latency = max(asap.values()) + 1 if asap != "infeasible" else 8
    assert _outcome(solve_alap, reduced, latency) \
        == _outcome(solve_alap, full, latency)


def test_every_dropped_row_is_implied_by_the_kept_rows(case):
    _, problem = case
    system = problem.system
    kept = problem.lp_rows
    dropped = np.setdiff1d(np.arange(len(system)), kept)
    assert (system.kind[dropped] == TIMING).all()
    closure = _longest_paths(system, kept)
    _, tail, head = system.columns()
    forced = closure[tail[dropped], head[dropped]]
    assert (forced >= -system.bound[dropped]).all()


def random_system(seed: int, size: int = 14
                  ) -> tuple[ConstraintSystem, list[tuple[int, int]]]:
    """A random DAG's dependency rows plus random timing bounds.

    Returns:
        The system and the DAG's edges ``(producer, consumer)``.
    """
    rng = np.random.default_rng(seed)
    edges = _random_edges(rng, size)
    sources, sinks = np.nonzero(_reach(edges, size))
    chosen = rng.random(len(sources)) < 0.7
    system = ConstraintSystem(variables=set(range(size)))
    system.extend([a for a, _ in edges], [b for _, b in edges],
                  np.zeros(len(edges)), DEPENDENCY)
    system.extend(sources[chosen], sinks[chosen],
                  -rng.integers(1, 5, int(chosen.sum())), TIMING)
    return system, edges


def _random_edges(rng: np.random.Generator, size: int
                  ) -> list[tuple[int, int]]:
    """A random DAG over ``range(size)``, edges in topological order of
    their consumer."""
    return [(a, b) for b in range(1, size) for a in range(b)
            if rng.random() < 0.25]


def _reach(edges: list[tuple[int, int]], size: int) -> np.ndarray:
    """Which nodes reach which others over ``edges`` (the diagonal off)."""
    reach = np.eye(size, dtype=bool)
    for a, b in edges:  # edges come in topological order of ``b``
        reach[:, b] |= reach[:, a]
    return reach & ~np.eye(size, dtype=bool)


#: Stage budget of the random designs; their delays reach 5 budgets.
RANDOM_BUDGET_PS = 100.0


def random_design(seed: int, size: int = 14
                  ) -> tuple[DataflowGraph, np.ndarray, dict[int, int]]:
    """A random DAG with a random delay matrix that is not path-consistent.

    Every pair the DAG connects gets a delay of up to 5 budgets drawn on
    its own, so a pair may need fewer cycles than a pair inside it; the
    other pairs are :data:`NOT_CONNECTED` and the diagonal fits a budget.
    Node ids reach the matrix through a shuffled index.

    Returns:
        ``(graph, matrix, index_of)``.
    """
    rng = np.random.default_rng(seed)
    edges = _random_edges(rng, size)
    graph = DataflowGraph(f"random-{seed}")
    for node in range(size):
        operands = [a for a, b in edges if b == node]
        if not operands:
            graph.add_node(OpKind.PARAM, width=1)
        else:
            graph.add_node(OpKind.NOT if len(operands) == 1
                           else OpKind.CONCAT, operands)
    index = rng.permutation(size)
    matrix = np.full((size, size), float(NOT_CONNECTED))
    sources, sinks = np.nonzero(_reach(edges, size))
    matrix[index[sources], index[sinks]] = rng.uniform(
        0.0, 5 * RANDOM_BUDGET_PS, len(sources))
    matrix[index, index] = rng.uniform(0.0, RANDOM_BUDGET_PS, size)
    return graph, matrix, {node: int(index[node]) for node in range(size)}


@pytest.mark.parametrize("seed", range(40))
def test_dropped_rows_are_implied_at_arbitrary_bounds(seed):
    """Path-consistent delays grow along every path, which hides a rule
    that ignored the bounds; random per-pair delays do not."""
    graph, matrix, index_of = random_design(seed)
    problem = ScheduleProblem(graph, matrix, index_of, RANDOM_BUDGET_PS)
    system, kept = problem.system, problem.lp_rows
    assert_pairing_rule(problem)
    dropped = np.setdiff1d(np.arange(len(system)), kept)
    assert (system.kind[dropped] == TIMING).all()
    closure = _longest_paths(system, kept)
    _, tail, head = system.columns()
    assert (closure[tail[dropped], head[dropped]]
            >= -system.bound[dropped]).all()
    reduced = system.subsystem(kept)
    asap = solve_asap(system)
    assert solve_asap(reduced) == asap
    latency = max(asap.values()) + 1
    assert solve_alap(reduced, latency) == solve_alap(system, latency)


def test_random_designs_drop_rows_at_every_bound():
    """The random designs exercise the rule: rows are dropped, and kept
    rows and dropped rows both span several bounds."""
    kept_bounds, dropped_bounds = set(), set()
    for seed in range(40):
        problem = ScheduleProblem(*random_design(seed), RANDOM_BUDGET_PS)
        timing = problem.system.rows_of("timing")
        kept = np.isin(timing, problem.lp_rows)
        kept_bounds.update(problem.system.bound[timing[kept]].tolist())
        dropped_bounds.update(problem.system.bound[timing[~kept]].tolist())
    assert kept_bounds == dropped_bounds == {-1, -2, -3, -4}


def test_rule_drops_most_timing_rows_at_tight_budgets():
    for name in ("binary divide", "crc32"):
        problem = cold_problem(name, "tight", 1)
        timing = len(problem.system.rows_of("timing"))
        dropped = len(problem.system) - len(problem.lp_rows)
        assert dropped > 0.8 * timing, (name, dropped, timing)


def test_rebase_ladder_lp_equals_cold_build(case):
    label, problem = case
    name, _, ii = _cases()[label]
    context = build_context(name)
    warm = problem.clone()
    for factor in LADDER:
        budget = problem.timing_budget_ps * factor
        warm.retarget(context.matrix, context.index_of, budget)
        cold = ScheduleProblem(context.graph, context.matrix,
                               context.index_of, budget, ii=ii)
        assert_lp_equals_cold(warm, cold)


def test_rebase_ladder_takes_every_write_path():
    """Over the ladder, some rebases keep the kept rows (bounds patched),
    some move them (bounds patched, rows re-derived) and some move the pair
    set (rebuilt)."""
    paths = {"patched": 0, "rows moved": 0, "rebuilt": 0}
    for name in ("crc32", "ML-core datapath2", "hsv2rgb"):
        problem = cold_problem(name, None, 1)
        context = build_context(name)
        for factor in LADDER:
            rows = problem.lp_rows
            if not problem.retarget(context.matrix, context.index_of,
                                    problem.timing_budget_ps * factor):
                paths["rebuilt"] += 1
            elif np.array_equal(problem.lp_rows, rows):
                paths["patched"] += 1
            else:
                paths["rows moved"] += 1
    assert all(paths.values()), paths


def test_feedback_patches_lp_equals_cold_build(case):
    """ISDC-style updates: measured subgraphs lower pairs, Alg. 2
    re-propagates, and the retarget patches the bounds (or rebuilds)."""
    label, problem = case
    name, _, _ = _cases()[label]
    context = build_context(name)
    matrix = DelayMatrix(context.graph, context.matrix.copy(),
                         dict(context.index_of))
    warm = problem.clone()
    rng = np.random.default_rng(19)
    timing = warm.system.rows_of("timing")
    for _ in range(3):
        if not len(timing):
            break
        for row in rng.choice(timing, size=min(4, len(timing)),
                              replace=False).tolist():
            u, v = int(warm.system.u[row]), int(warm.system.v[row])
            matrix.update_with_subgraph(
                (u, v), 0.8 * matrix.matrix[matrix.index_of[u],
                                            matrix.index_of[v]])
        propagate_delays(matrix)
        warm.retarget(matrix.matrix, matrix.index_of, warm.timing_budget_ps)
        cold = ScheduleProblem(context.graph, matrix.matrix, matrix.index_of,
                               warm.timing_budget_ps, ii=warm.ii)
        assert_lp_equals_cold(warm, cold)
        timing = warm.system.rows_of("timing")


def test_direct_matrix_write_reaches_the_lp():
    """A delay written straight into the matrix, by no tracked writer, still
    moves its bound: crc32's pair at -2 drops to -1 with the pair set kept,
    and the incremental re-solve's system and flow input equal a cold
    build's."""
    problem = cold_problem("crc32", None, 1)
    context = build_context("crc32")
    matrix = DelayMatrix(context.graph, context.matrix.copy(),
                         dict(context.index_of))
    budget = problem.timing_budget_ps
    solve_problem(problem)
    row = next(row for row in problem.system.rows_of("timing").tolist()
               if problem.system.bound[row] == -2)
    u, v = int(problem.system.u[row]), int(problem.system.v[row])
    matrix.matrix[matrix.index_of[u], matrix.index_of[v]] = budget * 1.5
    solver = IncrementalSolver()
    solver.solve(problem, matrix.matrix, matrix.index_of)
    assert solver.incremental_solves == 1 and problem.rebuilds == 0
    assert problem.system.bound[row] == -1
    assert problem.bound_patches == 1
    assert_lp_equals_cold(problem, ScheduleProblem(
        context.graph, matrix.matrix, matrix.index_of, budget))


def test_direct_matrix_writes_keep_the_pairing_rule(case):
    """Delays written straight into the matrix, at pairs the rows are read
    from and at pairs one hop inside them, reach the kept rows at the
    next retarget, whether it patches or rebuilds."""
    label, problem = case
    name, _, ii = _cases()[label]
    context = build_context(name)
    matrix = context.matrix.copy()
    budget = problem.timing_budget_ps
    warm = problem.clone()
    rng = np.random.default_rng(23)
    connected = np.argwhere((matrix != NOT_CONNECTED)
                            & ~np.eye(len(matrix), dtype=bool))
    for _ in range(3):
        if not len(connected):
            break
        picked = connected[rng.choice(len(connected),
                                      size=min(6, len(connected)),
                                      replace=False)]
        matrix[picked[:, 0], picked[:, 1]] = budget * rng.choice(
            [0.5, 1.5, 2.5, 3.5], size=len(picked))
        warm.retarget(matrix, context.index_of, budget)
        assert_lp_equals_cold(warm, ScheduleProblem(
            context.graph, matrix, context.index_of, budget, ii=ii))


def test_rebase_ii_is_a_right_hand_side_patch():
    problem = cold_problem(*lp_cases()["loop_accum/ii=1"])
    rows = problem.lp_rows
    assert problem.rebase_ii(2)
    np.testing.assert_array_equal(problem.lp_rows, rows)
    assert_lp_equals_cold(problem, cold_problem(*lp_cases()["loop_accum/ii=2"]))


class TestCertificate:
    """The from-scratch certificate accepts the solve and rejects others."""

    def _setup(self):
        context = build_context("rrot")
        budget = context.default_clock_ps - context.register_overhead_ps
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget)
        return context, budget, problem

    def test_accepts_the_solved_schedule(self):
        context, budget, problem = self._setup()
        verify_schedule_certificate(context.graph, context.matrix,
                                    context.index_of, budget, 1,
                                    solve_problem(problem))

    def test_rejects_a_feasible_but_suboptimal_schedule(self):
        context, budget, problem = self._setup()
        latest = solve_alap(problem.system,
                            max(solve_problem(problem).values()) + 2)
        with pytest.raises(AssertionError, match="optimum"):
            verify_schedule_certificate(context.graph, context.matrix,
                                        context.index_of, budget, 1, latest)

    def test_rejects_an_infeasible_schedule(self):
        context, budget, problem = self._setup()
        flat = dict.fromkeys(problem.system.variables, 0)
        with pytest.raises(AssertionError, match="violates"):
            verify_schedule_certificate(context.graph, context.matrix,
                                        context.index_of, budget, 1, flat)
