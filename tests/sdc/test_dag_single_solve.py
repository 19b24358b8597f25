"""``min_feasible_ii`` is the one solve entry, for DAGs as for loops.

``SdcScheduler.schedule`` and every DSE probe call it whether or not the
graph has back-edges.  On a DAG that must cost exactly what a direct
:func:`~repro.sdc.solver.solve_problem` call costs: ``rebase_ii(1)`` has
no loop row to patch, and no row bounds a pinned source from above, so
II 1 is feasible and the search stops after its first solve.
"""

import pytest

import repro.sdc.loops as loops
from repro.designs.suite import table1_suite
from repro.dse.warm import build_context
from repro.sdc.problem import ScheduleProblem
from repro.sdc.solver import solve_problem

GEN_DESIGN = ("gen:seed=3,depth=8,width=6,fanout=2,bits=16,inputs=4,"
              "clock=2500,mix=add4+sub2+xor3+and2+or2+rotr1")


@pytest.mark.parametrize(
    "name", [case.name for case in table1_suite()] + [GEN_DESIGN])
def test_min_feasible_ii_solves_a_dag_once_at_ii_one(name, monkeypatch):
    context = build_context(name)
    assert not context.graph.has_back_edges
    budget = context.budget_ps(context.default_clock_ps)

    def problem() -> ScheduleProblem:
        return ScheduleProblem(context.graph, context.matrix,
                               context.index_of, budget)

    solves = []

    def spy(scheduled: ScheduleProblem) -> dict[int, int]:
        solves.append(scheduled.ii)
        return solve_problem(scheduled)

    monkeypatch.setattr(loops, "solve_problem", spy)
    searched = problem()
    ii, stages = loops.min_feasible_ii(searched)
    assert (ii, solves) == (1, [1])
    assert searched.ii == 1 and searched.bound_patches == 0
    assert stages == solve_problem(problem())
