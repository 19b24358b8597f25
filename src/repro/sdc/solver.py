"""Solvers for SDC constraint systems.

The solution paths:

* :func:`solve_asap` / :func:`solve_alap` -- least/greatest fixpoint of the
  difference constraints, a vectorized Bellman-Ford over the system's row
  arrays.  These need no LP solver and are used for feasibility checks and
  bounds.
* :func:`solve_problem` -- the one production solve of the
  register-lifetime LP (the objective XLS's SDC scheduler uses) for a
  persistent :class:`~repro.sdc.problem.ScheduleProblem`, shared by the
  baseline schedule, the ISDC loop, the DSE engine and min-II search.  It
  solves the LP's dual -- a min-cost flow -- over the rows no other rows
  imply (:attr:`~repro.sdc.problem.ScheduleProblem.lp_rows`) with the dual
  network simplex of :mod:`repro.sdc.flow`, in exact integers, from the
  ASAP schedule and with no state kept between solves.  The flow and its
  potentials are checked optimal (conservation, ``f >= 0``, reduced costs
  ``>= 0``, complementary slackness) before anything is returned.
* The output is the **least optimal schedule**: every variable as small as
  any optimal schedule allows.  Every arc that carries flow is tight in
  every optimal schedule, so its reverse row is added and the least
  fixpoint is taken from the ASAP schedule.  The result is a function of the
  constraint system alone -- not of the pivots, the row order or the
  implied rows dropped -- and it is checked feasible against every row.
* :class:`IncrementalSolver` -- the ISDC loop's re-solve: it re-derives
  the timing bounds from the whole delay matrix
  (:meth:`~repro.sdc.problem.ScheduleProblem.retarget`), patching the
  bounds in place or rebuilding when the constrained-pair set changed,
  then calls :func:`solve_problem`.

``solve_lp`` and ``FullSolver``, the HiGHS reference the tests hold the
flow solve to, live in :mod:`repro.sdc.highs` and load scipy on first use.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.sdc.constraints import ConstraintSystem
from repro.sdc.flow import (CertificateError, SdcInfeasibleError,
                            _least_fixpoint, _pins, solve_flow)
from repro.sdc.problem import ScheduleProblem

__all__ = ["IncrementalSolver", "SdcInfeasibleError", "solve_alap",
           "solve_asap", "solve_problem"]

#: Names served by the HiGHS reference module, loaded on first use.
_REFERENCE = ("FullSolver", "solve_lp")


def __getattr__(name: str):
    if name in _REFERENCE:
        from repro.sdc import highs

        return getattr(highs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def solve_asap(system: ConstraintSystem) -> dict[int, int]:
    """Earliest feasible schedule (every variable as small as possible)."""
    order, tail, head = system.columns()
    pinned, start = _pins(system, order)
    values = _least_fixpoint(order, tail, head, system.bound, pinned, start)
    return dict(zip(order.tolist(), values.tolist()))


def solve_alap(system: ConstraintSystem, latency: int) -> dict[int, int]:
    """Latest feasible schedule not exceeding ``latency``.

    Args:
        system: the constraint system.
        latency: maximum allowed time step.

    Raises:
        SdcInfeasibleError: if no schedule fits within ``latency``.
    """
    # Greatest fixpoint by negating the problem: t = latency - s turns every
    # row s_u - s_v <= b into t_v - t_u <= b (the swapped arrays), and
    # maximising s into minimising t.
    order, tail, head = system.columns()
    pinned, start = _pins(system, order, mirror_at=latency)
    mirrored = _least_fixpoint(order, head, tail, system.bound, pinned, start)
    solution = latency - mirrored
    if (solution < 0).any() or (solution > latency).any():
        # Below 0: the rows need more than ``latency`` cycles; above it: a
        # pin lies beyond the latency.
        raise SdcInfeasibleError(f"latency {latency} is too small for the system")
    return dict(zip(order.tolist(), solution.tolist()))


def solve_problem(problem: ScheduleProblem) -> dict[int, int]:
    """The least optimal schedule of a persistent problem's LP.

    The flow solve of :mod:`repro.sdc.flow` over the problem's
    :attr:`~repro.sdc.problem.ScheduleProblem.lp_rows`, certificate
    checked, then checked feasible against every row of the system.

    Raises:
        SdcInfeasibleError: if the rows conflict with the pins or contain a
            positive cycle.
        CertificateError: if the answer fails its optimality certificate
            or a row of the full system (a solver fault, never an input's).
    """
    system = problem.system
    schedule = solve_flow(system, problem.lp_rows, problem.objective)
    if not system.is_feasible_schedule(schedule):
        raise CertificateError("the flow solve's schedule violates a row")
    return schedule


class IncrementalSolver:
    """Patch the problem's bounds in place, or rebuild when the structure changed.

    Per call, the problem re-derives its timing bounds from the whole delay
    matrix at its own budget
    (:meth:`~repro.sdc.problem.ScheduleProblem.retarget`): a bound patch
    when the constrained-pair set is unchanged, a full rebuild otherwise.
    The LP is then solved afresh by :func:`solve_problem`.

    Attributes:
        incremental_solves: calls served by in-place bound patching.
        fallback_solves: calls that required a structural rebuild.
    """

    def __init__(self) -> None:
        self.incremental_solves = 0
        self.fallback_solves = 0

    def solve(self, problem: ScheduleProblem, matrix: np.ndarray,
              index_of: Mapping[int, int]) -> dict[int, int]:
        if problem.retarget(matrix, index_of, problem.timing_budget_ps):
            self.incremental_solves += 1
        else:
            self.fallback_solves += 1
        return solve_problem(problem)
