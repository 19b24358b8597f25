"""Solvers for SDC constraint systems.

The solution paths:

* :func:`solve_asap` / :func:`solve_alap` -- least/greatest fixpoint of the
  difference constraints, a vectorized Bellman-Ford over the system's row
  arrays.  These need no LP solver and are used for feasibility checks and
  bounds; the same fixpoint repairs the LP rounding.
* :func:`solve_lp` -- the register-lifetime-minimising linear program (the
  objective XLS's SDC scheduler uses), solved with scipy's HiGHS backend.
  The constraint matrix is totally unimodular, so the LP optimum is integral;
  rounding plus a fixpoint repair guards against floating-point noise.
  This one-shot form assembles a fresh LP over *every* row per call;
  production code uses the cached form below, and tests use this one as
  the full-LP reference.
* :func:`solve_problem` -- the production solve of a persistent
  :class:`~repro.sdc.problem.ScheduleProblem` on its cached LP, which holds
  only the rows no other rows imply (:func:`~repro.sdc.problem.lp_rows`);
  the rounding is repaired and checked against the full system.  Shared by
  the baseline schedule, the ISDC loop, the DSE engine and min-II search.
* :class:`IncrementalSolver` -- the ISDC loop's re-solve: it re-derives
  the timing bounds from the whole delay matrix
  (:meth:`~repro.sdc.problem.ScheduleProblem.retarget`), patching the
  cached LP in place or rebuilding when the constrained-pair set changed.
  :class:`FullSolver` rebuilds the constraint system from the delay matrix
  on every call and solves the full LP; it is the reference the tests hold
  the incremental path byte-identical to.  Dropping implied rows leaves the
  feasible region and the optimum unchanged, a patched problem hands HiGHS
  the same LP bytes as a rebuilt one (see :mod:`repro.sdc.problem`), and
  the repair fixpoint is unique.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from repro.sdc.constraints import ConstraintSystem
from repro.sdc.problem import AssembledLp, ScheduleProblem, assemble_lp


class SdcInfeasibleError(Exception):
    """Raised when the SDC constraint system has no solution."""


def _least_fixpoint(order: np.ndarray, tail: np.ndarray, head: np.ndarray,
                    bound: np.ndarray, pinned: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Least values at or above ``values`` that satisfy every row.

    Row ``i`` reads ``values[head[i]] >= values[tail[i]] - bound[i]``.  Each
    round raises every violated head at once (Bellman-Ford in Jacobi
    rounds), so after ``k`` rounds every value is the best one derivable
    through ``k`` rows.  Without a positive cycle every improving chain is
    simple, so the values settle within ``|V|`` rounds; a row still violated
    after that lies downstream of a positive cycle.  The least fixpoint
    above a start is unique, so the result does not depend on the round
    structure.

    Args:
        order: variable id of every column (for error messages).
        tail: column of every row's ``u``.
        head: column of every row's ``v``.
        bound: bound of every row.
        pinned: per-column flag; a pinned variable may not move.
        values: per-column start values (not modified).

    Raises:
        SdcInfeasibleError: if a pinned variable would have to be raised or
            propagation diverges (the error names the variable).
    """
    values = values.copy()
    for _ in range(len(order) + 1):
        required = values[tail] - bound
        violated = np.flatnonzero(required > values[head])
        if not len(violated):
            return values
        blocked = violated[pinned[head[violated]]]
        if len(blocked):
            row = blocked[0]
            raise SdcInfeasibleError(
                f"pinned variable {order[head[row]]} violates "
                f"s_{order[tail[row]]} - s_{order[head[row]]} <= {bound[row]}")
        np.maximum.at(values, head[violated], required[violated])
    row = violated[0]
    raise SdcInfeasibleError(
        f"constraint propagation diverged at variable s_{order[head[row]]}: "
        f"its value still rose after {len(order) + 1} rounds over "
        f"{len(order)} variables, which implies a positive cycle through "
        f"s_{order[tail[row]]} - s_{order[head[row]]} <= {bound[row]}")


def _pins(system: ConstraintSystem, order: np.ndarray,
          mirror_at: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column flags of the pinned variables, and start values with pins set.

    With ``mirror_at`` the pins are mirrored to ``mirror_at - pin``.
    """
    columns = np.searchsorted(order, list(system.pinned))
    pins = np.array(list(system.pinned.values()), dtype=np.int64)
    pinned = np.zeros(len(order), dtype=bool)
    pinned[columns] = True
    start = np.zeros(len(order), dtype=np.int64)
    start[columns] = pins if mirror_at is None else mirror_at - pins
    return pinned, start


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


def _solve_assembled(lp: AssembledLp) -> np.ndarray:
    """Run HiGHS on an assembled LP and return the raw solution vector."""
    if lp.a_ub is not None:
        result = linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                         bounds=lp.bounds, method="highs")
    else:
        result = linprog(lp.objective, bounds=lp.bounds, method="highs")
    if not result.success:
        raise SdcInfeasibleError(f"LP solve failed: {result.message}")
    return result.x


def _repair(system: ConstraintSystem, x: np.ndarray) -> dict[int, int]:
    """Round the LP solution, re-impose the pins and repair to feasibility.

    Raises:
        SdcInfeasibleError: if the rounding cannot be repaired.
    """
    order, tail, head = system.columns()
    pinned, pins = _pins(system, order)
    rounded = np.where(pinned, pins, np.rint(x[:len(order)]).astype(np.int64))
    values = _least_fixpoint(order, tail, head, system.bound, pinned, rounded)
    repaired = dict(zip(order.tolist(), values.tolist()))
    if not system.is_feasible_schedule(repaired):
        raise SdcInfeasibleError("rounded LP solution could not be repaired")
    return repaired


def solve_lp(system: ConstraintSystem,
             register_weights: Mapping[int, float] | None = None,
             users: Mapping[int, list[int]] | None = None,
             latency_weight: float = 1e-3) -> dict[int, int]:
    """Solve the SDC LP minimising weighted register lifetimes.

    The objective is ``sum_v w_v * L_v + latency_weight * sum_i s_i`` where
    ``L_v >= s_u - s_v`` for every user ``u`` of value ``v`` -- i.e. the
    number of stage boundaries the value must cross, weighted by its bit
    width.  This is the standard register-minimisation objective of SDC
    pipeline scheduling.

    Args:
        system: difference constraints plus pins.
        register_weights: weight (bit width) per producing node id; nodes
            absent or with zero weight get no lifetime variable.
        users: consumer node ids per producing node id.
        latency_weight: small tie-breaking weight pulling operations earlier.

    Returns:
        Integral schedule mapping node id to time step.

    Raises:
        SdcInfeasibleError: if the LP (or the rounding repair) is infeasible.
    """
    lp = assemble_lp(system, register_weights, users, latency_weight)
    return _repair(system, _solve_assembled(lp))


def solve_problem(problem: ScheduleProblem) -> dict[int, int]:
    """Solve a persistent problem on its cached (or freshly assembled) LP.

    This is the one production solve path, shared by the baseline SDC
    schedule, the ISDC loop and the DSE warm-start engine: the problem's
    cached LP over its non-implied rows (patched in place by a timing
    retarget or an II rebase, or re-assembled when they moved the kept
    rows) is solved with HiGHS, the integral rounding is repaired by the
    array fixpoint over the full system, and the result is checked
    feasible against every row.  Because the kept rows and
    :func:`~repro.sdc.problem.assemble_lp` are deterministic in the system,
    a problem whose patched arrays equal a freshly built problem's arrays
    produces a byte-identical schedule.

    Raises:
        SdcInfeasibleError: if the LP (or the rounding repair) is infeasible.
    """
    return _repair(problem.system, _solve_assembled(problem.lp()))


# --------------------------------------------------------------------------
# Re-solves of a persistent ScheduleProblem
# --------------------------------------------------------------------------


class FullSolver:
    """Rebuild the constraint system and LP from scratch on every call.

    The reference the ISDC loop's :class:`IncrementalSolver` is held
    byte-identical to; production code never calls it.
    """

    def solve(self, problem: ScheduleProblem, matrix: np.ndarray,
              index_of: Mapping[int, int]) -> dict[int, int]:
        problem.rebuild(matrix, index_of)
        return solve_lp(problem.system, problem.register_weights,
                        problem.users_map, problem.latency_weight)


class IncrementalSolver:
    """Patch the cached LP in place, or rebuild when the structure changed.

    Per call, the problem re-derives its timing bounds from the whole delay
    matrix at its own budget
    (:meth:`~repro.sdc.problem.ScheduleProblem.retarget`): a bound patch
    when the constrained-pair set is unchanged, a full rebuild otherwise.
    The LP is then solved on the cached (or freshly rebuilt) arrays.

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
