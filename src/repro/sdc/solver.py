"""Solvers for SDC constraint systems.

The solution paths:

* :func:`solve_asap` / :func:`solve_alap` -- pure-Python least/greatest
  fixpoint propagation over the difference constraints (Bellman-Ford style).
  These need no LP solver and are used for feasibility checks, bounds and as
  a repair step after LP rounding.
* :func:`solve_lp` -- the register-lifetime-minimising linear program (the
  objective XLS's SDC scheduler uses), solved with scipy's HiGHS backend.
  The constraint matrix is totally unimodular, so the LP optimum is integral;
  rounding plus a fixpoint repair guards against floating-point noise.
  This one-shot form assembles a fresh LP per call; production code uses
  the cached form below, and tests use this one as the reference.
* :func:`solve_problem` -- the production solve of a persistent
  :class:`~repro.sdc.problem.ScheduleProblem` on its cached LP, shared by
  the baseline schedule, the ISDC loop, the DSE engine and min-II search.
* :class:`IncrementalSolver` -- the ISDC loop's re-solve: it patches only
  the dirty timing bounds of the cached LP and falls back to a full rebuild
  when the constraint structure changes.  :class:`FullSolver` rebuilds the
  constraint system and LP from the delay matrix on every call; it is the
  reference the tests hold the incremental path byte-identical to (the LP
  input arrays are identical either way, see :mod:`repro.sdc.problem`, and
  the repair fixpoint is unique regardless of relaxation order).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Mapping

import numpy as np
from scipy.optimize import linprog

from repro.sdc.constraints import ConstraintSystem
from repro.sdc.problem import AssembledLp, ScheduleProblem, assemble_lp


class SdcInfeasibleError(Exception):
    """Raised when the SDC constraint system has no solution."""


def _propagate_lower_bounds(system: ConstraintSystem,
                            start: dict[int, int]) -> dict[int, int]:
    """Least fixpoint of the constraints above the given starting values.

    Every constraint ``s_u - s_v <= b`` is read as ``s_v >= s_u - b``; values
    are raised until all constraints hold.  Pinned variables may not move.

    Divergence is detected per variable: each relaxation records the length
    of the chain of constraints that produced the new value, and a chain
    longer than ``|V|`` must revisit some variable at a strictly larger
    value -- i.e. traverse a positive cycle -- because in a cycle-free system
    every improving chain is simple.  This keeps legitimately large systems
    (many variables, large bounds) out of the failure path that a global
    update budget would conflate with real divergence.

    Raises:
        SdcInfeasibleError: if a pinned variable would have to be raised or
            a positive cycle is detected (the error names the variable).
    """
    by_source: dict[int, list] = defaultdict(list)
    for constraint in system:
        by_source[constraint.u].append(constraint)
    return _relax_to_fixpoint(system, dict(start), by_source.__getitem__,
                              deque(start))


def _relax_to_fixpoint(system: ConstraintSystem, values: dict[int, int],
                       outgoing, queue: deque[int]) -> dict[int, int]:
    """Shared relaxation core of the cold and warm-started propagation.

    Args:
        system: the constraint system (pins and variable count).
        values: starting values, raised in place.
        outgoing: callable mapping a variable to its outgoing constraints.
        queue: initial worklist of variables to relax from.

    The least fixpoint above the starting values is unique (the feasible
    region of difference constraints is closed under pointwise minimum), so
    any seeding that covers every violated constraint yields the same result.
    """
    max_chain = len(system.variables)
    chain: dict[int, int] = defaultdict(int)
    while queue:
        u = queue.popleft()
        for constraint in outgoing(u):
            required = values[u] - constraint.bound
            if values[constraint.v] < required:
                if constraint.v in system.pinned:
                    raise SdcInfeasibleError(
                        f"pinned variable {constraint.v} violates "
                        f"s_{constraint.u} - s_{constraint.v} <= {constraint.bound}")
                values[constraint.v] = required
                chain[constraint.v] = chain[u] + 1
                if chain[constraint.v] > max_chain:
                    raise SdcInfeasibleError(
                        f"constraint propagation diverged at variable "
                        f"s_{constraint.v}: its value was derived through a "
                        f"chain of more than {max_chain} constraints, which "
                        f"implies a positive cycle through "
                        f"s_{constraint.u} - s_{constraint.v} <= "
                        f"{constraint.bound}")
                queue.append(constraint.v)
    return values


def _repair_with_adjacency(system: ConstraintSystem, start: dict[int, int],
                           adjacency: dict[int, list[int]]) -> dict[int, int]:
    """Warm-started fixpoint repair over cached row adjacency.

    Instead of seeding the worklist with every variable, one sweep finds the
    constraints the starting values violate and seeds only their sources --
    when the LP rounding is already feasible (the common case once the ISDC
    loop converges towards a schedule), the repair is a single O(m) check
    with zero relaxations.  The fixpoint reached is identical to the cold
    propagation's (see :func:`_relax_to_fixpoint`).
    """
    violated_sources: list[int] = []
    seen: set[int] = set()
    for constraint in system:
        if start[constraint.u] - constraint.bound > start[constraint.v]:
            if constraint.u not in seen:
                seen.add(constraint.u)
                violated_sources.append(constraint.u)
    if not violated_sources:
        return start

    def outgoing(u: int):
        return [system.constraint_at(row) for row in adjacency.get(u, ())]

    return _relax_to_fixpoint(system, dict(start), outgoing,
                              deque(violated_sources))


def solve_asap(system: ConstraintSystem) -> dict[int, int]:
    """Earliest feasible schedule (every variable as small as possible)."""
    start = {v: 0 for v in system.variables}
    start.update(system.pinned)
    return _propagate_lower_bounds(system, start)


def solve_alap(system: ConstraintSystem, latency: int) -> dict[int, int]:
    """Latest feasible schedule not exceeding ``latency``.

    Args:
        system: the constraint system.
        latency: maximum allowed time step.

    Raises:
        SdcInfeasibleError: if no schedule fits within ``latency``.
    """
    # Greatest fixpoint by negating the problem: t = latency - s turns every
    # constraint s_u - s_v <= b into t_v - t_u <= b, and maximising s into
    # minimising t.
    mirrored = ConstraintSystem()
    for variable in system.variables:
        mirrored.add_variable(variable)
    for node_id, pin in system.pinned.items():
        mirrored.pin(node_id, latency - pin)
    for constraint in system:
        mirrored.add(constraint.v, constraint.u, constraint.bound, constraint.kind)
    mirrored_solution = solve_asap(mirrored)
    solution = {v: latency - t for v, t in mirrored_solution.items()}
    if any(value < 0 for value in solution.values()):
        raise SdcInfeasibleError(f"latency {latency} is too small for the system")
    return solution


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


def _round_solution(system: ConstraintSystem, lp: AssembledLp,
                    x: np.ndarray) -> dict[int, int]:
    """Round the LP solution to integers and re-impose the pins."""
    rounded = {node_id: int(round(x[index]))
               for node_id, index in lp.var_index.items()}
    for node_id, pin in system.pinned.items():
        rounded[node_id] = pin
    return rounded


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
    rounded = _round_solution(system, lp, _solve_assembled(lp))
    repaired = _propagate_lower_bounds(system, rounded)
    if not system.is_feasible_schedule(repaired):
        raise SdcInfeasibleError("rounded LP solution could not be repaired")
    return repaired


def solve_problem(problem: ScheduleProblem) -> dict[int, int]:
    """Solve a persistent problem on its cached (or freshly assembled) LP.

    This is the one production solve path, shared by the baseline SDC
    schedule, the ISDC loop and the DSE warm-start engine: the problem's
    cached LP (bounds possibly patched in place by delta updates or a
    clock-period rebase) is solved with HiGHS, the integral rounding is
    repaired over the cached row adjacency, and the result is checked
    feasible.  Because
    :func:`~repro.sdc.problem.assemble_lp` is deterministic in the system,
    a problem whose patched arrays equal a freshly built problem's arrays
    produces a byte-identical schedule.

    Raises:
        SdcInfeasibleError: if the LP (or the rounding repair) is infeasible.
    """
    lp = problem.lp()
    rounded = _round_solution(problem.system, lp, _solve_assembled(lp))
    repaired = _repair_with_adjacency(problem.system, rounded,
                                      problem.repair_adjacency())
    if not problem.system.is_feasible_schedule(repaired):
        raise SdcInfeasibleError("rounded LP solution could not be repaired")
    return repaired


# --------------------------------------------------------------------------
# Re-solves of a persistent ScheduleProblem
# --------------------------------------------------------------------------


class FullSolver:
    """Rebuild the constraint system and LP from scratch on every call.

    The reference the ISDC loop's :class:`IncrementalSolver` is held
    byte-identical to; production code never calls it.
    """

    def solve(self, problem: ScheduleProblem, matrix: np.ndarray,
              index_of: Mapping[int, int],
              dirty_pairs: set[tuple[int, int]] | None = None
              ) -> dict[int, int]:
        problem.rebuild(matrix, index_of)
        return solve_lp(problem.system, problem.register_weights,
                        problem.users_map, problem.latency_weight)


class IncrementalSolver:
    """Patch the cached LP in place and warm-start the rounding repair.

    Per call, the solver asks the problem to swap the dirty timing bounds
    into the cached LP's right-hand side
    (:meth:`~repro.sdc.problem.ScheduleProblem.update_timing`); if the
    constraint structure changed instead, it falls back to a full rebuild.
    The LP is then solved on the cached (or freshly rebuilt) arrays, and the
    integer rounding is repaired with a worklist seeded only from violated
    constraints over the problem's cached row adjacency
    (:func:`_repair_with_adjacency`), keeping the previous schedule's
    fixpoint machinery warm across iterations.

    Attributes:
        incremental_solves: calls served by in-place bound patching.
        fallback_solves: calls that required a structural rebuild.
    """

    def __init__(self) -> None:
        self.incremental_solves = 0
        self.fallback_solves = 0

    def solve(self, problem: ScheduleProblem, matrix: np.ndarray,
              index_of: Mapping[int, int],
              dirty_pairs: set[tuple[int, int]] | None = None
              ) -> dict[int, int]:
        if dirty_pairs is None or not problem.update_timing(dirty_pairs,
                                                            matrix, index_of):
            problem.rebuild(matrix, index_of)
            self.fallback_solves += 1
        else:
            self.incremental_solves += 1
        return solve_problem(problem)
