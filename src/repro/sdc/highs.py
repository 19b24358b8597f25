"""The HiGHS reference solve of the SDC LP (tests and benchmarks only).

Production schedules come from the flow solve of :mod:`repro.sdc.flow`;
this module keeps the LP as scipy's HiGHS sees it, so tests can hold the
flow solve to an independent solver.  It is loaded on first use of one of
its names through :mod:`repro.sdc.solver` (``solve_lp``, ``FullSolver``) or
:mod:`repro.sdc.problem` (``assemble_lp``, ``AssembledLp``), so no
production import pulls in scipy.

* :func:`assemble_lp` -- the register-lifetime LP of a constraint system
  as one sparse ``A_ub`` matrix over its row arrays;
* :func:`solve_lp` -- HiGHS on the LP over *every* row, its vertex rounded
  and repaired to feasibility by the rows' least fixpoint;
* :class:`FullSolver` -- rebuild the system from the delay matrix and
  :func:`solve_lp` it, the reference the ISDC loop's
  :class:`~repro.sdc.solver.IncrementalSolver` is held byte-identical to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.sdc.constraints import ConstraintSystem
from repro.sdc.flow import SdcInfeasibleError, _least_fixpoint, _pins
from repro.sdc.problem import ScheduleProblem


@dataclass
class AssembledLp:
    """The register-minimisation LP of one constraint system, fully assembled.

    Columns ``0 .. len(variables) - 1`` are the schedule variables in
    ascending node-id order; the lifetime variables follow.  Rows
    ``0 .. num_constraint_rows - 1`` of ``a_ub``/``b_ub`` are the system's
    rows in order, so a row index of the system is also its right-hand-side
    index; the lifetime-linking rows follow.

    Attributes:
        num_vars: total LP columns.
        a_ub: sparse ``A_ub`` matrix (``None`` when there are no rows).
        b_ub: dense right-hand side.
        objective: dense objective vector.
        bounds: per-column ``(lower, upper)`` bounds.
        num_constraint_rows: rows occupied by difference constraints.
    """

    num_vars: int
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray
    objective: np.ndarray
    bounds: list[tuple[float, float | None]]
    num_constraint_rows: int


def assemble_lp(system: ConstraintSystem,
                register_weights: Mapping[int, float] | None = None,
                users: Mapping[int, list[int]] | None = None,
                latency_weight: float = 1e-3) -> AssembledLp:
    """Assemble the register-lifetime-minimising LP for a constraint system.

    Row ``i`` of the system becomes ``x[tail] - x[head] <= bound`` over its
    dense columns; every user ``w`` of a weighted value ``n`` adds the
    lifetime row ``x[w] - x[n] - L[n] <= 0``.
    """
    register_weights = register_weights or {}
    users = users or {}

    order, tail, head = system.columns()
    var_index = dict(zip(order.tolist(), range(len(order))))
    lifetime_nodes = sorted(
        node_id for node_id, weight in register_weights.items()
        if weight > 0 and users.get(node_id) and node_id in var_index)
    num_vars = len(order) + len(lifetime_nodes)
    lifetimes = np.array(
        [(var_index[user], var_index[node_id], len(order) + i)
         for i, node_id in enumerate(lifetime_nodes)
         for user in set(users[node_id]) if user in var_index],
        dtype=np.int64).reshape(-1, 3)

    num_rows = len(system) + len(lifetimes)
    row_of = np.concatenate([np.repeat(np.arange(len(system)), 2),
                             np.repeat(np.arange(len(system), num_rows), 3)])
    column_of = np.concatenate([np.stack([tail, head], axis=1).ravel(),
                                lifetimes.ravel()])
    data = np.concatenate([np.tile([1.0, -1.0], len(system)),
                           np.tile([1.0, -1.0, -1.0], len(lifetimes))])
    a_ub = None
    if num_rows:
        a_ub = sparse.coo_matrix((data, (row_of, column_of)),
                                 shape=(num_rows, num_vars)).tocsr()

    objective = np.zeros(num_vars)
    objective[len(order):] = [float(register_weights[node_id])
                              for node_id in lifetime_nodes]
    objective[:len(order)] += latency_weight
    variable_bounds: list[tuple[float, float | None]] = [
        (float(system.pinned[node_id]),) * 2 if node_id in system.pinned
        else (0.0, None) for node_id in order.tolist()]
    variable_bounds.extend([(0.0, None)] * len(lifetime_nodes))
    return AssembledLp(num_vars=num_vars, a_ub=a_ub,
                       b_ub=np.concatenate([system.bound.astype(float),
                                            np.zeros(len(lifetimes))]),
                       objective=objective, bounds=variable_bounds,
                       num_constraint_rows=len(system))


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
    """Solve the SDC LP minimising weighted register lifetimes with HiGHS.

    The objective is ``sum_v w_v * L_v + latency_weight * sum_i s_i`` where
    ``L_v >= s_u - s_v`` for every user ``u`` of value ``v`` -- i.e. the
    number of stage boundaries the value must cross, weighted by its bit
    width.  The constraint matrix is totally unimodular, so the optimum is
    integral; rounding plus a fixpoint repair guards against floating-point
    noise.  Which optimal vertex HiGHS returns among tied optima is its
    own choice.

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


class FullSolver:
    """Rebuild the constraint system and solve the full LP on every call.

    The reference the ISDC loop's
    :class:`~repro.sdc.solver.IncrementalSolver` is held byte-identical to;
    production code never calls it.
    """

    def solve(self, problem: ScheduleProblem, matrix: np.ndarray,
              index_of: Mapping[int, int]) -> dict[int, int]:
        problem.rebuild(matrix, index_of)
        return solve_lp(problem.system, problem.register_weights,
                        problem.users_map, problem.latency_weight)
