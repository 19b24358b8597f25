"""Persistent, incrementally-updatable SDC scheduling problems.

A :class:`ScheduleProblem` owns everything the LP re-solve of one graph
needs -- the difference-constraint system, the register weights and users
map of the objective, and the assembled sparse LP structure -- and keeps it
alive across ISDC iterations.  Feedback rounds only touch a handful of
delay-matrix entries, so instead of rebuilding the whole problem each
iteration the caller reports the dirty ``(u, v)`` pairs and
:meth:`ScheduleProblem.update_timing` swaps just the affected timing-
constraint bounds in place.  Constraints keep stable row identities
(:meth:`~repro.sdc.constraints.ConstraintSystem.set_timing_bound`), so the
cached LP matrix and repair adjacency stay valid and only the right-hand
side is patched.

Delta updates preserve byte-level parity with a from-scratch rebuild:

* the set of timing pairs is canonical -- a full rebuild enumerates
  ``np.nonzero(matrix > budget)`` in row-major order, so as long as the
  *set* of constrained pairs is unchanged the constraint order (and hence
  the LP row order) is identical;
* patched bounds are computed with the same formula a rebuild would use;
* whenever the pair set would change (a constraint appears or vanishes),
  :meth:`update_timing` refuses and the caller falls back to
  :meth:`rebuild`, which reproduces the from-scratch construction exactly.

The functions :func:`register_weights`, :func:`users_map`,
:func:`add_dependency_constraints` and :func:`add_timing_constraints` live
here (rather than in :mod:`repro.sdc.scheduler`, which re-exports them) so
the solver layer can depend on them without an import cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse

from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind
from repro.sdc.constraints import ConstraintSystem
from repro.sdc.delays import NOT_CONNECTED


def register_weights(graph: DataflowGraph) -> dict[int, float]:
    """Objective weight (bit width) of each value that may need registering.

    Constants are excluded: they synthesise to tie cells, never to pipeline
    registers.
    """
    weights: dict[int, float] = {}
    for node in graph.nodes():
        if node.kind is OpKind.CONSTANT:
            continue
        if graph.users_of(node.node_id):
            weights[node.node_id] = float(node.width)
    return weights


def users_map(graph: DataflowGraph) -> dict[int, list[int]]:
    """Users of every node (convenience for the LP objective)."""
    return {node.node_id: graph.users_of(node.node_id) for node in graph.nodes()}


def add_dependency_constraints(system: ConstraintSystem, graph: DataflowGraph) -> None:
    """Add producer-before-consumer constraints for every dataflow edge."""
    for node in graph.nodes():
        system.add_variable(node.node_id)
        for operand in set(node.operands):
            system.add_dependency(operand, node.node_id)


def timing_bound_for(delay: float, clock_period_ps: float) -> int:
    """The difference-constraint bound Eq. 2 derives from a pairwise delay."""
    return -(math.ceil(delay / clock_period_ps) - 1)


def add_timing_constraints(system: ConstraintSystem, matrix: np.ndarray,
                           index_of: Mapping[int, int],
                           clock_period_ps: float) -> int:
    """Add Eq. 2 timing constraints for every pair whose delay exceeds the clock.

    Returns:
        The number of constraints added.
    """
    order = sorted(index_of, key=index_of.get)
    added = 0
    rows, cols = np.nonzero(matrix > clock_period_ps)
    for row, col in zip(rows.tolist(), cols.tolist()):
        if row == col:
            # A single operation cannot be split across cycles; an
            # over-long operation is a clock-period selection problem,
            # not a schedulable constraint.
            continue
        delay = matrix[row, col]
        if delay == NOT_CONNECTED:
            continue
        min_distance = -timing_bound_for(delay, clock_period_ps)
        if min_distance <= 0:
            continue
        if system.add_timing(order[row], order[col], min_distance):
            added += 1
    return added


def add_loop_constraints(system: ConstraintSystem, graph: DataflowGraph,
                         ii: int) -> int:
    """Add the II-scaled recurrence constraint of every loop back-edge.

    For each back-edge ``src -> phi`` at distance ``d`` this is
    ``s_src - s_phi <= II * d - 1``: the value produced in iteration ``i``
    must sit in the phi's loop register before iteration ``i + d`` (which
    starts ``II * d`` cycles later) reads it.

    Returns:
        The number of constraints added.
    """
    added = 0
    for edge in graph.back_edges():
        if system.add_loop(edge.src, edge.phi, edge.distance, ii):
            added += 1
    return added


def build_system(graph: DataflowGraph, matrix: np.ndarray,
                 index_of: Mapping[int, int], timing_budget_ps: float,
                 pin_sources: bool = True, ii: int = 1) -> ConstraintSystem:
    """Build the full constraint system of one graph from a delay matrix.

    The single construction routine shared by the baseline scheduler and
    every :class:`ScheduleProblem` rebuild -- the byte-parity guarantee of
    the incremental solver relies on there being exactly one way to
    enumerate the constraints.  Constraint order is canonical:
    dependencies, source pins, timing pairs (row-major), then loop
    back-edges (by phi id).
    """
    system = ConstraintSystem()
    add_dependency_constraints(system, graph)
    if pin_sources:
        for node in graph.nodes():
            if node.is_source:
                system.pin(node.node_id, 0)
    add_timing_constraints(system, matrix, index_of, timing_budget_ps)
    add_loop_constraints(system, graph, ii)
    return system


@dataclass(frozen=True)
class TimingPack:
    """The timing pairs of one constraint system, packed into arrays.

    Everything here is immutable once built (the *set* of timing pairs only
    changes on a full rebuild), so clones share one pack; the current bound
    of each pair lives in the LP's right-hand side, not in the pack.

    Attributes:
        rows: matrix row index of every pair, in constraint (row-major) order.
        cols: matrix column index of every pair, aligned with ``rows``.
        node_u: node id of every pair's source, aligned with ``rows``.
        node_v: node id of every pair's sink, aligned with ``rows``.
        lp_rows: stable constraint-row index of every pair's bound.
    """

    rows: np.ndarray
    cols: np.ndarray
    node_u: np.ndarray
    node_v: np.ndarray
    lp_rows: np.ndarray


@dataclass
class AssembledLp:
    """The register-minimisation LP of one constraint system, fully assembled.

    Rows ``0 .. num_constraint_rows - 1`` of ``a_ub``/``b_ub`` correspond
    one-to-one (and in order) to the system's difference constraints, so a
    constraint's stable row identity doubles as its right-hand-side index;
    the lifetime-linking rows follow.

    Attributes:
        var_index: schedule variable (node id) -> LP column.
        lifetime_index: lifetime variable (node id) -> LP column.
        num_vars: total LP columns.
        a_ub: sparse ``A_ub`` matrix (``None`` when there are no rows).
        b_ub: dense right-hand side; patched in place by delta updates.
        objective: dense objective vector.
        bounds: per-column ``(lower, upper)`` bounds.
        num_constraint_rows: rows occupied by difference constraints.
    """

    var_index: dict[int, int]
    lifetime_index: dict[int, int]
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

    This is the single assembly routine shared by every solve path (the
    cached :meth:`ScheduleProblem.lp` and the one-shot reference
    :func:`~repro.sdc.solver.solve_lp`), which is what makes
    cached-and-patched structures byte-identical to rebuilt ones.
    """
    register_weights = register_weights or {}
    users = users or {}

    variables = sorted(system.variables)
    var_index = {node_id: i for i, node_id in enumerate(variables)}
    lifetime_nodes = sorted(
        node_id for node_id, weight in register_weights.items()
        if weight > 0 and users.get(node_id) and node_id in var_index)
    lifetime_index = {node_id: len(variables) + i
                      for i, node_id in enumerate(lifetime_nodes)}
    num_vars = len(variables) + len(lifetime_nodes)

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    bounds_rhs: list[float] = []

    def add_row(entries: list[tuple[int, float]], rhs: float) -> None:
        row = len(bounds_rhs)
        for col, coeff in entries:
            rows.append(row)
            cols.append(col)
            data.append(coeff)
        bounds_rhs.append(rhs)

    for constraint in system:
        add_row([(var_index[constraint.u], 1.0), (var_index[constraint.v], -1.0)],
                float(constraint.bound))
    num_constraint_rows = len(bounds_rhs)

    for node_id in lifetime_nodes:
        for user in set(users[node_id]):
            if user not in var_index:
                continue
            add_row([(var_index[user], 1.0), (var_index[node_id], -1.0),
                     (lifetime_index[node_id], -1.0)], 0.0)

    objective = np.zeros(num_vars)
    for node_id in lifetime_nodes:
        objective[lifetime_index[node_id]] = float(register_weights[node_id])
    for node_id in variables:
        objective[var_index[node_id]] += latency_weight

    variable_bounds: list[tuple[float, float | None]] = []
    for node_id in variables:
        if node_id in system.pinned:
            pin = float(system.pinned[node_id])
            variable_bounds.append((pin, pin))
        else:
            variable_bounds.append((0.0, None))
    variable_bounds.extend([(0.0, None)] * len(lifetime_nodes))

    a_ub = None
    if bounds_rhs:
        a_ub = sparse.coo_matrix((data, (rows, cols)),
                                 shape=(len(bounds_rhs), num_vars)).tocsr()
    return AssembledLp(var_index=var_index, lifetime_index=lifetime_index,
                       num_vars=num_vars, a_ub=a_ub,
                       b_ub=np.array(bounds_rhs), objective=objective,
                       bounds=variable_bounds,
                       num_constraint_rows=num_constraint_rows)


class ScheduleProblem:
    """The persistent scheduling problem of one dataflow graph.

    Built once per graph (typically by the baseline SDC schedule) and then
    kept alive for the whole ISDC loop: the register weights and users map
    are computed exactly once, the constraint system persists with stable
    row identities, and the assembled LP is cached and patched in place by
    :meth:`update_timing`.

    Attributes:
        graph: the scheduled dataflow graph.
        timing_budget_ps: combinational budget of one stage (clock period
            minus register overhead).
        ii: initiation interval the loop (back-edge) constraints are scaled
            by; 1 and irrelevant for feed-forward graphs.
        latency_weight: tie-breaking objective weight.
        pin_sources: whether parameters/constants are pinned to cycle 0.
        register_weights: cached objective weights (computed once).
        users_map: cached consumer map (computed once).
        system: the live constraint system.
        rebuilds: number of from-scratch system rebuilds performed.
        bound_patches: number of timing bounds swapped in place.
    """

    def __init__(self, graph: DataflowGraph, matrix: np.ndarray,
                 index_of: Mapping[int, int], timing_budget_ps: float,
                 latency_weight: float = 1e-3, pin_sources: bool = True,
                 ii: int = 1) -> None:
        self.graph = graph
        self.timing_budget_ps = float(timing_budget_ps)
        self.latency_weight = float(latency_weight)
        self.pin_sources = pin_sources
        self.ii = int(ii)
        self.register_weights = register_weights(graph)
        self.users_map = users_map(graph)
        self.rebuilds = 0
        self.bound_patches = 0
        self.system = ConstraintSystem()
        self._lp: AssembledLp | None = None
        self._repair_adjacency: dict[int, list[int]] | None = None
        self._timing_pack: TimingPack | None = None
        self._build_system(matrix, index_of)

    # ------------------------------------------------------------ construction

    def _build_system(self, matrix: np.ndarray, index_of: Mapping[int, int]
                      ) -> None:
        """(Re)build the constraint system from scratch, invalidating caches."""
        self.system = build_system(self.graph, matrix, index_of,
                                   self.timing_budget_ps, self.pin_sources,
                                   ii=self.ii)
        self._lp = None
        self._repair_adjacency = None
        self._timing_pack = None

    def rebuild(self, matrix: np.ndarray, index_of: Mapping[int, int]) -> None:
        """Rebuild everything from the current delay matrix (full fallback)."""
        self.rebuilds += 1
        self._build_system(matrix, index_of)

    def clone(self) -> "ScheduleProblem":
        """An independent copy sharing only the immutable per-graph state.

        The constraint system and the cached LP are deep-copied (the LP's
        right-hand side is the one array delta updates patch in place;
        everything else in :class:`AssembledLp` is never mutated and is
        shared), so rebasing or patching the clone can never alias state
        back into the donor -- the donor's solved schedule stays
        byte-identical.  ``register_weights``, ``users_map`` and the cached
        repair adjacency are immutable once computed and therefore shared.
        Counters start at the donor's values (they describe cumulative work,
        not identity).
        """
        duplicate = ScheduleProblem.__new__(ScheduleProblem)
        duplicate.graph = self.graph
        duplicate.timing_budget_ps = self.timing_budget_ps
        duplicate.latency_weight = self.latency_weight
        duplicate.pin_sources = self.pin_sources
        duplicate.ii = self.ii
        duplicate.register_weights = self.register_weights
        duplicate.users_map = self.users_map
        duplicate.rebuilds = self.rebuilds
        duplicate.bound_patches = self.bound_patches
        duplicate.system = self.system.clone()
        duplicate._lp = None
        if self._lp is not None:
            lp = self._lp
            duplicate._lp = AssembledLp(
                var_index=lp.var_index, lifetime_index=lp.lifetime_index,
                num_vars=lp.num_vars, a_ub=lp.a_ub, b_ub=lp.b_ub.copy(),
                objective=lp.objective, bounds=lp.bounds,
                num_constraint_rows=lp.num_constraint_rows)
        duplicate._repair_adjacency = self._repair_adjacency
        duplicate._timing_pack = self._timing_pack
        return duplicate

    # ----------------------------------------------------------- delta updates

    def update_timing(self, dirty_pairs: Iterable[tuple[int, int]],
                      matrix: np.ndarray, index_of: Mapping[int, int]) -> bool:
        """Swap the timing bounds of the dirty pairs in place.

        Args:
            dirty_pairs: ``(u, v)`` node-id pairs whose delay-matrix entries
                changed since the last solve.
            matrix: the current delay matrix.
            index_of: node id -> matrix row/column.

        Returns:
            True when the update was applied incrementally.  False when the
            structure changed -- a timing constraint would have to appear or
            vanish, or a dirty node is unknown -- in which case *nothing* is
            modified and the caller must :meth:`rebuild`.
        """
        budget = self.timing_budget_ps
        patches: list[tuple[int, int, int]] = []
        for u, v in sorted(set(dirty_pairs)):
            if u == v:
                continue  # diagonal entries never carry timing constraints
            row_u = index_of.get(u)
            col_v = index_of.get(v)
            if row_u is None or col_v is None:
                return False
            delay = matrix[row_u, col_v]
            needed = delay != NOT_CONNECTED and delay > budget
            existing = self.system.timing_bound(u, v)
            if needed and existing is not None:
                bound = timing_bound_for(delay, budget)
                if bound != existing:
                    patches.append((u, v, bound))
            elif needed != (existing is not None):
                return False
        # Cheap global safety net: the number of constrained pairs a rebuild
        # would produce must match what we are keeping.  Catches delay-matrix
        # mutations that bypassed dirty-pair tracking.
        mask = matrix > budget
        np.fill_diagonal(mask, False)
        if int(np.count_nonzero(mask)) != self.system.num_timing_pairs():
            return False
        for u, v, bound in patches:
            self.system.set_timing_bound(u, v, bound)
            if self._lp is not None:
                row = self.system.timing_row(u, v)
                self._lp.b_ub[row] = float(bound)
            self.bound_patches += 1
        return True

    def rebase_timing(self, matrix: np.ndarray, index_of: Mapping[int, int],
                      new_budget_ps: float) -> bool:
        """Re-target the problem to a new combinational budget in place.

        The clock-period DSE layer probes the *same* design (same graph,
        same delay matrix) at many clock periods; between two periods only
        the timing constraints move -- the set of constrained pairs
        (``matrix > budget``) and each pair's ``ceil(delay / budget) - 1``
        bound.  When the pair set is unchanged the whole re-target is a
        bound patch: only pairs whose ceil bucket actually changed are
        touched, through the same :meth:`~repro.sdc.constraints.ConstraintSystem.set_timing_bound`
        row-identity machinery the ISDC delta updates use, so the cached LP
        survives with its right-hand side patched in place.

        Byte parity with a cold build at ``new_budget_ps`` holds because a
        rebuild enumerates timing pairs as ``np.nonzero(matrix > budget)``
        in row-major order: an unchanged pair set means an unchanged
        constraint order, and patched bounds use the same
        :func:`timing_bound_for` formula a rebuild would.

        Args:
            matrix: the design's delay matrix (unchanged across periods).
            index_of: node id -> matrix row/column.
            new_budget_ps: the new combinational budget (clock period minus
                register overhead).

        Returns:
            True when the re-target was applied as an in-place bound patch
            (including the no-op case of an identical budget).  False when
            the pair set differs -- a timing constraint would appear or
            vanish -- or the system's pairs do not match this matrix; the
            problem is then left *unmodified* and the caller must
            :meth:`rebuild` after updating :attr:`timing_budget_ps`.
        """
        new_budget = float(new_budget_ps)
        if new_budget == self.timing_budget_ps:
            return True
        mask = matrix > new_budget
        np.fill_diagonal(mask, False)
        pack = self.timing_pack(index_of)
        nz_rows, nz_cols = np.nonzero(mask)
        # The pair set (and its row-major order) must be exactly the one the
        # system carries; np.nonzero enumerates row-major and the pack was
        # built in the same order, so plain array equality checks both.
        if len(nz_rows) != len(pack.rows) \
                or not np.array_equal(nz_rows, pack.rows) \
                or not np.array_equal(nz_cols, pack.cols):
            return False
        delays = matrix[pack.rows, pack.cols]
        new_bounds = -(np.ceil(delays / new_budget).astype(np.int64) - 1)
        current = np.array(
            [self.system.constraint_at(row).bound
             for row in pack.lp_rows.tolist()], dtype=np.int64) \
            if self._lp is None \
            else self._lp.b_ub[pack.lp_rows].astype(np.int64)
        changed = np.nonzero(new_bounds != current)[0]
        for position in changed.tolist():
            self.system.set_timing_bound(int(pack.node_u[position]),
                                         int(pack.node_v[position]),
                                         int(new_bounds[position]))
        if self._lp is not None and len(changed):
            self._lp.b_ub[pack.lp_rows[changed]] = \
                new_bounds[changed].astype(float)
        self.bound_patches += int(len(changed))
        self.timing_budget_ps = new_budget
        return True

    def retarget(self, matrix: np.ndarray, index_of: Mapping[int, int],
                 new_budget_ps: float) -> bool:
        """Move the problem to a new budget: bound patch, or full rebuild.

        Returns:
            True when :meth:`rebase_timing` patched in place, False when the
            pair set changed and a full rebuild was performed instead (the
            problem is valid for ``new_budget_ps`` either way).
        """
        if self.rebase_timing(matrix, index_of, new_budget_ps):
            return True
        self.timing_budget_ps = float(new_budget_ps)
        self.rebuild(matrix, index_of)
        return False

    def rebase_ii(self, new_ii: int) -> bool:
        """Re-target every loop constraint to a new initiation interval.

        The minimum-II search probes the *same* problem at many candidate
        IIs; between two IIs only the loop-constraint bounds move
        (``II * distance - 1``) -- the constrained pair set is exactly the
        graph's back-edges at every II, so unlike :meth:`rebase_timing`
        this rebase can never fail and never forces a rebuild.  Bounds are
        swapped through the stable-row machinery
        (:meth:`~repro.sdc.constraints.ConstraintSystem.set_loop_bound`)
        and the cached LP's right-hand side is patched in place, making an
        II probe as cheap as a warm clock-period probe.

        Returns:
            True when any bound actually changed (False for a no-op II).

        Raises:
            ValueError: if ``new_ii`` is not positive.
        """
        new_ii = int(new_ii)
        if new_ii < 1:
            raise ValueError(f"initiation interval must be >= 1, got {new_ii}")
        if new_ii == self.ii:
            return False
        changed = 0
        for src, phi, distance, row in self.system.loop_entries():
            if self.system.set_loop_bound(src, phi, new_ii):
                if self._lp is not None:
                    self._lp.b_ub[row] = float(new_ii * distance - 1)
                changed += 1
        self.ii = new_ii
        self.bound_patches += changed
        return changed > 0

    # ----------------------------------------------------------------- caches

    def timing_pack(self, index_of: Mapping[int, int]) -> TimingPack:
        """The packed timing-pair arrays (cached; shared by clones).

        The set of timing pairs only changes on a rebuild, so the pack is
        immutable for the problem's lifetime and cheap to share; only each
        pair's *bound* moves between rebases, and that lives in the LP's
        right-hand side.
        """
        if self._timing_pack is None:
            entries = self.system.timing_entries()
            self._timing_pack = TimingPack(
                rows=np.array([index_of[u] for u, _, _ in entries],
                              dtype=np.intp),
                cols=np.array([index_of[v] for _, v, _ in entries],
                              dtype=np.intp),
                node_u=np.array([u for u, _, _ in entries], dtype=np.int64),
                node_v=np.array([v for _, v, _ in entries], dtype=np.int64),
                lp_rows=np.array([row for _, _, row in entries],
                                 dtype=np.intp))
        return self._timing_pack

    def lp(self) -> AssembledLp:
        """The assembled LP (cached; bounds are patched in place by deltas)."""
        if self._lp is None:
            self._lp = assemble_lp(self.system, self.register_weights,
                                   self.users_map, self.latency_weight)
        return self._lp

    def repair_adjacency(self) -> dict[int, list[int]]:
        """Constraint row indices grouped by source variable (cached).

        Rows are stable across delta updates, so the adjacency survives bound
        patches; it is invalidated only by a rebuild.
        """
        if self._repair_adjacency is None:
            adjacency: dict[int, list[int]] = {}
            for row, constraint in enumerate(self.system):
                adjacency.setdefault(constraint.u, []).append(row)
            self._repair_adjacency = adjacency
        return self._repair_adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleProblem({self.graph.name!r}, "
                f"{len(self.system)} constraints, "
                f"{self.system.num_timing_pairs()} timing pairs)")
