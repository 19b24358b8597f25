"""Persistent, incrementally-updatable SDC scheduling problems.

A :class:`ScheduleProblem` owns everything the LP re-solve of one graph
needs -- the difference-constraint system and the register weights and
users map of the objective -- and keeps it alive across ISDC iterations
and II probes.  Each of those changes only row *bounds*:
:meth:`ScheduleProblem.retarget` re-derives the timing bounds from the
whole delay matrix at a budget (after ISDC feedback) and
:meth:`ScheduleProblem.rebase_ii` the loop bounds at a new initiation
interval; both hand the new bounds to one bound-write step.  Row positions
never move between rebuilds.  DSE clock probes clone one per-design
template and rebuild the clone at their own budget
(:mod:`repro.dse.warm`).

The system keeps every row; the solve (:func:`~repro.sdc.solver.solve_problem`)
receives only the rows no other rows imply (:attr:`ScheduleProblem.lp_rows`).
Most Eq. 2 timing rows are implied: a timing row ``(u, p)`` needing ``k``
cycles plus the dependency ``p -> v`` already forces ``(u, v)`` apart by
``k`` cycles.  Every build and retarget reads, for each constrained pair,
the largest delay one such hop inside it straight from the delay matrix
(:func:`implying_delays`); :attr:`ScheduleProblem.lp_rows` drops a row
when that delay needs at least as many cycles as the row's own.

Bound patches preserve parity with a from-scratch rebuild:

* the set of timing pairs is canonical -- :func:`build_system` enumerates
  :func:`timing_pairs` (``np.nonzero(matrix > budget)``) in row-major
  order, so as long as the *set* of constrained pairs is unchanged the row
  order is identical;
* patched bounds are computed with the same :func:`timing_bounds` formula
  over the same whole matrix a rebuild reads, so no write to the matrix
  can be missed;
* whenever the pair set changes (a constraint appears or vanishes),
  :meth:`~ScheduleProblem.retarget` falls back to
  :meth:`~ScheduleProblem.rebuild`, which is the from-scratch construction.

The solve's output, the least optimal schedule, is a function of the
constraint system alone, so equal systems give equal schedules however the
problem got there.  ``assemble_lp`` and ``AssembledLp``, the LP as the
HiGHS reference sees it, live in :mod:`repro.sdc.highs` and load scipy on
first use.

The functions :func:`register_weights` and :func:`users_map` live here
(rather than in :mod:`repro.sdc.scheduler`, which re-exports them) so the
solver layer can depend on them without an import cycle.
"""

from __future__ import annotations

import copy
from typing import Mapping

import numpy as np

from repro.ir.graph import DataflowGraph
from repro.ir.ops import OpKind
from repro.sdc.constraints import DEPENDENCY, LOOP, TIMING, ConstraintSystem
from repro.sdc.delays import NOT_CONNECTED
from repro.sdc.flow import FlowObjective, check_latency_weight, flow_objective

#: Names served by the HiGHS reference module, loaded on first use.
_REFERENCE = ("AssembledLp", "assemble_lp")


def __getattr__(name: str):
    if name in _REFERENCE:
        from repro.sdc import highs

        return getattr(highs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def timing_bounds(delays: np.ndarray, budget_ps: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 2 bounds of pairwise delays, and which of them constrain a pair.

    A pair ``(u, v)`` whose critical path is ``delay`` needs
    ``s_u - s_v <= -(ceil(delay / budget) - 1)``; the pair is constrained
    when that bound is negative (the path does not fit in one stage).
    """
    bounds = -(np.ceil(delays / budget_ps).astype(np.int64) - 1)
    return bounds, (delays != NOT_CONNECTED) & (bounds < 0)


def timing_pairs(matrix: np.ndarray, budget_ps: float
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair Eq. 2 constrains at ``budget_ps``, in row-major order.

    The diagonal is dropped: a single operation cannot be split across
    cycles, so an over-long operation is a clock-period selection problem,
    not a schedulable constraint.

    Returns:
        ``(rows, cols, bounds)``: the matrix row and column of each pair
        and its bound.
    """
    rows, cols = np.nonzero(matrix > budget_ps)
    bounds, keep = timing_bounds(matrix[rows, cols], budget_ps)
    keep &= rows != cols
    return rows[keep], cols[keep], bounds[keep]


def build_system(graph: DataflowGraph, matrix: np.ndarray,
                 index_of: Mapping[int, int], timing_budget_ps: float,
                 pin_sources: bool = True, ii: int = 1) -> ConstraintSystem:
    """Build the full constraint system of one graph from a delay matrix.

    The single construction routine shared by the baseline scheduler and
    every :class:`ScheduleProblem` rebuild -- the byte-parity guarantee of
    the bound patches relies on there being exactly one way to enumerate
    the constraints.  Row order is canonical:

    * dependencies ``s_operand - s_node <= 0``, per node in id order over
      ``set(node.operands)``;
    * timing pairs (Eq. 2), row-major over :func:`timing_pairs`;
    * loop back-edges ``s_src - s_phi <= II * d - 1``, by phi id: the value
      produced in iteration ``i`` must sit in the phi's loop register
      before iteration ``i + d`` (``II * d`` cycles later) reads it.

    No row repeats a ``(u, v, bound)`` triple.  Dependency rows are one per
    ``(operand, node)`` pair and timing rows one per matrix cell, with a
    negative bound, so neither can repeat; only a loop row at bound 0
    (``II * d == 1``) can equal a dependency row, and such a loop row, like
    a loop row repeating an earlier one, is dropped.  The rows are
    therefore assigned straight to the system's arrays, without the
    de-duplicating sort of :meth:`ConstraintSystem.extend`.  Sources are
    pinned to cycle 0 when ``pin_sources`` is set.
    """
    nodes = graph.nodes()
    dependencies = np.array(
        [(operand, node.node_id) for node in nodes
         for operand in set(node.operands)], dtype=np.int64).reshape(-1, 2)
    order = np.array(sorted(index_of, key=index_of.get), dtype=np.int64)
    rows, cols, bounds = timing_pairs(matrix, timing_budget_ps)
    loops = _unrepeated_loop_rows(dependencies, [
        (edge.src, edge.phi, ii * edge.distance - 1)
        for edge in graph.back_edges()])
    return ConstraintSystem(
        variables={node.node_id for node in nodes},
        pinned=({node.node_id: 0 for node in nodes if node.is_source}
                if pin_sources else {}),
        u=np.concatenate([dependencies[:, 0], order[rows], loops[:, 0]]),
        v=np.concatenate([dependencies[:, 1], order[cols], loops[:, 1]]),
        bound=np.concatenate([np.zeros(len(dependencies), np.int64), bounds,
                              loops[:, 2]]),
        kind=np.repeat(np.array([DEPENDENCY, TIMING, LOOP], np.int8),
                       [len(dependencies), len(rows), len(loops)]))


def _unrepeated_loop_rows(dependencies: np.ndarray,
                          loops: list[tuple[int, int, int]]) -> np.ndarray:
    """The loop rows that repeat no dependency row and no earlier loop row.

    Returns:
        The kept ``(src, phi, bound)`` rows, in order, as an ``(n, 3)``
        array.
    """
    kept: list[tuple[int, int, int]] = []
    if loops:
        seen = {(u, v, 0) for u, v in dependencies.tolist()}
        for row in loops:
            if row not in seen:
                seen.add(row)
                kept.append(row)
    return np.array(kept, dtype=np.int64).reshape(-1, 3)


def implying_delays(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                    operands: tuple[np.ndarray, np.ndarray],
                    users: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The largest delay one dependency hop inside each pair.

    For the pair ``(u, v) = (rows[i], cols[i])`` (matrix indices): the
    largest ``matrix[u, p]`` over operands ``p != u`` of ``v`` and
    ``matrix[c, v]`` over users ``c != v`` of ``u``, else
    :data:`NOT_CONNECTED`.  ``operands`` and ``users`` are ``(first,
    members)`` lists, ``members[first[j]:first[j + 1]]`` for index ``j``.
    Each pair's candidates are gathered through them and reduced with
    ``np.maximum.reduceat``; nothing of size ``n ** 2`` is built.
    """
    implying = np.full(len(rows), NOT_CONNECTED, dtype=float)
    # (u, p) then p -> v reaches (u, v); u -> c then (c, v) reaches (u, v).
    for (first, members), ends, fixed, forward in ((operands, cols, rows, True),
                                                   (users, rows, cols, False)):
        counts = first[ends + 1] - first[ends]
        offsets = np.cumsum(counts) - counts
        hops = members[np.arange(int(counts.sum()))
                       + np.repeat(first[ends] - offsets, counts)]
        at = np.repeat(fixed, counts)
        delays = matrix[at, hops] if forward else matrix[hops, at]
        delays[hops == at] = NOT_CONNECTED
        reached = np.flatnonzero(counts)
        if len(reached):
            implying[reached] = np.maximum(
                implying[reached], np.maximum.reduceat(delays,
                                                       offsets[reached]))
    return implying


def _adjacency(keys: np.ndarray, members: np.ndarray, size: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``members`` grouped by ``keys``, as ``(first, members)`` lists."""
    first = np.concatenate([[0], np.cumsum(np.bincount(keys,
                                                       minlength=size))])
    return first, members[np.argsort(keys, kind="stable")]


class ScheduleProblem:
    """The persistent scheduling problem of one dataflow graph.

    Built once per graph (typically by the baseline SDC schedule) and then
    kept alive for the whole ISDC loop: the register weights and users map
    are computed exactly once and the constraint system persists with
    fixed row positions.  Timing retargets (ISDC feedback) and II rebases
    only compute new bounds and hand them to one bound-write step, which
    updates the system's ``bound`` array (see the module docstring).

    Attributes:
        graph: the scheduled dataflow graph.
        timing_budget_ps: combinational budget of one stage (clock period
            minus register overhead).
        ii: initiation interval the loop (back-edge) constraints are scaled
            by; 1 and irrelevant for feed-forward graphs.
        latency_weight: tie-breaking objective weight (finite, ``>= 0``).
        pin_sources: whether parameters/constants are pinned to cycle 0.
        register_weights: cached objective weights (computed once).
        users_map: cached consumer map (computed once).
        system: the live constraint system.
        rebuilds: number of from-scratch system rebuilds performed.
        bound_patches: number of row bounds whose value a patch changed.
    """

    def __init__(self, graph: DataflowGraph, matrix: np.ndarray,
                 index_of: Mapping[int, int], timing_budget_ps: float,
                 latency_weight: float = 1e-3, pin_sources: bool = True,
                 ii: int = 1) -> None:
        self.graph = graph
        self.timing_budget_ps = float(timing_budget_ps)
        self.latency_weight = check_latency_weight(latency_weight)
        self.pin_sources = pin_sources
        self.ii = int(ii)
        self.register_weights = register_weights(graph)
        self.users_map = users_map(graph)
        self.rebuilds = 0
        self.bound_patches = 0
        self._objective: FlowObjective | None = None
        self._build_system(matrix, index_of)

    # ------------------------------------------------------------ construction

    def _build_system(self, matrix: np.ndarray, index_of: Mapping[int, int]
                      ) -> None:
        """(Re)build the constraint system from scratch.

        Also records where the timing rows sit: the slice of system rows
        :func:`build_system` places them in, after the dependency rows, and
        their ``row * n + col`` delay-matrix keys, which are ascending
        because :func:`timing_pairs` enumerates row-major.  Both stay fixed
        until the next rebuild, so clones share them, as they share the
        dependency rows' adjacency lists.
        """
        self.system = build_system(self.graph, matrix, index_of,
                                   self.timing_budget_ps, self.pin_sources,
                                   ii=self.ii)
        system, size = self.system, len(matrix)
        table = _index_table(index_of)
        dependency = system.kind == DEPENDENCY
        tails, heads = table[system.u[dependency]], table[system.v[dependency]]
        self._operands = _adjacency(heads, tails, size)
        self._users = _adjacency(tails, heads, size)
        # build_system orders its rows by kind: dependency, timing, loop.
        start, stop = np.searchsorted(system.kind, [TIMING, LOOP])
        self._timing_rows = slice(int(start), int(stop))
        rows = table[system.u[self._timing_rows]]
        cols = table[system.v[self._timing_rows]]
        self._timing_keys = rows * size + cols
        self._mark_implied(matrix, rows, cols)

    def _mark_implied(self, matrix: np.ndarray, rows: np.ndarray,
                      cols: np.ndarray) -> None:
        """Mark the timing rows :attr:`lp_rows` drops, at the current bounds.

        Run at every build and after every retarget's bound write, from the
        matrix as it is then (ISDC writes it in place), given the timing
        pairs' matrix indices; one flag per timing row is all that is kept.
        """
        implying, _ = timing_bounds(
            implying_delays(matrix, rows, cols, self._operands, self._users),
            self.timing_budget_ps)
        self._implied = implying <= self.system.bound[self._timing_rows]

    def rebuild(self, matrix: np.ndarray, index_of: Mapping[int, int]) -> None:
        """Rebuild everything from the current delay matrix (full fallback)."""
        self.rebuilds += 1
        self._build_system(matrix, index_of)

    def clone(self) -> "ScheduleProblem":
        """An independent copy sharing only what bound writes never touch.

        The system's ``u``, ``v`` and ``kind``, the timing-row index, the
        implied-row flags (which a retarget replaces, never edits), the
        dependency adjacency, the flow objective, the weights and the users
        map are shared; the system's ``bound`` -- the one array a bound
        write changes in place -- is copied, so rebasing or patching the
        clone can never alias back into the donor.  Counters start at the
        donor's values (they describe cumulative work, not identity).
        """
        duplicate = copy.copy(self)
        duplicate.system = self.system.clone()
        return duplicate

    # ----------------------------------------------------------- bound writes

    def _write_bounds(self, rows: np.ndarray | slice, bounds: np.ndarray
                      ) -> int:
        """Write new bounds into rows of the system.

        Returns:
            The number of rows whose bound changed; added to
            :attr:`bound_patches`.
        """
        changed = int(np.count_nonzero(bounds != self.system.bound[rows]))
        self.system.bound[rows] = bounds
        self.bound_patches += changed
        return changed

    def retarget(self, matrix: np.ndarray, index_of: Mapping[int, int],
                 budget_ps: float) -> bool:
        """Re-derive every timing bound from the whole matrix at ``budget_ps``.

        The one way timing bounds move: ISDC feedback calls it at the
        problem's own budget after the delay matrix changed, a DSE clock
        probe at a new budget over the same matrix.  :func:`timing_pairs`
        enumerates the constrained pairs exactly as a rebuild would; when
        their keys equal the recorded ones, every timing row is sent
        through the bound-write step (which counts only the bounds that
        changed), otherwise the system is rebuilt.  Either way the problem
        then equals a cold build at ``budget_ps``: same pairs, same row
        order, same :func:`timing_bounds` formula.

        Args:
            matrix: the current delay matrix.
            index_of: node id -> matrix row/column.
            budget_ps: the combinational budget (clock period minus
                register overhead).

        Returns:
            True when the bounds were patched in place, False when the pair
            set changed and the system was rebuilt.
        """
        self.timing_budget_ps = float(budget_ps)
        rows, cols, bounds = timing_pairs(matrix, self.timing_budget_ps)
        if np.array_equal(rows * len(matrix) + cols, self._timing_keys):
            self._write_bounds(self._timing_rows, bounds)
            self._mark_implied(matrix, rows, cols)
            return True
        self.rebuild(matrix, index_of)
        return False

    def rebase_ii(self, new_ii: int) -> bool:
        """Re-target every loop constraint to a new initiation interval.

        The minimum-II search probes the *same* problem at many candidate
        IIs; between two IIs only the loop-constraint bounds
        (``II * distance - 1``) move -- the rows are exactly the graph's
        back-edges at every II, so unlike :meth:`retarget` this rebase
        can never fail and never forces a rebuild.

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
        rows = self.system.rows_of("loop")
        # Every loop bound is ``ii * distance - 1`` at the current II.
        distances = (self.system.bound[rows] + 1) // self.ii
        changed = self._write_bounds(rows, new_ii * distances - 1)
        self.ii = new_ii
        return changed > 0

    # ----------------------------------------------------------------- solves

    @property
    def lp_rows(self) -> np.ndarray:
        """Rows the LP needs: every row except the implied timing rows.

        A timing row ``(u, v)`` is dropped when a timing row ``(u, p)``, with
        ``p`` an operand of ``v``, or ``(c, v)``, with ``c`` a user of
        ``u``, needs at least as many cycles: with the dependency row it
        forces ``(u, v)`` apart by as many.  ``ceil`` is monotone, so the
        build or retarget that sets the bounds compares each row's bound
        with that of its :func:`implying_delays` once; a pair needing 2 or
        more cycles always has a row, as neither :data:`NOT_CONNECTED` nor
        the diagonal (both left out) reaches 2.  The implying row spans a
        strictly shorter stretch of the (acyclic) dependency order, so by
        induction every dropped row is implied by the rows kept, and the
        feasible region and LP optimum are unchanged.  The flags depend on
        the matrix and budget alone, so a patched problem solves the same
        rows as a cold build.

        Returns:
            The kept system rows, ascending.
        """
        keep = np.ones(len(self.system), dtype=bool)
        keep[self._timing_rows] = ~self._implied
        return np.flatnonzero(keep)

    @property
    def objective(self) -> FlowObjective:
        """The rows-independent part of the flow solve's network.

        Built on first use.  It reads only the variables, the pins and the
        objective's weights, which no bound write or rebuild changes (every
        rebuild enumerates the same graph), so clones share it.
        """
        if self._objective is None:
            self._objective = flow_objective(self.system,
                                             self.register_weights,
                                             self.users_map,
                                             self.latency_weight)
        return self._objective

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleProblem({self.graph.name!r}, "
                f"{len(self.system)} constraints, "
                f"{len(self._timing_keys)} timing pairs)")


def _index_table(index_of: Mapping[int, int]) -> np.ndarray:
    """``index_of`` as a dense array: node id -> matrix index, -1 if absent."""
    table = np.full(max(index_of, default=-1) + 1, -1, dtype=np.int64)
    table[list(index_of)] = list(index_of.values())
    return table
