"""Vectorized graph/timing primitives over :class:`~repro.kernel.view.GraphView`.

All primitives are level-batched: instead of one Python iteration per node,
each ASAP level is processed with a handful of numpy operations over the CSR
arrays.  Because every edge crosses at least one level boundary, all
predecessor values a level needs are final before the level is touched, so
the batched sweeps compute bit-identical results to the historical per-node
loops (max is exact, and every addition pairs the same two floats as before).

Parent choices are deterministic: a node's parent is the maximal
predecessor with the smallest topological position -- the contract of every
IR longest-path search, equivalent to a sequential relaxation in
topological order with strict-``>`` improvement (and therefore independent
of hash-seed-dependent set iteration).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.kernel.view import GraphView

#: Sentinel stored in all-pairs delay matrices for unconnected node pairs.
NOT_CONNECTED = -1.0

#: Sentinel for unreached nodes in single-source propagations.
UNREACHED = float("-inf")


def _gather_segments(indptr: np.ndarray, indices: np.ndarray,
                     rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR segments of ``rows``.

    Returns:
        ``(concat, starts, counts)`` where ``concat`` holds the neighbour
        dense indices of every row back to back, ``starts[i]`` is the offset
        of row ``i``'s segment in ``concat`` and ``counts[i]`` its length.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    ends = np.cumsum(counts)
    starts = ends - counts
    if total == 0:
        return np.empty(0, dtype=indices.dtype), starts, counts
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        indptr[rows] - starts, counts)
    return indices[positions], starts, counts


def forward_propagate(view: GraphView, delays: np.ndarray, *,
                      init: np.ndarray | None = None,
                      mask: np.ndarray | None = None,
                      floor: float = UNREACHED,
                      with_parents: bool = False,
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Level-batched forward value propagation.

    For every node ``v`` (restricted to ``mask`` when given, in ascending
    level order) the candidate value is
    ``max(floor, max over predecessors p of values[p]) + delays[v]``;
    predecessors still at :data:`UNREACHED` do not contribute.  A finite
    candidate overwrites the node's entry; otherwise the node keeps its
    ``init`` value (:data:`UNREACHED` by default).  This one engine covers

    * single-source longest paths (``init`` seeds the source, with parents),
    * masked subgraph longest paths (``floor=0.0``, no parents).

    Args:
        view: the graph view.
        delays: per-node delay in dense order.
        init: initial values in dense order (defaults to all-unreached);
            copied, never mutated.
        mask: boolean per dense index; nodes outside the mask are skipped
            entirely (they neither receive values nor relay them).
        floor: lower bound entering every candidate (use ``0.0`` to treat
            predecessor-less in-mask nodes as path starts).
        with_parents: also compute predecessor choices (see the module
            docstring for the tie rule).

    Returns:
        ``(values, parents)``; ``parents`` is ``None`` unless
        ``with_parents``, else the chosen predecessor dense index per node
        (-1 where the value did not come from a predecessor).
    """
    n = view.num_nodes
    values = (np.full(n, UNREACHED, dtype=float) if init is None
              else np.array(init, dtype=float, copy=True))
    parents = np.full(n, -1, dtype=np.int64) if with_parents else None
    if n == 0:
        return values, parents
    indptr, indices = view.pred_indptr, view.pred_indices
    for level in range(view.num_levels):
        rows = view.level_nodes(level)
        if mask is not None:
            rows = rows[mask[rows]]
        if rows.size == 0:
            continue
        concat, starts, counts = _gather_segments(indptr, indices, rows)
        segmax = np.full(rows.size, UNREACHED, dtype=float)
        nonempty = counts > 0
        if concat.size:
            pred_values = values[concat]
            segmax[nonempty] = np.maximum.reduceat(
                pred_values, starts[nonempty])
        best = np.maximum(segmax, floor)
        candidates = best + delays[rows]
        finite = candidates > UNREACHED
        if finite.any():
            values[rows[finite]] = candidates[finite]
        if parents is not None and concat.size:
            reached = nonempty & (segmax > UNREACHED) & (segmax >= floor)
            if reached.any():
                # The smallest topological position among the maxima.
                is_max = pred_values == np.repeat(segmax, counts)
                ranked = np.where(is_max, concat, np.iinfo(np.int64).max)
                seg_parent = np.full(rows.size, -1, dtype=np.int64)
                seg_parent[nonempty] = np.minimum.reduceat(
                    ranked, starts[nonempty])
                parents[rows[reached]] = seg_parent[reached]
    return values, parents


def longest_path_from(view: GraphView, delays: np.ndarray, source: int, *,
                      mask: np.ndarray | None = None,
                      with_parents: bool = True,
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Single-source longest (critical) path values, endpoint delays included.

    ``values[source] == delays[source]``; every node reachable from
    ``source`` (within ``mask`` when given) holds the largest sum of node
    delays over any connecting path; unreachable nodes hold
    :data:`UNREACHED`.  Parents break ties toward the smallest topological
    position (see module docstring).

    Args:
        view: the graph view.
        delays: per-node delays in dense order.
        source: dense index of the path source.
        mask: optional traversal restriction; must include ``source`` to
            produce any path.
        with_parents: skip parent tracking when False.
    """
    init = np.full(view.num_nodes, UNREACHED, dtype=float)
    if mask is None or mask[source]:
        init[source] = delays[source]
    return forward_propagate(view, delays, init=init, mask=mask,
                             with_parents=with_parents)


def reconstruct_path(parents: np.ndarray, source: int, sink: int) -> list[int]:
    """Walk ``parents`` from ``sink`` back to ``source`` (dense indices)."""
    path = [sink]
    while path[-1] != source:
        previous = int(parents[path[-1]])
        if previous < 0:
            raise ValueError(f"no recorded path from {source} to {sink}")
        path.append(previous)
    path.reverse()
    return path


def reachable_indices(view: GraphView, seeds: Iterable[int], *,
                      backward: bool = False,
                      mask: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Frontier-compressed reachability over the CSR index arrays.

    The sweep only ever touches the frontier and its neighbours, and the
    result is the (typically much smaller than ``n``) set of reached dense
    indices rather than an ``n``-wide mask -- with a caller-provided
    ``scratch`` buffer, repeated small-cone sweeps cost O(reached) each
    instead of O(n) for a fresh visited allocation per call.

    Args:
        view: the graph view.
        seeds: dense indices the sweep starts from (inclusive; seeds outside
            ``mask`` are dropped).
        backward: sweep predecessors (ancestors) instead of successors.
        mask: boolean per dense index restricting the traversal.
        scratch: optional all-False boolean buffer of length ``num_nodes``
            reused as the visited set; restored to all-False before
            returning.

    Returns:
        Ascending dense indices of every node reachable from the seeds.
    """
    visited = (np.zeros(view.num_nodes, dtype=bool) if scratch is None
               else scratch)
    frontier = np.asarray(list(seeds), dtype=np.int64)
    if mask is not None and frontier.size:
        frontier = frontier[mask[frontier]]
    frontier = np.unique(frontier)
    visited[frontier] = True
    reached = [frontier]
    if backward:
        indptr, indices = view.pred_indptr, view.pred_indices
    else:
        indptr, indices = view.succ_indptr, view.succ_indices
    while frontier.size:
        neighbours, _, _ = _gather_segments(indptr, indices, frontier)
        if neighbours.size == 0:
            break
        neighbours = np.unique(neighbours)
        fresh = neighbours[~visited[neighbours]]
        if mask is not None:
            fresh = fresh[mask[fresh]]
        visited[fresh] = True
        reached.append(fresh)
        frontier = fresh
    result = np.sort(np.concatenate(reached)) if len(reached) > 1 else reached[0]
    if scratch is not None:
        visited[result] = False
    return result


def reachable_mask(view: GraphView, seeds: Iterable[int], *,
                   backward: bool = False,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """Reachability as a boolean mask over dense indices.

    Thin wrapper over :func:`reachable_indices` for callers that feed the
    result straight into masked sweeps.

    Args:
        view: the graph view.
        seeds: dense indices the sweep starts from (inclusive; seeds outside
            ``mask`` are dropped).
        backward: sweep predecessors (ancestors) instead of successors.
        mask: boolean per dense index restricting the traversal.

    Returns:
        Boolean array over dense indices: True for every node reachable from
        the seeds.
    """
    visited = np.zeros(view.num_nodes, dtype=bool)
    visited[reachable_indices(view, seeds, backward=backward, mask=mask)] = True
    return visited


def critical_path_matrix(view: GraphView, delays: np.ndarray) -> np.ndarray:
    """All-pairs critical combinational path delays, level by level.

    Entry ``[i][j]`` holds the largest sum of node delays over any directed
    path from dense index ``i`` to dense index ``j`` (both endpoint delays
    included); the diagonal holds individual node delays; unconnected pairs
    hold :data:`NOT_CONNECTED`.  This is the vectorized form of the paper's
    Alg. 1 lines 1--9, tuned for memory layout and exactness:

    * the matrix is built *transposed* (one contiguous row per target node)
      so every level is a handful of whole-row operations, and returned as
      the cheap transposed view -- values are position-for-position identical
      to the historical per-node-column loop;
    * unconnected pairs are :data:`UNREACHED` during construction so the
      recurrence is a plain ``max``/``+`` without per-entry connectivity
      masks, rewritten to :data:`NOT_CONNECTED` at the end;
    * predecessors are folded positionally (first operand, second operand,
      ...) with elementwise ``np.maximum`` -- exact, and far faster than a
      segmented reduction since in-degrees are small;
    * each node's own delay is added once *after* the max over predecessors;
      rounding is monotonic, so ``max(a, b) + d`` is bit-identical to the
      reference's ``max(a + d, b + d)``.
    """
    n = view.num_nodes
    transposed = np.full((n, n), UNREACHED, dtype=float)
    if n == 0:
        return transposed
    indptr, indices = view.pred_indptr, view.pred_indices
    for level in range(view.num_levels):
        rows = view.level_nodes(level)
        if level > 0:
            starts = indptr[rows]
            counts = indptr[rows + 1] - starts
            best = transposed[indices[starts], :].copy()
            for position in range(1, int(counts.max())):
                present = counts > position
                preds = indices[starts[present] + position]
                best[present] = np.maximum(best[present], transposed[preds, :])
            best += delays[rows][:, None]
            transposed[rows, :] = best
        transposed[rows, rows] = delays[rows]
    matrix = transposed.T
    matrix[np.isneginf(matrix)] = NOT_CONNECTED
    return matrix


def path_delay(delay_of, path: Iterable[int]) -> float:
    """Sum of per-element delays along an explicit path.

    The one shared implementation behind the IR-level and netlist-level
    ``path_delay`` helpers: ``delay_of`` is either a mapping from element id
    to delay or a callable.
    """
    if isinstance(delay_of, Mapping):
        return sum(float(delay_of[element]) for element in path)
    return sum(float(delay_of(element)) for element in path)
