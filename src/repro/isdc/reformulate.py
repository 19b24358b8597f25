"""Delay re-propagation for SDC reformulation (paper Algorithm 2).

After feedback lowers individual entries of the delay matrix, the estimates
of longer paths that *contain* the measured subgraphs are still the old,
over-conservative sums.  Algorithm 2 re-derives all pairwise estimates in
O(n^2) amortised work per node: a topological sweep recomputes the delay from
every node to ``v`` through ``v``'s operands (taking the worst operand, as a
critical path must), followed by a reverse sweep that propagates through
users to catch complementary paths.  Entries are only ever *lowered* --
pruning over-conservative timing constraints is the whole point.
:func:`propagate_delays` is that one pass over the dense ``D[n][n]``, whole
rows and columns at a time, one level of the graph per step.

:func:`floyd_warshall_refine` is the O(n^3) alternative the paper mentions:
it relaxes every pair through every single intermediate node.  It can lower
estimates more aggressively (and occasionally too aggressively, since a
single intermediate does not dominate all parallel paths); the reformulation
accuracy benchmark compares both against post-synthesis ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.isdc.delay_matrix import DelayMatrix
from repro.sdc.delays import NOT_CONNECTED


def propagate_delays(delay_matrix: DelayMatrix) -> int:
    """Re-propagate pairwise delays after feedback updates (Alg. 2 lines 1--16).

    The matrix is modified in place; the re-solve that follows re-derives
    every timing bound from the whole matrix
    (:meth:`~repro.sdc.problem.ScheduleProblem.retarget`), so nothing needs
    to record which entries were lowered.

    Both sweeps run level-batched over the graph's shared kernel
    :class:`~repro.kernel.GraphView`: since every edge crosses a level
    boundary, all operand (resp. user) rows a level reads are final before
    the level is written, so one gathered ``max``-reduction per level lowers
    exactly the entries the historical per-node loops lowered.

    Returns:
        The total number of matrix entries that were lowered.
    """
    view = delay_matrix.view
    matrix = delay_matrix.matrix
    index_of = delay_matrix.index_of
    # Dense position -> matrix row/column (identity when the matrix was built
    # from the same view, but kept explicit so hand-constructed index maps
    # keep working).
    col_of = np.asarray([index_of[nid] for nid in view.order_ids()],
                        dtype=np.int64)
    changed = 0

    # Forward sweep: recompute the delay from every node u to v through v's
    # operands, using the (possibly feedback-lowered) delays to the operands.
    # Predecessor columns are folded positionally (first operand, second
    # operand, ...) with elementwise maxima -- in-degrees are small, so this
    # is a few whole-column operations per level.
    for level in range(1, view.num_levels):
        rows = view.level_nodes(level)
        starts = view.pred_indptr[rows]
        counts = view.pred_indptr[rows + 1] - starts
        columns = col_of[rows]
        own_delays = matrix[columns, columns]
        incoming = matrix[:, col_of[view.pred_indices[starts]]]
        best = np.where(incoming != NOT_CONNECTED, incoming + own_delays,
                        NOT_CONNECTED)
        for position in range(1, int(counts.max())):
            present = counts > position
            preds = col_of[view.pred_indices[starts[present] + position]]
            incoming = matrix[:, preds]
            candidates = np.where(incoming != NOT_CONNECTED,
                                  incoming + own_delays[present],
                                  NOT_CONNECTED)
            best[:, present] = np.maximum(best[:, present], candidates)
        best[columns, np.arange(columns.size)] = NOT_CONNECTED  # diagonal
        current = matrix[:, columns]
        improve = ((best != NOT_CONNECTED)
                   & ((current > best) | (current == NOT_CONNECTED)))
        count = int(improve.sum())
        if count:
            matrix[:, columns] = np.where(improve, best, current)
            changed += count

    # Reverse sweep: propagate through users to catch the complementary
    # direction (delays from u forward into each of its users' cones).
    for level in range(view.num_levels - 1, -1, -1):
        nodes = view.level_nodes(level)
        starts = view.succ_indptr[nodes]
        counts = view.succ_indptr[nodes + 1] - starts
        with_users = counts > 0
        if not with_users.any():
            continue
        nodes, starts, counts = nodes[with_users], starts[with_users], counts[with_users]
        rows = col_of[nodes]
        own_delays = matrix[rows, rows]
        outgoing = matrix[col_of[view.succ_indices[starts]], :]
        best = np.where(outgoing != NOT_CONNECTED,
                        outgoing + own_delays[:, None], NOT_CONNECTED)
        for position in range(1, int(counts.max())):
            present = counts > position
            users = col_of[view.succ_indices[starts[present] + position]]
            outgoing = matrix[users, :]
            candidates = np.where(outgoing != NOT_CONNECTED,
                                  outgoing + own_delays[present, None],
                                  NOT_CONNECTED)
            best[present] = np.maximum(best[present], candidates)
        best[np.arange(rows.size), rows] = NOT_CONNECTED  # diagonal
        current = matrix[rows, :]
        improve = ((best != NOT_CONNECTED)
                   & ((current > best) | (current == NOT_CONNECTED)))
        count = int(improve.sum())
        if count:
            matrix[rows, :] = np.where(improve, best, current)
            changed += count

    return changed


def floyd_warshall_refine(delay_matrix: DelayMatrix) -> int:
    """O(n^3) refinement relaxing every pair through every intermediate node.

    For every intermediate ``w``, the delay of a path from ``u`` to ``v``
    through ``w`` is bounded by ``D[u][w] + D[w][v] - d(w)`` (``w``'s own
    delay would otherwise be counted twice).  Entries are lowered to that
    bound where it is smaller.  The matrix is modified in place.

    Returns:
        The total number of matrix entries that were lowered.
    """
    matrix = delay_matrix.matrix
    size = matrix.shape[0]
    changed = 0
    diagonal = matrix.diagonal().copy()
    for w in range(size):
        to_w = matrix[:, w]
        from_w = matrix[w, :]
        valid = (to_w[:, None] != NOT_CONNECTED) & (from_w[None, :] != NOT_CONNECTED)
        if not valid.any():
            continue
        candidates = to_w[:, None] + from_w[None, :] - diagonal[w]
        current = matrix
        improve = valid & (current > candidates) & (current != NOT_CONNECTED)
        np.fill_diagonal(improve, False)
        count = int(improve.sum())
        if count:
            matrix[improve] = candidates[improve]
            changed += count
    return changed
