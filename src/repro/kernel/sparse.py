"""Sparse all-pairs critical-path sweep over the levelized-CSR view.

The dense :func:`~repro.kernel.ops.critical_path_matrix` spends one whole
``n``-wide row operation per node and level -- ``O(n^2)`` work and memory no
matter how the graph is actually connected.  On wide, shallow, bounded-fanout
designs (the shapes that dominate past ~10k nodes) the number of *connected*
pairs is a tiny fraction of ``n^2``, so this module re-runs the same max-plus
recurrence over a compressed frontier instead: every node keeps only the
sparse row of its ancestors, each level merges the predecessor rows with one
``lexsort`` + segmented ``max`` over the level's gathered entries, and
unconnected pairs never materialise at all.

Exactness is inherited from the dense sweep: ``max`` over floats is
order-independent (ties included), and each node's own delay is added once
*after* the max -- the same two operations on the same floats, so
densifying a :class:`SparseMatrix` reproduces the dense kernel's output
bit-for-bit (``tests/kernel/test_sparse.py`` enforces this on the Table-I
suite, seeded ``gen:`` designs and hypothesis-random graphs).

The sweep is budgeted: past ``nnz_budget`` accumulated entries it returns
``None`` and the caller falls back to the dense kernel.
:func:`auto_critical_path_matrix` is that dispatch, driven by two module
constants: graphs below :data:`MIN_SPARSE_NODES` always take the dense
sweep, larger ones try the sparse sweep under a budget of
:data:`DENSITY_BUDGET` ``* n^2`` connected pairs.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.ops import NOT_CONNECTED, critical_path_matrix
from repro.kernel.view import GraphView

#: Graphs below this node count always use the dense sweep (the sparse
#: bookkeeping only pays off at scale).
MIN_SPARSE_NODES = 512

#: Connected-pair budget of the sparse attempt, as a fraction of ``n^2``;
#: past it the sweep gives up and the dense kernel takes over.
DENSITY_BUDGET = 0.25


class SparseMatrix:
    """CSR storage of the all-pairs critical-path delays, transposed.

    Row ``v`` (in dense-index space) holds one entry per *ancestor* ``u`` of
    ``v`` -- the critical-path delay ``D[u][v]`` -- plus the diagonal entry
    ``D[v][v]`` (the node's own delay).  Column indices within a row are
    strictly ascending; because ancestors always precede a node in
    topological order, the diagonal entry is always the last of its row.

    The transposed orientation mirrors how both sweeps build the matrix (one
    contiguous row per *target* node); :meth:`to_dense` returns the normal
    ``matrix[u][v]`` orientation consumers expect.

    Attributes:
        num_nodes: matrix dimension.
        indptr: row boundaries, shape ``(num_nodes + 1,)``.
        indices: ancestor dense indices, back to back.
        data: the delays, aligned with ``indices``.
    """

    __slots__ = ("num_nodes", "indptr", "indices", "data")

    def __init__(self, num_nodes: int, indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray) -> None:
        self.num_nodes = num_nodes
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @property
    def nnz(self) -> int:
        """Number of stored (connected) ordered pairs, diagonal included."""
        return int(self.indices.size)

    @property
    def density(self) -> float:
        """``nnz / n^2`` (1.0 for the empty matrix, which is trivially full)."""
        if self.num_nodes == 0:
            return 1.0
        return self.nnz / float(self.num_nodes * self.num_nodes)

    def row(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ancestor_indices, delays)`` of one transposed row (a view)."""
        start, end = self.indptr[target], self.indptr[target + 1]
        return self.indices[start:end], self.data[start:end]

    def to_dense(self) -> np.ndarray:
        """Densify into the consumer orientation, bit-identical to the dense
        kernel: ``matrix[u][v]`` is the critical delay from ``u`` to ``v``
        and unconnected pairs hold :data:`~repro.kernel.ops.NOT_CONNECTED`.
        """
        n = self.num_nodes
        transposed = np.full((n, n), NOT_CONNECTED, dtype=float)
        if self.indices.size:
            rows = np.repeat(np.arange(n, dtype=np.int64),
                             np.diff(self.indptr))
            transposed[rows, self.indices] = self.data
        return transposed.T

    def transpose_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays of the *matrix* orientation (row ``u`` -> descendants).

        Returns ``(indptr, indices, data)`` where row ``u`` lists every
        descendant ``v`` (ascending, diagonal first) with delay ``D[u][v]``.
        """
        n = self.num_nodes
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        order = np.lexsort((owner, self.indices))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=n), out=indptr[1:])
        return indptr, owner[order], self.data[order]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SparseMatrix({self.num_nodes} nodes, {self.nnz} entries, "
                f"density {self.density:.4f})")


def sparse_critical_path_matrix(view: GraphView, delays: np.ndarray, *,
                                nnz_budget: int | None = None
                                ) -> SparseMatrix | None:
    """Frontier-compressed all-pairs critical-path sweep (max-plus semiring).

    Level by level, every node's transposed row is the entry-wise max of its
    predecessors' rows plus the node's own delay, followed by the diagonal
    entry -- the same recurrence as the dense kernel, restricted to the
    entries that exist.  The per-level merge is batched: all predecessor
    rows of the level are gathered into one triple of ``(target, ancestor,
    value)`` arrays, grouped with a single ``lexsort`` and reduced with one
    segmented ``max``.

    Args:
        view: the levelized-CSR graph view.
        delays: per-node delays in dense order.
        nnz_budget: abort threshold on accumulated entries; ``None`` means
            unbudgeted.

    Returns:
        The sparse matrix, or ``None`` when the budget was exceeded (the
        caller should fall back to the dense kernel).
    """
    n = view.num_nodes
    empty_idx = np.empty(0, dtype=np.int64)
    empty_val = np.empty(0, dtype=float)
    row_idx: list[np.ndarray] = [empty_idx] * n
    row_val: list[np.ndarray] = [empty_val] * n
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n == 0:
        return SparseMatrix(0, indptr, empty_idx, empty_val)

    pred_indptr, pred_indices = view.pred_indptr, view.pred_indices
    total_nnz = 0
    for level in range(view.num_levels):
        nodes = view.level_nodes(level)
        starts = pred_indptr[nodes]
        counts = pred_indptr[nodes + 1] - starts
        if int(counts.max(initial=0)) == 0:
            # A whole level of sources: rows are pure diagonal entries.
            for v in nodes:
                row_idx[v] = np.asarray([v], dtype=np.int64)
                row_val[v] = np.asarray([delays[v]], dtype=float)
            total_nnz += int(nodes.size)
            if nnz_budget is not None and total_nnz > nnz_budget:
                return None
            continue

        # Gather every predecessor row of the level into one flat triple.
        parts_idx: list[np.ndarray] = []
        parts_val: list[np.ndarray] = []
        part_owner: list[int] = []
        part_len: list[int] = []
        for position, v in enumerate(nodes):
            for slot in range(starts[position],
                              starts[position] + counts[position]):
                p = pred_indices[slot]
                parts_idx.append(row_idx[p])
                parts_val.append(row_val[p])
                part_owner.append(v)
                part_len.append(row_idx[p].shape[0])
        all_cols = np.concatenate(parts_idx)
        all_vals = np.concatenate(parts_val)
        all_owner = np.repeat(np.asarray(part_owner, dtype=np.int64),
                              np.asarray(part_len, dtype=np.int64))

        # Group by (target, ancestor); max over duplicates is exact and
        # order-independent, so one segmented reduction replaces the dense
        # kernel's positional fold.
        grouping = np.lexsort((all_cols, all_owner))
        owner_sorted = all_owner[grouping]
        cols_sorted = all_cols[grouping]
        vals_sorted = all_vals[grouping]
        boundary = np.empty(owner_sorted.size, dtype=bool)
        boundary[0] = True
        np.logical_or(owner_sorted[1:] != owner_sorted[:-1],
                      cols_sorted[1:] != cols_sorted[:-1], out=boundary[1:])
        group_starts = np.nonzero(boundary)[0]
        group_owner = owner_sorted[group_starts]
        group_cols = cols_sorted[group_starts]
        group_vals = np.maximum.reduceat(vals_sorted, group_starts)
        # The node's own delay lands once, after the max -- identical to the
        # dense kernel's ``best += delays[rows]``.
        group_vals = group_vals + delays[group_owner]

        # Append the diagonal at the end of each owner segment (the target
        # is topologically after every ancestor, so rows stay sorted).
        owner_counts = np.bincount(
            np.searchsorted(nodes, group_owner), minlength=nodes.size)
        owner_ends = np.cumsum(owner_counts)
        level_cols = np.insert(group_cols, owner_ends, nodes)
        level_vals = np.insert(group_vals, owner_ends, delays[nodes])

        final_counts = owner_counts + 1
        final_ends = np.cumsum(final_counts)
        final_starts = final_ends - final_counts
        for position, v in enumerate(nodes):
            row_idx[v] = level_cols[final_starts[position]:
                                    final_ends[position]]
            row_val[v] = level_vals[final_starts[position]:
                                    final_ends[position]]
        total_nnz += int(level_cols.size)
        if nnz_budget is not None and total_nnz > nnz_budget:
            return None

    counts_all = np.asarray([row.shape[0] for row in row_idx],
                            dtype=np.int64)
    np.cumsum(counts_all, out=indptr[1:])
    return SparseMatrix(n, indptr, np.concatenate(row_idx),
                        np.concatenate(row_val))


def auto_critical_path_matrix(view: GraphView, delays: np.ndarray
                              ) -> np.ndarray:
    """All-pairs matrix via whichever sweep suits the graph.

    Graphs below :data:`MIN_SPARSE_NODES` go straight to the dense kernel;
    larger ones run the sparse sweep under a :data:`DENSITY_BUDGET` ``* n^2``
    budget and fall back to dense when the graph turns out too connected.
    Both paths yield bit-identical matrices.

    Returns:
        The dense consumer-oriented matrix.
    """
    n = view.num_nodes
    if n >= MIN_SPARSE_NODES:
        sparse = sparse_critical_path_matrix(
            view, delays, nnz_budget=int(DENSITY_BUDGET * n * n))
        if sparse is not None:
            return sparse.to_dense()
    return critical_path_matrix(view, delays)
