"""The immutable levelized-CSR graph view shared by every timing consumer.

A :class:`GraphView` is a frozen, array-based snapshot of a directed acyclic
graph: node ids in the exact deterministic Kahn topological order the rest of
the repository has always used, predecessor/successor adjacency in CSR form,
ASAP levels (longest path in edges from any source), and a grouping of nodes
by level.  Every vectorized primitive in :mod:`repro.kernel.ops` operates on
these arrays, so the IR analyses, the SDC delay matrix, the ISDC
re-propagation, the extraction scans and the AIG depth metric all query one
substrate instead of re-deriving private dict/set traversals.  Gate-level
netlists need no view: their ids are already topological, so the netlist
STA is one in-order sweep over their lists (:mod:`repro.netlist.sta`).

The view is duck-typed: :meth:`GraphView.from_dataflow` and
:meth:`GraphView.from_aig` only touch the public container APIs, so this
module imports nothing from the higher layers.

Pipelined-loop back-edges (``DataflowGraph.back_edges()``) are *not* part of
the view: they live outside ``Node.operands``, so the forward graph stays a
DAG and Kahn levelization, the delay matrix and every reachability scan stay
valid unchanged.  Loop-carried timing is enforced separately, by II-scaled
difference constraints in the SDC layer (:mod:`repro.sdc.loops`).

Invalidation contract
---------------------

Views are cached on the container object, keyed by its
``structural_version`` counter.  The counter advances on *structural* edits
only -- adding or removing a node -- because those are the only edits
that change the arrays; attribute edits (renames, AIG output marking) leave the
cached view valid.  Containers without a ``structural_version`` attribute
are never cached.  ``copy()`` produces a fresh object, so copies never
share a cache entry with their source.  A stale cached view is discarded:
any structural edit means the next ``from_*`` call rebuilds from scratch.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Attribute under which the cached ``(version, view)`` pair is stored.
_CACHE_ATTR = "_repro_kernel_view"


class GraphView:
    """Immutable levelized-CSR snapshot of a DAG.

    Positions ("dense indices") are topological: dense index ``i`` is the
    ``i``-th node of the deterministic Kahn order, so ``index_of`` doubles as
    the row/column mapping of every all-pairs delay matrix built on top.

    Attributes:
        num_nodes: node count.
        order: dense index -> original node id (``np.ndarray`` of int64).
        index_of: original node id -> dense index (insertion-ordered dict,
            iteration yields ids in topological order).
        pred_indptr / pred_indices: CSR of predecessors in *original operand
            order*, duplicates preserved.
        succ_indptr / succ_indices: CSR of successors (users), duplicates
            preserved.
        levels: ASAP level per dense index (longest path in edges from any
            source node; sources are level 0).
        num_levels: ``levels.max() + 1`` (0 for the empty graph).
        level_order: dense indices sorted by (level, dense index).
        level_starts: boundaries into ``level_order``: level ``l`` occupies
            ``level_order[level_starts[l]:level_starts[l + 1]]``.
        source_mask: boolean per dense index, True for source nodes
            (PARAM/CONSTANT nodes, AIG non-AND nodes).
    """

    __slots__ = (
        "num_nodes", "order", "index_of", "pred_indptr", "pred_indices",
        "succ_indptr", "succ_indices", "levels", "num_levels", "level_order",
        "level_starts", "source_mask", "_order_list",
    )

    def __init__(self, ids: Sequence[int], operands: Mapping[int, Sequence[int]],
                 sources: Iterable[int], cycle_message: str) -> None:
        order = _kahn_order(ids, operands, cycle_message)
        self._order_list: list[int] = order
        self.num_nodes = len(order)
        self.order = np.asarray(order, dtype=np.int64)
        self.index_of: dict[int, int] = {nid: i for i, nid in enumerate(order)}
        index_of = self.index_of

        pred_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        pred_flat: list[int] = []
        for i, nid in enumerate(order):
            for operand in operands[nid]:
                pred_flat.append(index_of[operand])
            pred_indptr[i + 1] = len(pred_flat)
        self.pred_indptr = pred_indptr
        self.pred_indices = np.asarray(pred_flat, dtype=np.int64)

        # Successors are grouped by scanning ids in their container order so
        # succ segments mirror the container's user insertion order.
        succ_lists: dict[int, list[int]] = {nid: [] for nid in ids}
        for nid in ids:
            for operand in operands[nid]:
                succ_lists[operand].append(index_of[nid])
        succ_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        succ_flat: list[int] = []
        for i, nid in enumerate(order):
            succ_flat.extend(succ_lists[nid])
            succ_indptr[i + 1] = len(succ_flat)
        self.succ_indptr = succ_indptr
        self.succ_indices = np.asarray(succ_flat, dtype=np.int64)

        levels = [0] * self.num_nodes
        for i in range(self.num_nodes):
            worst = -1
            for position in range(pred_indptr[i], pred_indptr[i + 1]):
                pred_level = levels[pred_flat[position]]
                if pred_level > worst:
                    worst = pred_level
            levels[i] = worst + 1
        self.levels = np.asarray(levels, dtype=np.int64)
        self.num_levels = int(self.levels.max()) + 1 if self.num_nodes else 0
        self.level_order = np.argsort(self.levels, kind="stable").astype(np.int64)
        self.level_starts = np.searchsorted(
            self.levels[self.level_order], np.arange(self.num_levels + 1))

        source_mask = np.zeros(self.num_nodes, dtype=bool)
        for nid in sources:
            source_mask[index_of[nid]] = True
        self.source_mask = source_mask

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_dataflow(cls, graph) -> "GraphView":
        """Cached view of a :class:`~repro.ir.graph.DataflowGraph`."""
        cached = _cached_view(graph)
        if cached is not None:
            return cached
        nodes = graph.nodes()
        view = cls(
            ids=[node.node_id for node in nodes],
            operands={node.node_id: node.operands for node in nodes},
            sources=[node.node_id for node in nodes if node.is_source],
            cycle_message=f"graph {graph.name!r} contains a cycle",
        )
        _store_view(graph, view)
        return view

    @classmethod
    def from_aig(cls, aig) -> "GraphView":
        """Cached view of an :class:`~repro.aig.aig.Aig`.

        Edges run from fanin nodes to AND nodes, so :attr:`levels` is exactly
        the AND-level metric (non-AND nodes are level-0 sources).
        """
        cached = _cached_view(aig)
        if cached is not None:
            return cached
        from repro.aig.aig import literal_node

        nodes = aig.nodes()
        operands: dict[int, tuple[int, ...]] = {}
        sources: list[int] = []
        for node in nodes:
            if node.is_and:
                operands[node.node_id] = (literal_node(node.fanin0),
                                          literal_node(node.fanin1))
            else:
                operands[node.node_id] = ()
                sources.append(node.node_id)
        view = cls(
            ids=[node.node_id for node in nodes],
            operands=operands,
            sources=sources,
            cycle_message=f"aig {aig.name!r} contains a cycle",
        )
        _store_view(aig, view)
        return view

    # ----------------------------------------------------------------- access

    def order_ids(self) -> list[int]:
        """Node ids in topological order (a fresh list, safe to mutate)."""
        return list(self._order_list)

    def dense_of(self, node_ids: Iterable[int]) -> np.ndarray:
        """Dense indices of the given original ids."""
        index_of = self.index_of
        return np.asarray([index_of[nid] for nid in node_ids], dtype=np.int64)

    def ids_of(self, dense: Iterable[int]) -> list[int]:
        """Original ids of the given dense indices."""
        order = self._order_list
        return [order[int(i)] for i in dense]

    def delay_vector(self, delays) -> np.ndarray:
        """Per-node float delays in dense order.

        ``delays`` is either a mapping from original node id to delay or a
        callable taking a node id.
        """
        if callable(delays):
            return np.asarray([float(delays(nid)) for nid in self._order_list],
                              dtype=float)
        return np.asarray([float(delays[nid]) for nid in self._order_list],
                          dtype=float)

    def level_nodes(self, level: int) -> np.ndarray:
        """Dense indices of the nodes at ``level``, ascending."""
        return self.level_order[self.level_starts[level]:
                                self.level_starts[level + 1]]

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GraphView({self.num_nodes} nodes, {len(self.pred_indices)} "
                f"edges, {self.num_levels} levels)")


def _kahn_order(ids: Sequence[int], operands: Mapping[int, Sequence[int]],
                cycle_message: str) -> list[int]:
    """Deterministic Kahn topological order.

    Byte-for-byte the order the per-layer implementations produced: the
    initial ready set is sorted ascending, the queue is FIFO, and each popped
    node releases its distinct users in ascending-id order.

    Raises:
        ValueError: with ``cycle_message`` if the graph contains a cycle.
    """
    indegree: dict[int, int] = {nid: len(set(operands[nid])) for nid in ids}
    users: dict[int, list[int]] = {nid: [] for nid in ids}
    for nid in ids:
        for operand in operands[nid]:
            users[operand].append(nid)
    queue: deque[int] = deque(sorted(nid for nid, deg in indegree.items()
                                     if deg == 0))
    order: list[int] = []
    while queue:
        nid = queue.popleft()
        order.append(nid)
        for user in sorted(set(users[nid])):
            indegree[user] -= 1
            if indegree[user] == 0:
                queue.append(user)
    if len(order) != len(ids):
        raise ValueError(cycle_message)
    return order


def _cached_view(container) -> GraphView | None:
    """Return the cached view of ``container`` if still valid."""
    version = getattr(container, "structural_version", None)
    if version is None:
        return None
    cached = getattr(container, _CACHE_ATTR, None)
    if cached is not None and cached[0] == version:
        return cached[1]
    return None


def _store_view(container, view: GraphView) -> None:
    """Cache ``view`` on ``container`` keyed by its structural version."""
    version = getattr(container, "structural_version", None)
    if version is None:
        return
    try:
        setattr(container, _CACHE_ATTR, (version, view))
    except AttributeError:  # __slots__ containers opt out of caching
        pass
