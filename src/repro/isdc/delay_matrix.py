"""The pairwise critical-path delay matrix D[n][n] and its feedback update.

This implements Algorithm 1 of the paper: the matrix is initialised with the
naive estimates (individual delays on the diagonal, summed critical-path
delays for connected pairs, ``-1`` for unconnected pairs), and every measured
subgraph lowers the entries of all node pairs the subgraph covers -- but only
when the measured delay is smaller than the current estimate, so each
evaluation is exploited maximally without ever making estimates worse.

Storage is a dense numpy array: the SDC solver slices whole rows/columns
and the Algorithm 2 re-propagation (:mod:`repro.isdc.reformulate`) sweeps
whole rows and columns of it.  The initialisation is one dense kernel
sweep (:func:`repro.kernel.critical_path_matrix`).
The matrix is the whole mutable state: the re-solve after each feedback
round re-derives every timing bound from it
(:meth:`~repro.sdc.problem.ScheduleProblem.retarget`), so writers need not
record which entries they lowered.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.ir.graph import DataflowGraph
from repro.kernel import GraphView, critical_path_matrix
from repro.sdc.delays import NOT_CONNECTED


class DelayMatrix:
    """Estimated critical-path delay for every node pair of a graph.

    The matrix itself stays a plain numpy array, but its row/column order,
    node indexing and the connectivity used by the re-propagation pass all
    come from the graph's shared kernel :class:`~repro.kernel.GraphView`
    (:attr:`view`), so every ISDC layer agrees on one substrate.

    Attributes:
        graph: the dataflow graph the matrix describes.
        matrix: the underlying ``(n, n)`` float array (``NOT_CONNECTED`` for
            unconnected pairs).
        index_of: node id -> row/column index.
    """

    def __init__(self, graph: DataflowGraph, matrix: np.ndarray,
                 index_of: dict[int, int]) -> None:
        self.graph = graph
        self.matrix = matrix
        self.index_of = index_of

    @property
    def view(self) -> GraphView:
        """The shared levelized-CSR view of :attr:`graph` (kernel cache)."""
        return GraphView.from_dataflow(self.graph)

    # ------------------------------------------------------------ construction

    @classmethod
    def from_graph(cls, graph: DataflowGraph, delays: Mapping[int, float]
                   ) -> "DelayMatrix":
        """Initialise from naive estimates (Alg. 1 lines 1--9)."""
        view = GraphView.from_dataflow(graph)
        matrix = critical_path_matrix(view, view.delay_vector(delays))
        return cls(graph, matrix, dict(view.index_of))

    def copy(self) -> "DelayMatrix":
        """Deep copy (the ISDC loop keeps the running matrix across iterations)."""
        return DelayMatrix(self.graph, self.matrix.copy(), dict(self.index_of))

    # ----------------------------------------------------------------- access

    def node_order(self) -> list[int]:
        """Node ids in matrix row/column order."""
        return sorted(self.index_of, key=self.index_of.get)

    def get(self, u: int, v: int) -> float:
        """Estimated critical-path delay from node ``u`` to node ``v``."""
        return float(self.matrix[self.index_of[u], self.index_of[v]])

    def is_connected(self, u: int, v: int) -> bool:
        """True if the matrix records a combinational path from ``u`` to ``v``."""
        return self.get(u, v) != NOT_CONNECTED

    def individual_delay(self, node_id: int) -> float:
        """Isolated delay of one node (the matrix diagonal)."""
        index = self.index_of[node_id]
        return float(self.matrix[index, index])

    # --------------------------------------------------------------- feedback

    def update_with_subgraph(self, node_ids: Iterable[int], delay_ps: float) -> int:
        """Fold one measured subgraph delay into the matrix (Alg. 1 lines 10--14).

        For every ordered pair ``(u, v)`` of nodes covered by the subgraph
        that is currently connected and whose estimate exceeds ``delay_ps``,
        the estimate is lowered to ``delay_ps``.

        Args:
            node_ids: IR nodes covered by the evaluated subgraph.
            delay_ps: the post-synthesis delay reported by the downstream flow.

        Returns:
            The number of matrix entries that were lowered.
        """
        indices = np.array(sorted({self.index_of[nid] for nid in node_ids
                                   if nid in self.index_of}), dtype=int)
        if indices.size == 0:
            return 0
        block = self.matrix[np.ix_(indices, indices)]
        improvable = (block != NOT_CONNECTED) & (block > delay_ps)
        count = int(improvable.sum())
        if count:
            block[improvable] = delay_ps
            self.matrix[np.ix_(indices, indices)] = block
        return count

    def update_with_feedback(self, feedback: Iterable[tuple[Iterable[int], float]]
                             ) -> int:
        """Apply :meth:`update_with_subgraph` for a batch of measurements."""
        total = 0
        for node_ids, delay_ps in feedback:
            total += self.update_with_subgraph(node_ids, delay_ps)
        return total

    # -------------------------------------------------------------- reporting

    def connected_pairs_over(self, threshold_ps: float) -> int:
        """Number of connected ordered pairs whose estimate exceeds ``threshold_ps``."""
        connected = self.matrix != NOT_CONNECTED
        return int(np.count_nonzero(connected & (self.matrix > threshold_ps)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DelayMatrix({self.graph.name!r}, {self.matrix.shape[0]} nodes)"
