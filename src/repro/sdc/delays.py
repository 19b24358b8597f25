"""Per-node delays and all-pairs combinational critical-path delays.

The SDC timing constraints (paper Eq. 2) need, for every connected node pair
``(u, v)``, the delay of the critical combinational path from ``u`` to ``v``
computed as the sum of individual operation delays along the worst path.
That is exactly the initialisation of the paper's delay matrix ``D[n][n]``
(Alg. 1, lines 1--9); ISDC later lowers entries of this matrix with measured
subgraph delays.

Both the matrix initialisation and the explicit path search delegate to the
shared vectorized kernel (:mod:`repro.kernel`): the matrix is filled level by
level with one gathered ``max``-reduction per level instead of a per-node
Python loop, and path reconstruction uses the kernel's deterministic
smallest-topological-position tie-break (equal-delay paths no longer depend
on set iteration order, i.e. on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

from typing import Mapping, Protocol

import numpy as np

from repro.ir.graph import DataflowGraph
from repro.ir.node import Node
from repro.kernel import (
    NOT_CONNECTED,
    GraphView,
    UNREACHED,
    critical_path_matrix as _kernel_critical_path_matrix,
    longest_path_from,
    path_delay as _kernel_path_delay,
    reconstruct_path,
)

__all__ = [
    "NOT_CONNECTED",
    "DelayModelProtocol",
    "node_delays",
    "critical_path_matrix",
    "path_delay",
    "critical_path_between",
]


class DelayModelProtocol(Protocol):
    """Anything that can report the isolated delay of an IR node."""

    def node_delay(self, node: Node) -> float:  # pragma: no cover - protocol
        ...


def node_delays(graph: DataflowGraph, model: DelayModelProtocol) -> dict[int, float]:
    """Isolated delay of every node in ``graph`` according to ``model``."""
    return {node.node_id: float(model.node_delay(node)) for node in graph.nodes()}


def critical_path_matrix(graph: DataflowGraph, delays: Mapping[int, float]
                         ) -> tuple[np.ndarray, dict[int, int]]:
    """All-pairs critical combinational path delays.

    Entry ``[i][j]`` holds the largest sum of node delays over any directed
    path from node ``i`` to node ``j`` (both endpoint delays included);
    the diagonal holds individual node delays; unconnected pairs hold
    :data:`NOT_CONNECTED`.

    One dense kernel sweep (:func:`repro.kernel.critical_path_matrix`);
    its memory is O(n^2).

    Args:
        graph: the dataflow graph.
        delays: isolated delay of every node id.

    Returns:
        ``(matrix, index_of)`` where ``index_of`` maps node id to row/column
        (the kernel's topological position).
    """
    view = GraphView.from_dataflow(graph)
    matrix = _kernel_critical_path_matrix(view, view.delay_vector(delays))
    return matrix, dict(view.index_of)


def path_delay(graph: DataflowGraph, delays: Mapping[int, float],
               path: list[int]) -> float:
    """Sum of node delays along an explicit path (validation helper).

    Thin wrapper over :func:`repro.kernel.path_delay`, the single shared
    implementation also backing the netlist-level helper
    (:meth:`repro.netlist.sta.StaticTimingAnalysis.path_delay`).
    """
    return _kernel_path_delay(delays, path)


def critical_path_between(graph: DataflowGraph, delays: Mapping[int, float],
                          source: int, sink: int) -> tuple[float, list[int]]:
    """Critical path delay and one realising path from ``source`` to ``sink``.

    Ties between equal-delay paths are broken deterministically toward the
    predecessor with the smallest topological position (the result of
    relaxing users in sorted order), so the reconstructed path is independent
    of ``PYTHONHASHSEED``.

    Returns ``(NOT_CONNECTED, [])`` if ``sink`` is unreachable.
    """
    view = GraphView.from_dataflow(graph)
    values, parents = longest_path_from(view, view.delay_vector(delays),
                                        view.index_of[source])
    sink_index = view.index_of[sink]
    if values[sink_index] == UNREACHED:
        return NOT_CONNECTED, []
    dense = reconstruct_path(parents, view.index_of[source], sink_index)
    return float(values[sink_index]), view.ids_of(dense)
