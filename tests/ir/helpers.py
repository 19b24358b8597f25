"""Shared helpers for IR tests."""

from __future__ import annotations

import networkx as nx

from repro.ir.graph import DataflowGraph


def to_networkx(graph: DataflowGraph) -> nx.DiGraph:
    """Export ``graph`` to a :class:`networkx.DiGraph`.

    Node attributes are ``kind``, ``width`` and ``name``; back-edges are
    edges with ``back=True`` and their ``distance``.
    """
    exported = nx.DiGraph(name=graph.name)
    for node in graph.nodes():
        exported.add_node(node.node_id, kind=node.kind, width=node.width,
                          name=node.name)
    for node in graph.nodes():
        for operand in node.operands:
            exported.add_edge(operand, node.node_id)
    for edge in graph.back_edges():
        exported.add_edge(edge.src, edge.phi, back=True,
                          distance=edge.distance)
    return exported
