"""Pure-Python reference implementations of the kernel primitives.

These are the historical per-layer algorithms, kept verbatim (modulo
deterministic iteration and container accessors) as an executable
specification: the parity tests in ``tests/kernel/`` run every kernel
primitive and the netlist STA against them across the Table-I suite and
seeded ``gen:`` designs, ``tests/netlist/`` checks the optimiser's Kahn
numbering against :func:`reference_topological_order`, and
``benchmarks/test_speedup_gates.py`` times the kernel against them.  They
are deliberately duck-typed (plain mappings instead of Schedule/DelayMatrix
objects).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Mapping

import numpy as np

from repro.kernel.ops import NOT_CONNECTED
from repro.netlist.gates import GateKind


def reference_topological_order(ids, operands: Mapping, users: Mapping) -> list[int]:
    """Kahn topological order with deterministic ascending-id tie-breaks."""
    indegree = {nid: len(set(operands[nid])) for nid in ids}
    queue: deque[int] = deque(sorted(nid for nid, deg in indegree.items()
                                     if deg == 0))
    order: list[int] = []
    seen_edges: dict[int, set[int]] = {nid: set() for nid in ids}
    while queue:
        nid = queue.popleft()
        order.append(nid)
        for user in sorted(set(users[nid])):
            if nid in seen_edges[user]:
                continue
            seen_edges[user].add(nid)
            indegree[user] -= 1
            if indegree[user] == 0:
                queue.append(user)
    if len(order) != len(list(ids)):
        raise ValueError("graph contains a cycle")
    return order


def graph_adjacency(graph) -> tuple[list[int], dict, dict]:
    """(ids, operands, users) of a DataflowGraph, in container order."""
    nodes = graph.nodes()
    ids = [node.node_id for node in nodes]
    operands = {node.node_id: node.operands for node in nodes}
    users = {nid: graph.users_of(nid) for nid in ids}
    return ids, operands, users


def netlist_adjacency(netlist) -> tuple[list[int], dict, dict]:
    """(ids, inputs, fanout) of a Netlist, in container order.

    Users are derived from the operand lists: each gate is listed once per
    operand pin it reads, in ascending gate order.
    """
    ids = list(range(len(netlist)))
    operands = dict(enumerate(netlist.operands))
    users: dict[int, list[int]] = {gid: [] for gid in ids}
    for gid, pins in operands.items():
        for operand in pins:
            users[operand].append(gid)
    return ids, operands, users


def reference_reachable_from(users: Mapping, node_id: int) -> set[int]:
    """Downstream reachability (inclusive) via an explicit stack."""
    seen = {node_id}
    stack = [node_id]
    while stack:
        current = stack.pop()
        for user in users[current]:
            if user not in seen:
                seen.add(user)
                stack.append(user)
    return seen


def reference_reaching_to(operands: Mapping, node_id: int) -> set[int]:
    """Upstream reachability (inclusive) via an explicit stack."""
    seen = {node_id}
    stack = [node_id]
    while stack:
        current = stack.pop()
        for operand in operands[current]:
            if operand not in seen:
                seen.add(operand)
                stack.append(operand)
    return seen


def reference_longest_path_lengths(order: list[int], operands: Mapping
                                   ) -> dict[int, int]:
    """Longest source-to-node path length (in edges) per node."""
    depth: dict[int, int] = {}
    for nid in order:
        if not operands[nid]:
            depth[nid] = 0
        else:
            depth[nid] = 1 + max(depth[o] for o in operands[nid])
    return depth


def reference_critical_path_matrix(order: list[int], operands: Mapping,
                                   delays: Mapping[int, float]
                                   ) -> tuple[np.ndarray, dict[int, int]]:
    """The historical per-node-column all-pairs delay matrix (Alg. 1)."""
    index_of = {node_id: index for index, node_id in enumerate(order)}
    size = len(order)
    matrix = np.full((size, size), NOT_CONNECTED, dtype=float)
    for node_id in order:
        column = index_of[node_id]
        delay = float(delays[node_id])
        operand_columns = sorted({index_of[o] for o in operands[node_id]})
        if operand_columns:
            incoming = matrix[:, operand_columns]
            connected = incoming != NOT_CONNECTED
            candidates = np.where(connected, incoming + delay, NOT_CONNECTED)
            matrix[:, column] = np.maximum(matrix[:, column],
                                           candidates.max(axis=1))
        matrix[column, column] = delay
    return matrix, index_of


def reference_critical_path_between(order: list[int], users: Mapping,
                                    delays: Mapping[int, float],
                                    source: int, sink: int
                                    ) -> tuple[float, list[int]]:
    """Sequential single-source critical path with sorted-user relaxation."""
    best: dict[int, float] = {source: float(delays[source])}
    parent: dict[int, int] = {}
    for node_id in order:
        if node_id not in best:
            continue
        for user in sorted(set(users[node_id])):
            candidate = best[node_id] + float(delays[user])
            if candidate > best.get(user, float("-inf")):
                best[user] = candidate
                parent[user] = node_id
    if sink not in best:
        return NOT_CONNECTED, []
    path = [sink]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return best[sink], path


def reference_sta(netlist, gate_delay: Callable, endpoints=None
                  ) -> tuple[float, tuple[int, ...], dict[int, float]]:
    """The historical per-gate arrival-time STA loop.

    Returns:
        ``(critical_path_delay_ps, critical_path, arrival_times)``.
    """
    ids, operands, users = netlist_adjacency(netlist)
    kinds = list(GateKind)
    arrival: dict[int, float] = {}
    predecessor: dict[int, int | None] = {}
    for gate_id in reference_topological_order(ids, operands, users):
        kind = kinds[netlist.kinds[gate_id]]
        inputs = operands[gate_id]
        delay = gate_delay(kind)
        if not inputs:
            arrival[gate_id] = delay if not kind.is_source else 0.0
            predecessor[gate_id] = None
            continue
        worst_input = max(inputs, key=lambda i: arrival[i])
        arrival[gate_id] = arrival[worst_input] + delay
        predecessor[gate_id] = worst_input
    if endpoints is None:
        endpoints = netlist.outputs() or list(arrival)
    if not endpoints:
        return 0.0, (), arrival
    worst = max(endpoints, key=lambda e: arrival[e])
    path: list[int] = []
    cursor: int | None = worst
    while cursor is not None:
        path.append(cursor)
        cursor = predecessor[cursor]
    path.reverse()
    return arrival[worst], tuple(path), arrival


def reference_in_stage_ancestors(operands: Mapping, is_source: Mapping,
                                 stages: Mapping[int, int], root: int
                                 ) -> set[int]:
    """Same-stage non-source ancestor cone of ``root`` (root included)."""
    stage = stages[root]
    cone: set[int] = {root}
    stack = [root]
    while stack:
        current = stack.pop()
        for operand in operands[current]:
            if operand in cone:
                continue
            if is_source[operand] or stages[operand] != stage:
                continue
            cone.add(operand)
            stack.append(operand)
    return cone


def reference_subgraph_longest_path(order: list[int], operands: Mapping,
                                    members: set[int],
                                    node_delay: Callable[[int], float]
                                    ) -> dict[int, float]:
    """Longest path through the induced subgraph, floored at zero."""
    best: dict[int, float] = {}
    for nid in order:
        if nid not in members:
            continue
        upstream = max((best[op] for op in operands[nid] if op in best),
                       default=0.0)
        best[nid] = upstream + node_delay(nid)
    return best
