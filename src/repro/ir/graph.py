"""The dataflow graph (DFG) container.

A :class:`DataflowGraph` is a DAG of :class:`~repro.ir.node.Node` objects.
Edges run from operand producers to consumers.  The container maintains both
forward (users) and backward (operands) adjacency so that the scheduler and
the subgraph extractor can walk in either direction cheaply.

Pipelined loops add *back-edges*: a ``PHI`` node's forward operand is its
initial value, and one registered :class:`BackEdge` names the node whose
result the phi carries into later loop iterations, ``distance`` iterations
downstream.  Back-edges live outside the operand lists on purpose -- the
forward graph stays a DAG, so every levelization, topological order, delay
matrix and analysis keeps working unchanged; only the II-aware scheduler
and the loop interpreter consult them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.ir.node import Node
from repro.ir.ops import OpKind, infer_result_width


@dataclass(frozen=True)
class BackEdge:
    """One loop-carried dependency: ``src``'s value feeds ``phi`` next time.

    Attributes:
        phi: node id of the receiving ``PHI`` node.
        src: node id whose result is carried around the loop.
        distance: iteration distance (>= 1); the value produced by iteration
            ``i`` is consumed by the phi of iteration ``i + distance``.
    """

    phi: int
    src: int
    distance: int


class DataflowGraph:
    """A directed acyclic graph of word-level operations.

    Nodes are created through :meth:`add_node` (or the higher-level
    :class:`~repro.ir.builder.GraphBuilder`) and are immutable once added,
    except for their ``attrs`` dictionary.

    Attributes:
        name: design name, used in reports and benchmark tables.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._users: dict[int, list[int]] = {}
        self._back_edges: dict[int, BackEdge] = {}
        self._next_id = 0
        self._version = 0

    @property
    def structural_version(self) -> int:
        """Monotonic counter advanced on every structural edit.

        The kernel caches its levelized-CSR :class:`~repro.kernel.GraphView`
        on the graph keyed by this counter; node additions and removals
        invalidate the cached view (the next query rebuilds it), attribute
        edits (renames) do not.
        """
        return self._version

    # ------------------------------------------------------------------ build

    def add_node(self, kind: OpKind, operands: Iterable[int] = (),
                 width: int | None = None, name: str = "",
                 **attrs: Any) -> Node:
        """Create a node and add it to the graph.

        Args:
            kind: opcode of the new node.
            operands: ids of already-present operand nodes.
            width: explicit result width; inferred from the operands when
                omitted (required for ``PARAM``/``CONSTANT``/width-changing ops).
            name: optional readable name.
            **attrs: opcode-specific attributes (e.g. ``value`` for constants).

        Returns:
            The created :class:`Node`.

        Raises:
            KeyError: if an operand id does not exist in the graph.
            ValueError: on operand-count or width violations.
        """
        operand_ids = tuple(operands)
        for operand in operand_ids:
            if operand not in self._nodes:
                raise KeyError(f"operand node {operand} not in graph {self.name!r}")
        if width is not None:
            attrs = dict(attrs)
            attrs.setdefault("width", width)
        operand_widths = [self._nodes[o].width for o in operand_ids]
        resolved_width = width if width is not None else infer_result_width(
            kind, operand_widths, attrs)
        # Explicit widths still go through inference for ops that demand a
        # 'width' attribute, so validate operand counts either way.
        infer_result_width(kind, operand_widths, {**attrs, "width": resolved_width})

        node = Node(self._next_id, kind, operand_ids, resolved_width, name, dict(attrs))
        self._nodes[node.node_id] = node
        self._users[node.node_id] = []
        for operand in operand_ids:
            self._users[operand].append(node.node_id)
        self._next_id += 1
        self._version += 1
        return node

    def add_back_edge(self, phi_id: int, src_id: int, distance: int) -> BackEdge:
        """Register the loop-carried back-edge of a ``PHI`` node.

        Args:
            phi_id: id of the receiving ``PHI`` node.
            src_id: id of the node whose value is carried around the loop.
            distance: iteration distance (at least 1).

        Returns:
            The registered :class:`BackEdge`.

        Raises:
            KeyError: if either node id is not in the graph.
            ValueError: if ``phi_id`` is not a ``PHI`` node, already has a
                back-edge, or ``distance`` is not positive.
        """
        for node_id in (phi_id, src_id):
            if node_id not in self._nodes:
                raise KeyError(f"node {node_id} not in graph {self.name!r}")
        phi = self._nodes[phi_id]
        if phi.kind is not OpKind.PHI:
            raise ValueError(
                f"back-edge target node {phi_id} is {phi.kind.value!r}, "
                f"not a phi, in graph {self.name!r}")
        if phi_id in self._back_edges:
            raise ValueError(
                f"phi node {phi_id} already has a back-edge in graph "
                f"{self.name!r}")
        if int(distance) < 1:
            raise ValueError(
                f"back-edge distance must be >= 1, got {distance}")
        edge = BackEdge(phi=phi_id, src=src_id, distance=int(distance))
        self._back_edges[phi_id] = edge
        return edge

    def back_edges(self) -> list[BackEdge]:
        """All loop back-edges, ordered by phi node id."""
        return [self._back_edges[phi] for phi in sorted(self._back_edges)]

    def back_edge_of(self, phi_id: int) -> BackEdge | None:
        """The back-edge of ``phi_id``, if one is registered."""
        return self._back_edges.get(phi_id)

    @property
    def has_back_edges(self) -> bool:
        """True when the graph models a pipelined loop."""
        return bool(self._back_edges)

    def remove_node(self, node_id: int) -> None:
        """Remove a sink node (one with no users) from the graph.

        Restricting removal to user-free nodes keeps every remaining node's
        operand list valid; remove consumers first to take out a whole cone.

        Raises:
            KeyError: if ``node_id`` is not in the graph.
            ValueError: if the node still has users, or is the source of a
                loop back-edge.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise KeyError(f"node {node_id} not in graph {self.name!r}")
        if self._users[node_id]:
            raise ValueError(
                f"node {node_id} still has users {self._users[node_id]} in "
                f"graph {self.name!r}; remove them first")
        loop_users = [e.phi for e in self._back_edges.values()
                      if e.src == node_id and e.phi != node_id]
        if loop_users:
            raise ValueError(
                f"node {node_id} still feeds loop back-edges into phis "
                f"{loop_users} in graph {self.name!r}; remove them first")
        self._back_edges.pop(node_id, None)
        del self._nodes[node_id]
        del self._users[node_id]
        for operand in set(node.operands):
            self._users[operand] = [u for u in self._users[operand]
                                    if u != node_id]
        self._version += 1

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node(self, node_id: int) -> Node:
        """Return the node with id ``node_id``."""
        return self._nodes[node_id]

    def nodes(self) -> list[Node]:
        """All nodes in insertion (id) order."""
        return [self._nodes[i] for i in sorted(self._nodes)]

    def node_ids(self) -> list[int]:
        """All node ids in ascending order."""
        return sorted(self._nodes)

    def operands_of(self, node_id: int) -> tuple[int, ...]:
        """Ids of the operand nodes of ``node_id`` (with duplicates)."""
        return self._nodes[node_id].operands

    def users_of(self, node_id: int) -> list[int]:
        """Ids of the nodes consuming the result of ``node_id``."""
        return list(self._users[node_id])

    def num_users(self, node_id: int) -> int:
        """Number of *distinct* consumer nodes of ``node_id``'s result.

        This is the ``num_users`` term of the paper's Eq. 3 (the HLS-IR level
        fanout of the register holding the value).
        """
        return len(set(self._users[node_id]))

    def parameters(self) -> list[Node]:
        """All primary-input (``PARAM``) nodes."""
        return [n for n in self.nodes() if n.kind is OpKind.PARAM]

    def outputs(self) -> list[Node]:
        """Primary outputs: explicit ``OUTPUT`` nodes, else sink nodes."""
        explicit = [n for n in self.nodes() if n.kind is OpKind.OUTPUT]
        if explicit:
            return explicit
        return [n for n in self.nodes()
                if not self._users[n.node_id] and not n.is_source]

    def source_ids(self) -> set[int]:
        """Ids of all source (PARAM / CONSTANT) nodes."""
        return {n.node_id for n in self.nodes() if n.is_source}

    # ------------------------------------------------------------------ edits

    def set_name(self, node_id: int, name: str) -> None:
        """Rename a node (affects reports only)."""
        self._nodes[node_id].name = name

    def copy(self, name: str | None = None) -> "DataflowGraph":
        """Deep-copy the graph (nodes keep their ids)."""
        clone = DataflowGraph(name or self.name)
        clone._next_id = self._next_id
        for node_id, node in self._nodes.items():
            clone._nodes[node_id] = Node(node.node_id, node.kind, node.operands,
                                         node.width, node.name, dict(node.attrs))
        clone._users = {k: list(v) for k, v in self._users.items()}
        clone._back_edges = dict(self._back_edges)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataflowGraph({self.name!r}, {len(self)} nodes)"
