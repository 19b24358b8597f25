"""Structurally hashed and-inverter graph."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

#: A literal is ``2 * node_id + complement``; node 0 is the constant TRUE node,
#: so literal 0 is constant-1 and literal 1 is constant-0.
Literal = int

TRUE_LITERAL: Literal = 0
FALSE_LITERAL: Literal = 1


def make_literal(node_id: int, complemented: bool = False) -> Literal:
    """Build a literal from a node id and a complement flag."""
    return 2 * node_id + (1 if complemented else 0)


def literal_node(literal: Literal) -> int:
    """Node id referenced by a literal."""
    return literal >> 1


def literal_complemented(literal: Literal) -> bool:
    """True if the literal is complemented."""
    return bool(literal & 1)


def literal_negate(literal: Literal) -> Literal:
    """Negate a literal."""
    return literal ^ 1


@dataclass(frozen=True)
class AigNode:
    """A node of the AIG.

    Node 0 is the constant node; primary inputs have ``fanin0 == fanin1 == None``;
    AND nodes carry two fanin literals.
    """

    node_id: int
    fanin0: Literal | None = None
    fanin1: Literal | None = None

    @property
    def is_constant(self) -> bool:
        return self.node_id == 0

    @property
    def is_input(self) -> bool:
        return not self.is_constant and self.fanin0 is None

    @property
    def is_and(self) -> bool:
        return self.fanin0 is not None


class Aig:
    """A combinational AIG with structural hashing on AND nodes.

    Attributes:
        name: graph name for reports.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._nodes: list[AigNode] = [AigNode(0)]
        self._strash: dict[tuple[Literal, Literal], int] = {}
        self._inputs: list[int] = []
        self._outputs: list[Literal] = []
        self._input_names: dict[int, str] = {}
        self._version = 0

    @property
    def structural_version(self) -> int:
        """Monotonic counter advanced whenever a node is created.

        Keys the kernel's cached :class:`~repro.kernel.GraphView` behind
        :meth:`levels`/:meth:`depth`; structurally hashed ``add_and`` hits
        reuse an existing node and leave the cached view valid.
        """
        return self._version

    # ------------------------------------------------------------------ build

    def add_input(self, name: str = "") -> Literal:
        """Add a primary input and return its (positive) literal."""
        node = AigNode(len(self._nodes))
        self._nodes.append(node)
        self._inputs.append(node.node_id)
        self._version += 1
        if name:
            self._input_names[node.node_id] = name
        return make_literal(node.node_id)

    def add_and(self, a: Literal, b: Literal) -> Literal:
        """Add (or reuse) an AND node over literals ``a`` and ``b``.

        Applies the standard trivial simplifications (constants, equal and
        complementary fanins) before structural hashing.
        """
        if a > b:
            a, b = b, a
        if a == FALSE_LITERAL or b == FALSE_LITERAL:
            return FALSE_LITERAL
        if a == TRUE_LITERAL:
            return b
        if b == TRUE_LITERAL:
            return a
        if a == b:
            return a
        if a == literal_negate(b):
            return FALSE_LITERAL
        key = (a, b)
        if key in self._strash:
            return make_literal(self._strash[key])
        node = AigNode(len(self._nodes), a, b)
        self._nodes.append(node)
        self._strash[key] = node.node_id
        self._version += 1
        return make_literal(node.node_id)

    def add_or(self, a: Literal, b: Literal) -> Literal:
        """OR via De Morgan."""
        return literal_negate(self.add_and(literal_negate(a), literal_negate(b)))

    def add_xor(self, a: Literal, b: Literal) -> Literal:
        """XOR as (a & ~b) | (~a & b)."""
        left = self.add_and(a, literal_negate(b))
        right = self.add_and(literal_negate(a), b)
        return self.add_or(left, right)

    def add_mux(self, select: Literal, on_true: Literal, on_false: Literal) -> Literal:
        """Multiplexer as (s & t) | (~s & f)."""
        taken = self.add_and(select, on_true)
        skipped = self.add_and(literal_negate(select), on_false)
        return self.add_or(taken, skipped)

    def add_maj(self, a: Literal, b: Literal, c: Literal) -> Literal:
        """Majority-of-three as (a&b) | (a&c) | (b&c)."""
        ab = self.add_and(a, b)
        ac = self.add_and(a, c)
        bc = self.add_and(b, c)
        return self.add_or(self.add_or(ab, ac), bc)

    def mark_output(self, literal: Literal) -> None:
        """Register a primary output literal."""
        self._outputs.append(literal)

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> AigNode:
        return self._nodes[node_id]

    def nodes(self) -> list[AigNode]:
        return list(self._nodes)

    def and_nodes(self) -> list[AigNode]:
        """All AND nodes."""
        return [n for n in self._nodes if n.is_and]

    def num_ands(self) -> int:
        """AND-node count (the usual AIG size metric)."""
        return sum(1 for n in self._nodes if n.is_and)

    def inputs(self) -> list[int]:
        return list(self._inputs)

    def outputs(self) -> list[Literal]:
        return list(self._outputs)

    def input_name(self, node_id: int) -> str:
        return self._input_names.get(node_id, f"i{node_id}")

    # -------------------------------------------------------------- evaluate

    def evaluate(self, input_values: dict[int, int]) -> dict[Literal, int]:
        """Evaluate all output literals for the given input-node values."""
        node_values: dict[int, int] = {0: 1}
        for node in self._nodes[1:]:
            if node.is_input:
                node_values[node.node_id] = input_values[node.node_id] & 1
            else:
                a = self._literal_value(node.fanin0, node_values)
                b = self._literal_value(node.fanin1, node_values)
                node_values[node.node_id] = a & b
        return {lit: self._literal_value(lit, node_values) for lit in self._outputs}

    @staticmethod
    def _literal_value(literal: Literal, node_values: dict[int, int]) -> int:
        value = node_values[literal_node(literal)]
        return 1 - value if literal_complemented(literal) else value

    def levels(self) -> dict[int, int]:
        """AND-level of every node (inputs and the constant are level 0).

        Backed by the kernel's cached :class:`~repro.kernel.GraphView`: the
        AIG's edges run from fanin nodes to AND nodes, so the view's ASAP
        levels are exactly the AND-level metric, computed once per
        structural version instead of on every call.
        """
        from repro.kernel import GraphView

        view = GraphView.from_aig(self)
        view_levels = view.levels
        index_of = view.index_of
        return {node.node_id: int(view_levels[index_of[node.node_id]])
                for node in self._nodes}

    def depth(self) -> int:
        """Depth of the AIG: the maximum AND-level over the outputs."""
        if not self._outputs:
            return 0
        level = self.levels()
        return max(level[literal_node(lit)] for lit in self._outputs)

    def cone_size(self, literals: Iterable[Literal]) -> int:
        """Number of AND nodes in the transitive fan-in of ``literals``."""
        seen: set[int] = set()
        stack = [literal_node(lit) for lit in literals]
        count = 0
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            node = self._nodes[node_id]
            if node.is_and:
                count += 1
                stack.append(literal_node(node.fanin0))
                stack.append(literal_node(node.fanin1))
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Aig({self.name!r}, {len(self._inputs)} inputs, "
                f"{self.num_ands()} ands, depth {self.depth()})")
