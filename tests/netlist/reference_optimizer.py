"""The logic optimiser as it was before its passes went list-based.

:class:`ReferenceOptimizer` keeps the historical strash -> balance ->
strash pipeline verbatim as an executable specification, the way
``tests/kernel/reference.py`` keeps the kernel's: every pass walks its
input in the historical Kahn order and reads fanout counts from
:func:`~tests.kernel.reference.reference_topological_order` and
:func:`~tests.kernel.reference.netlist_adjacency`, rewrites through
``_Rebuilder`` (``GateKind`` keys, dict-backed gate maps), prunes into a
fresh :class:`~repro.netlist.netlist.Netlist`, the balancing pass takes its
arrival times from a full
:meth:`~repro.netlist.sta.StaticTimingAnalysis.run` and the report times
the final netlist with another.  ``tests/netlist/test_optimizer_parity.py``
checks :class:`~repro.netlist.optimizer.LogicOptimizer` against it and
``benchmarks/test_speedup_gates.py`` times the two.
"""

from __future__ import annotations

import heapq

from repro.kernel.view import _kahn_order
from repro.netlist.gates import GateKind, GATE_FUNCTIONS
from repro.netlist.netlist import Netlist
from repro.netlist.optimizer import OptimizationReport
from repro.netlist.sta import StaticTimingAnalysis
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library

from tests.kernel.reference import (netlist_adjacency,
                                    reference_topological_order)

_COMMUTATIVE_GATES = {
    GateKind.AND2, GateKind.OR2, GateKind.NAND2, GateKind.NOR2,
    GateKind.XOR2, GateKind.XNOR2, GateKind.MAJ3,
}

_ASSOCIATIVE_GATES = {GateKind.AND2, GateKind.OR2, GateKind.XOR2}

_KINDS = list(GateKind)


def _kahn_order_and_fanout(netlist: Netlist) -> tuple[list[int], list[int]]:
    """The historical Kahn order of ``netlist`` and its fanout per gate."""
    ids, operands, users = netlist_adjacency(netlist)
    order = reference_topological_order(ids, operands, users)
    return order, [len(users[gid]) for gid in ids]


class _Rebuilder:
    """Collects a rewritten gate list, applying local rewrites and hashing.

    Gates are numbered here, in emission order, and kept as plain
    kind/inputs/name maps: the only :class:`Netlist` a pass produces is the
    pruned one :meth:`prune` builds from them.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.outputs: list[int] = []
        self._memo: dict[tuple, int] = {}
        self._const: dict[int, int] = {}
        self._kind_of: dict[int, GateKind] = {}
        self._inputs_of: dict[int, tuple[int, ...]] = {}
        self._name_of: dict[int, str] = {}

    # ----------------------------------------------------------------- plumbing

    def _record(self, kind: GateKind, inputs: tuple[int, ...],
                name: str = "") -> int:
        gate_id = len(self._kind_of)
        self._kind_of[gate_id] = kind
        self._inputs_of[gate_id] = inputs
        self._name_of[gate_id] = name
        return gate_id

    def constant(self, value: int) -> int:
        value &= 1
        if value not in self._const:
            kind = GateKind.CONST1 if value else GateKind.CONST0
            self._const[value] = self._record(kind, ())
        return self._const[value]

    def add_input(self, name: str = "") -> int:
        return self._record(GateKind.INPUT, (), name)

    def prune(self) -> Netlist:
        """The pass's netlist: the gates in the fan-in of some output.

        Surviving gates are renumbered in the deterministic Kahn order
        :class:`~repro.kernel.GraphView` uses.  The kept set is closed under
        fan-in, so its Kahn order is the full gate list's order restricted
        to it, and ids match a prune of a fully built netlist exactly.
        Without outputs nothing is pruned and every gate keeps its id.
        """
        operands = self._inputs_of
        pruned = Netlist(self.name)
        if not self.outputs:
            for gate_id, kind in self._kind_of.items():
                pruned.add_gate(kind, operands[gate_id], self._name_of[gate_id])
            return pruned
        keep: set[int] = set()
        stack = list(self.outputs)
        while stack:
            current = stack.pop()
            if current in keep:
                continue
            keep.add(current)
            stack.extend(operands[current])
        # Keep primary inputs even if dead so interfaces stay stable.
        keep.update(gate_id for gate_id, kind in self._kind_of.items()
                    if kind is GateKind.INPUT)

        mapping: dict[int, int] = {}
        order = _kahn_order(
            sorted(keep), operands,
            f"netlist {self.name!r} contains a combinational cycle")
        for gate_id in order:
            mapping[gate_id] = pruned.add_gate(
                self._kind_of[gate_id],
                tuple(mapping[i] for i in operands[gate_id]),
                self._name_of[gate_id])
        for output in self.outputs:
            pruned.mark_output(mapping[output])
        return pruned

    def constant_value(self, gate_id: int) -> int | None:
        kind = self._kind_of[gate_id]
        if kind is GateKind.CONST0:
            return 0
        if kind is GateKind.CONST1:
            return 1
        return None

    # ------------------------------------------------------------------- emit

    def emit(self, kind: GateKind, inputs: tuple[int, ...], name: str = "") -> int:
        """Emit a gate, applying folding, identities and structural hashing."""
        if kind is GateKind.BUF:
            return inputs[0]

        constants = [self.constant_value(i) for i in inputs]
        if inputs and all(c is not None for c in constants):
            return self.constant(GATE_FUNCTIONS[kind](tuple(constants)))

        simplified = self._simplify(kind, inputs, constants)
        if simplified is not None:
            return simplified

        if kind in _COMMUTATIVE_GATES:
            inputs = tuple(sorted(inputs))
        key = (kind, inputs)
        if key in self._memo:
            return self._memo[key]
        gate_id = self._record(kind, inputs, name)
        self._memo[key] = gate_id
        return gate_id

    def _simplify(self, kind: GateKind, inputs: tuple[int, ...],
                  constants: list[int | None]) -> int | None:
        """Boolean identity rewrites; returns an existing gate id or None."""
        if kind is GateKind.INV:
            inner = inputs[0]
            if self._kind_of[inner] is GateKind.INV:
                return self._inputs_of[inner][0]
            return None

        if kind in (GateKind.AND2, GateKind.OR2, GateKind.XOR2, GateKind.XNOR2,
                    GateKind.NAND2, GateKind.NOR2):
            a, b = inputs
            ca, cb = constants
            if a == b:
                if kind is GateKind.AND2 or kind is GateKind.OR2:
                    return a
                if kind is GateKind.XOR2:
                    return self.constant(0)
                if kind is GateKind.XNOR2:
                    return self.constant(1)
                if kind is GateKind.NAND2 or kind is GateKind.NOR2:
                    return self.emit(GateKind.INV, (a,))
            # Put the constant (if any) in position b.
            if ca is not None and cb is None:
                a, b, ca, cb = b, a, cb, ca
            if cb is not None:
                if kind is GateKind.AND2:
                    return a if cb == 1 else self.constant(0)
                if kind is GateKind.OR2:
                    return a if cb == 0 else self.constant(1)
                if kind is GateKind.XOR2:
                    return a if cb == 0 else self.emit(GateKind.INV, (a,))
                if kind is GateKind.XNOR2:
                    return a if cb == 1 else self.emit(GateKind.INV, (a,))
                if kind is GateKind.NAND2:
                    return self.emit(GateKind.INV, (a,)) if cb == 1 else self.constant(1)
                if kind is GateKind.NOR2:
                    return self.emit(GateKind.INV, (a,)) if cb == 0 else self.constant(0)
            return None

        if kind is GateKind.ANDN2:
            a, b = inputs
            ca, cb = constants
            if a == b:
                return self.constant(0)
            if cb == 0:
                return a
            if cb == 1 or ca == 0:
                return self.constant(0)
            if ca == 1:
                return self.emit(GateKind.INV, (b,))
            return None

        if kind is GateKind.MUX2:
            select, on_true, on_false = inputs
            c_select = constants[0]
            if c_select is not None:
                return on_true if c_select == 1 else on_false
            if on_true == on_false:
                return on_true
            true_const = self.constant_value(on_true)
            false_const = self.constant_value(on_false)
            if true_const == 1 and false_const == 0:
                return select
            if true_const == 0 and false_const == 1:
                return self.emit(GateKind.INV, (select,))
            return None

        if kind is GateKind.MAJ3:
            a, b, c = inputs
            if a == b:
                return a
            if a == c:
                return a
            if b == c:
                return b
            const_positions = [i for i, value in enumerate(constants) if value is not None]
            if const_positions:
                index = const_positions[0]
                others = tuple(inputs[i] for i in range(3) if i != index)
                if constants[index] == 1:
                    return self.emit(GateKind.OR2, others)
                return self.emit(GateKind.AND2, others)
            return None

        return None


def _copy_into(source: Netlist, builder: _Rebuilder) -> dict[int, int]:
    """Copy ``source`` into ``builder`` gate by gate, returning the id map."""
    mapping: dict[int, int] = {}
    order, _ = _kahn_order_and_fanout(source)
    for gate_id in order:
        kind = _KINDS[source.kinds[gate_id]]
        name = source.names[gate_id]
        if kind is GateKind.INPUT:
            mapping[gate_id] = builder.add_input(name)
        elif kind in (GateKind.CONST0, GateKind.CONST1):
            mapping[gate_id] = builder.constant(1 if kind is GateKind.CONST1 else 0)
        else:
            new_inputs = tuple(mapping[i] for i in source.operands[gate_id])
            mapping[gate_id] = builder.emit(kind, new_inputs, name)
    return mapping


class ReferenceOptimizer:
    """The three-pass pipeline over :class:`Netlist` objects (the spec).

    Args:
        library: technology library used for the delay-aware balancing pass
            and the report's timing of the optimised netlist.
        balance: whether to run the tree-balancing pass.
    """

    def __init__(self, library: TechLibrary | None = None, balance: bool = True) -> None:
        self.library = library or sky130_library()
        self.balance = balance
        self._sta = StaticTimingAnalysis(self.library)

    # ------------------------------------------------------------------ passes

    def _strash_pass(self, netlist: Netlist) -> Netlist:
        """Constant folding + identity rewrites + structural hashing + DCE."""
        builder = _Rebuilder(netlist.name)
        mapping = _copy_into(netlist, builder)
        builder.outputs = [mapping[output] for output in netlist.outputs()]
        return builder.prune()

    def _balance_pass(self, netlist: Netlist) -> Netlist:
        """Rebalance AND/OR/XOR trees using arrival times."""
        timing = self._sta.run(netlist, endpoints=list(range(len(netlist))))
        order, fanout_count = _kahn_order_and_fanout(netlist)
        kinds = [_KINDS[code] for code in netlist.kinds]

        builder = _Rebuilder(netlist.name)
        mapping: dict[int, int] = {}

        def collect_leaves(root_id: int, kind: GateKind) -> list[int]:
            """Leaves of the maximal single-fanout same-kind tree under root."""
            leaves: list[int] = []
            stack = list(netlist.operands[root_id])
            while stack:
                current = stack.pop()
                if kinds[current] is kind and fanout_count[current] == 1:
                    stack.extend(netlist.operands[current])
                else:
                    leaves.append(current)
            return leaves

        for gate_id in order:
            kind = kinds[gate_id]
            name = netlist.names[gate_id]
            if kind is GateKind.INPUT:
                mapping[gate_id] = builder.add_input(name)
                continue
            if kind in (GateKind.CONST0, GateKind.CONST1):
                mapping[gate_id] = builder.constant(
                    1 if kind is GateKind.CONST1 else 0)
                continue
            if kind in _ASSOCIATIVE_GATES:
                leaves = collect_leaves(gate_id, kind)
                if len(leaves) > 2:
                    mapping[gate_id] = self._build_balanced(
                        builder, kind, leaves, mapping, timing.arrival_times)
                    continue
            new_inputs = tuple(mapping[i] for i in netlist.operands[gate_id])
            mapping[gate_id] = builder.emit(kind, new_inputs, name)

        builder.outputs = [mapping[output] for output in netlist.outputs()]
        return builder.prune()

    def _build_balanced(self, builder: _Rebuilder, kind: GateKind,
                        leaves: list[int], mapping: dict[int, int],
                        arrival: dict[int, float]) -> int:
        """Merge leaves pairwise, earliest arrival first (Huffman style)."""
        delay = self._sta.gate_delay(kind)
        heap: list[tuple[float, int, int]] = []
        for index, leaf in enumerate(leaves):
            heapq.heappush(heap, (arrival.get(leaf, 0.0), index, mapping[leaf]))
        counter = len(leaves)
        while len(heap) > 1:
            time_a, _, gate_a = heapq.heappop(heap)
            time_b, _, gate_b = heapq.heappop(heap)
            merged = builder.emit(kind, (gate_a, gate_b))
            heapq.heappush(heap, (max(time_a, time_b) + delay, counter, merged))
            counter += 1
        return heap[0][2]

    # -------------------------------------------------------------------- run

    def optimize(self, netlist: Netlist) -> tuple[Netlist, OptimizationReport]:
        """Run the full pipeline and return (optimised netlist, report)."""
        passes: list[str] = []

        current = self._strash_pass(netlist)
        passes.append("strash")
        if self.balance:
            current = self._balance_pass(current)
            passes.append("balance")
            current = self._strash_pass(current)
            passes.append("strash")

        report = OptimizationReport(
            gates_before=netlist.num_logic_gates(),
            gates_after=current.num_logic_gates(),
            timing=self._sta.run(current),
            passes=tuple(passes),
        )
        return current, report
