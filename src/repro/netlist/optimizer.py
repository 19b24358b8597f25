"""Logic optimisation passes over gate-level netlists.

This is the reproduction's stand-in for the optimisation work done by Yosys /
ABC between HLS and STA.  It implements the classic local passes whose effect
the paper's feedback loop is designed to capture:

* constant folding and Boolean identity rewrites;
* structural hashing (common-subexpression elimination);
* double-inverter and trivial-mux removal;
* delay-aware rebalancing of AND/OR/XOR trees (Huffman-style merge of the
  earliest-arriving leaves first);
* dead-gate elimination (only the cone of the primary outputs is kept).

The pipeline is strash -> balance -> strash.  Each pass reads and writes a
plain gate list -- ``(kinds, inputs, names, outputs)``, gate ``i`` of kind
code ``kinds[i]`` (:data:`~repro.netlist.gates.KIND_CODES`) with operands
``inputs[i]`` -- the same aligned lists a
:class:`~repro.netlist.netlist.Netlist` holds, so the input netlist's lists
are the first pass's input and the last pass's output is wrapped, not
rebuilt.  The rewriter (``_Rewriter``) numbers gates in emission order, so
every operand precedes its user; its dead-gate elimination (``prune``) then
renumbers the kept gates in their deterministic Kahn order (ascending ready
set, FIFO queue, distinct users ascending; :func:`_kahn_order_numbered`).
A list numbered that way is its own Kahn order, so the next pass walks ids
``0..n-1`` and times them with one in-order
:func:`~repro.netlist.sta.arrival_sweep`; only the input netlist needs a
Kahn order computed.  The report's :class:`~repro.netlist.sta.TimingResult`
(which it carries so callers need not time the output again) is one
:meth:`~repro.netlist.sta.StaticTimingAnalysis.run` of the output netlist.
A netlist without outputs is never pruned: every gate keeps its emission
id, so its passes compute each Kahn order explicitly.

``tests/netlist/reference_optimizer.py`` keeps the historical
``Netlist``-based passes as the executable specification this must match
gate for gate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.netlist.gates import GateKind, GATE_FUNCTIONS
from repro.netlist.netlist import Netlist
from repro.netlist.sta import StaticTimingAnalysis, TimingResult, arrival_sweep
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library

#: A pass's gate list: ``(kinds, inputs, names, outputs)``.  Gate ``i`` has
#: kind code ``kinds[i]``, operands ``inputs[i]`` (all numbered below ``i``)
#: and debug name ``names[i]``; ``outputs`` are the output ports in order.
_GateList = tuple[list[int], list[tuple[int, ...]], list[str], list[int]]

_INPUT = GateKind.INPUT.code
_CONST0 = GateKind.CONST0.code
_CONST1 = GateKind.CONST1.code
_BUF = GateKind.BUF.code
_INV = GateKind.INV.code
_AND2 = GateKind.AND2.code
_OR2 = GateKind.OR2.code
_NAND2 = GateKind.NAND2.code
_NOR2 = GateKind.NOR2.code
_XOR2 = GateKind.XOR2.code
_XNOR2 = GateKind.XNOR2.code
_ANDN2 = GateKind.ANDN2.code
_MUX2 = GateKind.MUX2.code
_MAJ3 = GateKind.MAJ3.code

#: Per kind code (enum definition order): the member, its truth table and
#: its tie-cell value.
_KINDS = list(GateKind)
_FUNCTIONS = [GATE_FUNCTIONS.get(kind) for kind in _KINDS]
_CONSTANT_OF = [0 if code == _CONST0 else 1 if code == _CONST1 else None
                for code in range(len(_KINDS))]

_COMMUTATIVE_GATES = frozenset(
    (_AND2, _OR2, _NAND2, _NOR2, _XOR2, _XNOR2, _MAJ3))
_ASSOCIATIVE_GATES = frozenset((_AND2, _OR2, _XOR2))
_TWO_INPUT_GATES = frozenset((_AND2, _OR2, _XOR2, _XNOR2, _NAND2, _NOR2))


@dataclass(frozen=True)
class OptimizationReport:
    """Summary of one optimisation run.

    Attributes:
        gates_before: logic-gate count of the input netlist.
        gates_after: logic-gate count of the optimised netlist.
        timing: STA of the optimised netlist (default endpoints), so the
            caller need not time it again.
        passes: names of the passes that ran, in order.
    """

    gates_before: int
    gates_after: int
    timing: TimingResult
    passes: tuple[str, ...]

    @property
    def gate_reduction(self) -> float:
        """Fraction of logic gates removed (0.0 when nothing was removed)."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before


class _Rewriter:
    """Collects a rewritten gate list, applying local rewrites and hashing.

    Gates are numbered here, in emission order, so every operand precedes
    its user; :meth:`prune` turns the list into the pass's output.
    """

    __slots__ = ("kinds", "inputs", "names", "_memo", "_const")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.inputs: list[tuple[int, ...]] = []
        self.names: list[str] = []
        self._memo: dict[tuple, int] = {}
        self._const = [-1, -1]

    # ----------------------------------------------------------------- plumbing

    def _record(self, kind: int, inputs: tuple[int, ...], name: str = "") -> int:
        gate_id = len(self.kinds)
        self.kinds.append(kind)
        self.inputs.append(inputs)
        self.names.append(name)
        return gate_id

    def constant(self, value: int) -> int:
        value &= 1
        gate_id = self._const[value]
        if gate_id < 0:
            gate_id = self._record(_CONST1 if value else _CONST0, ())
            self._const[value] = gate_id
        return gate_id

    def add_input(self, name: str = "") -> int:
        return self._record(_INPUT, (), name)

    def prune(self, outputs: list[int]) -> _GateList:
        """The pass's gate list: the gates in the fan-in of some output.

        Surviving gates are renumbered in their deterministic Kahn order,
        which makes the identity the Kahn order of the result: the next
        pass walks ids ``0..n-1`` and needs no order of its own.  The kept
        set is closed under fan-in, so its Kahn order is the full list's
        order restricted to it.  Without outputs nothing is pruned and
        every gate keeps its id.
        """
        kinds, inputs, names = self.kinds, self.inputs, self.names
        if not outputs:
            return kinds, inputs, names, outputs
        keep = [False] * len(kinds)
        for output in outputs:
            keep[output] = True
        # Operands precede users, so one descending sweep marks the fan-in.
        for gate_id in range(len(kinds) - 1, -1, -1):
            if keep[gate_id]:
                for operand in inputs[gate_id]:
                    keep[operand] = True
            elif kinds[gate_id] == _INPUT:
                # Keep primary inputs even if dead so interfaces stay stable.
                keep[gate_id] = True
        order = _kahn_order_numbered(
            [gate_id for gate_id, kept in enumerate(keep) if kept], inputs)
        new_id = [0] * len(kinds)
        for position, gate_id in enumerate(order):
            new_id[gate_id] = position
        remap = new_id.__getitem__
        return ([kinds[gate_id] for gate_id in order],
                [tuple(map(remap, inputs[gate_id])) for gate_id in order],
                [names[gate_id] for gate_id in order],
                [new_id[output] for output in outputs])

    # ------------------------------------------------------------------- emit

    def emit(self, kind: int, inputs: tuple[int, ...], name: str = "") -> int:
        """Emit a gate, applying folding, identities and structural hashing."""
        if kind == _BUF:
            return inputs[0]

        kinds = self.kinds
        constants = [_CONSTANT_OF[kinds[i]] for i in inputs]
        if None not in constants:
            return self.constant(_FUNCTIONS[kind](tuple(constants)))

        simplified = self._simplify(kind, inputs, constants)
        if simplified is not None:
            return simplified

        if kind in _COMMUTATIVE_GATES:
            inputs = tuple(sorted(inputs))
        key = (kind, inputs)
        gate_id = self._memo.get(key)
        if gate_id is None:
            gate_id = self._memo[key] = self._record(kind, inputs, name)
        return gate_id

    def _simplify(self, kind: int, inputs: tuple[int, ...],
                  constants: list[int | None]) -> int | None:
        """Boolean identity rewrites; returns an existing gate id or None."""
        if kind == _INV:
            inner = inputs[0]
            if self.kinds[inner] == _INV:
                return self.inputs[inner][0]
            return None

        if kind in _TWO_INPUT_GATES:
            a, b = inputs
            ca, cb = constants
            if a == b:
                if kind == _AND2 or kind == _OR2:
                    return a
                if kind == _XOR2:
                    return self.constant(0)
                if kind == _XNOR2:
                    return self.constant(1)
                return self.emit(_INV, (a,))  # NAND2 / NOR2
            # Put the constant (if any) in position b.
            if ca is not None and cb is None:
                a, b, ca, cb = b, a, cb, ca
            if cb is not None:
                if kind == _AND2:
                    return a if cb == 1 else self.constant(0)
                if kind == _OR2:
                    return a if cb == 0 else self.constant(1)
                if kind == _XOR2:
                    return a if cb == 0 else self.emit(_INV, (a,))
                if kind == _XNOR2:
                    return a if cb == 1 else self.emit(_INV, (a,))
                if kind == _NAND2:
                    return self.emit(_INV, (a,)) if cb == 1 else self.constant(1)
                return self.emit(_INV, (a,)) if cb == 0 else self.constant(0)  # NOR2
            return None

        if kind == _ANDN2:
            a, b = inputs
            ca, cb = constants
            if a == b:
                return self.constant(0)
            if cb == 0:
                return a
            if cb == 1 or ca == 0:
                return self.constant(0)
            if ca == 1:
                return self.emit(_INV, (b,))
            return None

        if kind == _MUX2:
            select, on_true, on_false = inputs
            c_select = constants[0]
            if c_select is not None:
                return on_true if c_select == 1 else on_false
            if on_true == on_false:
                return on_true
            true_const = constants[1]
            false_const = constants[2]
            if true_const == 1 and false_const == 0:
                return select
            if true_const == 0 and false_const == 1:
                return self.emit(_INV, (select,))
            return None

        if kind == _MAJ3:
            a, b, c = inputs
            if a == b:
                return a
            if a == c:
                return a
            if b == c:
                return b
            const_positions = [i for i, value in enumerate(constants)
                               if value is not None]
            if const_positions:
                index = const_positions[0]
                others = tuple(inputs[i] for i in range(3) if i != index)
                if constants[index] == 1:
                    return self.emit(_OR2, others)
                return self.emit(_AND2, others)
            return None

        return None


def _kahn_order_numbered(ids: Sequence[int], inputs: Sequence[tuple[int, ...]]
                         ) -> list[int]:
    """:func:`~repro.kernel.view._kahn_order` of a gate list, without dicts.

    ``ids`` are ascending and closed under fan-in, and every operand in
    ``inputs`` is numbered below its user.  The rule is ``_kahn_order``'s:
    ascending ready set, FIFO queue, distinct users ascending.  Users are
    collected by scanning ``ids`` in ascending order, one entry per distinct
    operand, so each user list is already distinct and ascending.
    """
    indegree = [0] * len(inputs)
    users: list[list[int]] = [[] for _ in inputs]
    order: list[int] = []
    for gate_id in ids:
        operands = inputs[gate_id]
        if not operands:
            order.append(gate_id)
            continue
        if len(operands) > 1:
            operands = set(operands)
        indegree[gate_id] = len(operands)
        for operand in operands:
            users[operand].append(gate_id)
    # ``order`` doubles as the FIFO queue: the loop visits what it appends.
    for gate_id in order:
        for user in users[gate_id]:
            indegree[user] -= 1
            if not indegree[user]:
                order.append(user)
    return order


def _kahn_order_of(gates: _GateList) -> Sequence[int]:
    """The Kahn order of a gate list a pass emitted.

    Pruned lists are Kahn-numbered, so their order is the identity; only an
    output-less list (never pruned) needs its order computed.
    """
    kinds, inputs, _, outputs = gates
    if outputs:
        return range(len(kinds))
    return _kahn_order_numbered(range(len(kinds)), inputs)


class LogicOptimizer:
    """Runs the optimisation pipeline on a netlist.

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

    @staticmethod
    def _strash_pass(gates: _GateList, order: Sequence[int]) -> _GateList:
        """Constant folding + identity rewrites + structural hashing + DCE."""
        kinds, inputs, names, outputs = gates
        rewriter = _Rewriter()
        mapping = [0] * len(kinds)
        remap = mapping.__getitem__
        for gate_id in order:
            kind = kinds[gate_id]
            if kind == _INPUT:
                mapping[gate_id] = rewriter.add_input(names[gate_id])
            elif kind == _CONST0 or kind == _CONST1:
                mapping[gate_id] = rewriter.constant(1 if kind == _CONST1 else 0)
            else:
                mapping[gate_id] = rewriter.emit(
                    kind, tuple(map(remap, inputs[gate_id])), names[gate_id])
        return rewriter.prune([mapping[output] for output in outputs])

    def _balance_pass(self, gates: _GateList, order: Sequence[int]
                      ) -> _GateList:
        """Rebalance AND/OR/XOR trees using arrival times."""
        kinds, inputs, names, outputs = gates
        arrival = arrival_sweep(kinds, inputs, self._sta.code_delays)
        fanout_count = [0] * len(kinds)
        for operands in inputs:
            for operand in operands:
                fanout_count[operand] += 1

        rewriter = _Rewriter()
        mapping = [0] * len(kinds)
        remap = mapping.__getitem__

        def collect_leaves(root_id: int, kind: int) -> list[int]:
            """Leaves of the maximal single-fanout same-kind tree under root."""
            leaves: list[int] = []
            stack = list(inputs[root_id])
            while stack:
                current = stack.pop()
                if kinds[current] == kind and fanout_count[current] == 1:
                    stack.extend(inputs[current])
                else:
                    leaves.append(current)
            return leaves

        for gate_id in order:
            kind = kinds[gate_id]
            if kind == _INPUT:
                mapping[gate_id] = rewriter.add_input(names[gate_id])
                continue
            if kind == _CONST0 or kind == _CONST1:
                mapping[gate_id] = rewriter.constant(1 if kind == _CONST1 else 0)
                continue
            if kind in _ASSOCIATIVE_GATES:
                leaves = collect_leaves(gate_id, kind)
                if len(leaves) > 2:
                    mapping[gate_id] = self._build_balanced(
                        rewriter, kind, leaves, mapping, arrival)
                    continue
            mapping[gate_id] = rewriter.emit(
                kind, tuple(map(remap, inputs[gate_id])), names[gate_id])
        return rewriter.prune([mapping[output] for output in outputs])

    def _build_balanced(self, rewriter: _Rewriter, kind: int,
                        leaves: list[int], mapping: list[int],
                        arrival: list[float]) -> int:
        """Merge leaves pairwise, earliest arrival first (Huffman style)."""
        delay = self._sta.code_delays[kind]
        heap = [(arrival[leaf], index, mapping[leaf])
                for index, leaf in enumerate(leaves)]
        heapq.heapify(heap)
        counter = len(leaves)
        while len(heap) > 1:
            time_a, _, gate_a = heapq.heappop(heap)
            time_b, _, gate_b = heapq.heappop(heap)
            merged = rewriter.emit(kind, (gate_a, gate_b))
            heapq.heappush(heap, (max(time_a, time_b) + delay, counter, merged))
            counter += 1
        return heap[0][2]

    # -------------------------------------------------------------------- run

    def optimize(self, netlist: Netlist) -> tuple[Netlist, OptimizationReport]:
        """Run the full pipeline and return (optimised netlist, report)."""
        gates = self._strash_pass(
            (netlist.kinds, netlist.operands, netlist.names, netlist.outputs()),
            _kahn_order_numbered(range(len(netlist)), netlist.operands))
        passes = ["strash"]
        if self.balance:
            gates = self._balance_pass(gates, _kahn_order_of(gates))
            passes.append("balance")
            gates = self._strash_pass(gates, _kahn_order_of(gates))
            passes.append("strash")

        optimized = Netlist.from_lists(netlist.name, *gates)
        report = OptimizationReport(
            gates_before=netlist.num_logic_gates(),
            gates_after=optimized.num_logic_gates(),
            timing=self._sta.run(optimized),
            passes=tuple(passes),
        )
        return optimized, report
