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
rebuilt.

* **strash** walks its input in Kahn order and re-emits every gate through
  the rewriter (``_Rewriter``): constant folding, identity rewrites and
  structural hashing.  **balance** is the same walk over the strash output,
  except that an AND/OR/XOR gate heading a single-fanout same-kind tree of
  more than two leaves is rebuilt from the leaves, earliest arrival first.
  Both are :meth:`LogicOptimizer._rewrite_pass`.
* The rewriter numbers gates in emission order, so every operand precedes
  its user; its dead-gate elimination (``prune``) then renumbers the kept
  gates in their deterministic Kahn order (ascending ready set, FIFO queue,
  distinct users ascending; :func:`_kahn_order_numbered`).  A list numbered
  that way is its own Kahn order, so the next pass walks ids ``0..n-1`` and
  times them with one in-order :func:`~repro.netlist.sta.arrival_sweep`;
  only the input netlist needs a Kahn order computed.  A netlist without
  outputs is never pruned: every gate keeps its emission id, so its passes
  compute each Kahn order explicitly.
* The last **strash** is computed in closed form (:func:`_strash_emitted`):
  renumber the balance output in its Kahn order (the identity for a pruned
  list) and sort each commutative gate's operands.  This is exact because
  balance emits every gate through the rewriter, so its list is already
  folded and hashed: whether a rule or a hash hit fires depends only on
  kinds, on which operands are equal or constant and on ``INV`` under
  ``INV``, all of which a one-to-one renumbering keeps.  A full pass would
  therefore emit each gate once, in its Kahn order, prune nothing (every
  gate already reaches an output or is a primary input), and change only
  the order of commutative operands, which its hash keys sort.

The passes' hot loops handle the common cases themselves, each gate costing
a few list reads and one dict probe: a two-input gate with distinct,
non-constant operands; ``INV`` of a non-constant (collapsing
``INV(INV x)``); ``MAJ3`` of three distinct non-constants; ``MUX2`` of
three non-constants with distinct data inputs; and, in balance, each merge
of a rebuilt tree.  No rule of ``_Rewriter._simplify`` applies to
those, so they go straight to the structural hash; everything else falls
back to :meth:`_Rewriter.emit`.  Hash keys are ints packing the operand ids
and the kind code (:func:`_hash_key`), so a probe allocates no tuple.

The report's :class:`~repro.netlist.sta.TimingResult` (which it carries so
callers need not time the output again) is one
:meth:`~repro.netlist.sta.StaticTimingAnalysis.run` of the output netlist.

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

_COMMUTATIVE_GATES = frozenset(
    (_AND2, _OR2, _NAND2, _NOR2, _XOR2, _XNOR2, _MAJ3))
_ASSOCIATIVE_GATES = frozenset((_AND2, _OR2, _XOR2))
_TWO_INPUT_GATES = frozenset((_AND2, _OR2, _XOR2, _XNOR2, _NAND2, _NOR2))

#: Per kind code (enum definition order): the member, its truth table, its
#: tie-cell value, whether it is a tie cell and whether it is commutative.
_KINDS = list(GateKind)
_FUNCTIONS = [GATE_FUNCTIONS.get(kind) for kind in _KINDS]
_CONSTANT_OF = [0 if code == _CONST0 else 1 if code == _CONST1 else None
                for code in range(len(_KINDS))]
_IS_CONSTANT = tuple(value is not None for value in _CONSTANT_OF)
_IS_COMMUTATIVE = tuple(code in _COMMUTATIVE_GATES
                        for code in range(len(_KINDS)))

#: Packed keys hold each operand id in 32 bits and the kind code in the low
#: 4.  Every kind has a fixed arity, so keys are one-to-one while ids stay
#: below 2**32.
_ID_MASK = (1 << 32) - 1


def _hash_key(kind: int, inputs: tuple[int, ...]) -> int:
    """The structural-hash key of a gate: operands packed, then the kind.

    The passes' inline fast paths spell the same key out per arity
    (``a << 4 | kind``, ``a << 36 | b << 4 | kind``,
    ``a << 68 | b << 36 | c << 4 | kind``).
    """
    key = 0
    for operand in inputs:
        key = key << 32 | operand
    return key << 4 | kind


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
    its user; :meth:`prune` turns the list into the pass's output.  The
    passes' fast paths append to ``kinds``/``inputs``/``names`` and probe
    ``memo`` directly, with the keys :meth:`emit` uses.
    """

    __slots__ = ("kinds", "inputs", "names", "memo", "_const")

    def __init__(self) -> None:
        self.kinds: list[int] = []
        self.inputs: list[tuple[int, ...]] = []
        self.names: list[str] = []
        #: Structural hash: :func:`_hash_key` -> gate id.
        self.memo: dict[int, int] = {}
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
        kinds, inputs, names, new_id = _renumber(kinds, inputs, names, order)
        return kinds, inputs, names, [new_id[output] for output in outputs]

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
        key = _hash_key(kind, inputs)
        gate_id = self.memo.get(key)
        if gate_id is None:
            gate_id = self.memo[key] = self._record(kind, inputs, name)
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
    ascending ready set, FIFO queue, distinct users ascending.  So the
    queue starts with the input-less gates in ascending order, and every
    other gate joins it when its last operand leaves it, behind that
    operand's lower-numbered users: gates follow in ascending (position of
    the latest operand, id).  A gate's latest operand is one level below it
    (level: the longest path from an input-less gate), so the queue holds
    whole levels in turn, and the order is each level in turn, sorted by
    that pair packed into one int.  Nothing is allocated per gate but the
    key.
    """
    # ``place`` holds each gate's level until its level is placed, then its
    # position: a level's keys read only positions of lower levels.
    place = [0] * len(inputs)
    levels: list[list[int]] = [[]]
    for gate_id in ids:
        operands = inputs[gate_id]
        if not operands:
            levels[0].append(gate_id)
            continue
        level = 0
        for operand in operands:
            if place[operand] > level:
                level = place[operand]
        level += 1
        place[gate_id] = level
        if level == len(levels):
            levels.append([gate_id])
        else:
            levels[level].append(gate_id)
    order = levels[0]
    for position, gate_id in enumerate(order):
        place[gate_id] = position
    for level_ids in levels[1:]:
        keys = []
        for gate_id in level_ids:
            latest = 0
            for operand in inputs[gate_id]:
                if place[operand] > latest:
                    latest = place[operand]
            keys.append(latest << 32 | gate_id)
        keys.sort()
        position = len(order)
        for key in keys:
            gate_id = key & _ID_MASK
            place[gate_id] = position
            position += 1
            order.append(gate_id)
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


def _renumber(kinds: list[int], inputs: list[tuple[int, ...]],
              names: list[str], order: Sequence[int]
              ) -> tuple[list[int], list[tuple[int, ...]], list[str], list[int]]:
    """The gates of ``order`` numbered by their position in it.

    Returns the renumbered kinds, inputs and names and the new id per old
    id (meaningful for the gates in ``order`` only).
    """
    new_id = [0] * len(kinds)
    for position, gate_id in enumerate(order):
        new_id[gate_id] = position
    remap = new_id.__getitem__
    return ([kinds[gate_id] for gate_id in order],
            [tuple(map(remap, inputs[gate_id])) for gate_id in order],
            [names[gate_id] for gate_id in order],
            new_id)


def _strash_emitted(gates: _GateList) -> _GateList:
    """A strash pass over a list the rewriter emitted, in closed form.

    The list is renumbered in its Kahn order (the identity for a pruned
    list) and each commutative gate's operands are sorted; the module
    docstring says why nothing else can change.
    """
    kinds, inputs, names, outputs = gates
    if not outputs:
        kinds, inputs, names, _ = _renumber(
            kinds, inputs, names,
            _kahn_order_numbered(range(len(kinds)), inputs))
    is_commutative = _IS_COMMUTATIVE
    sorted_inputs = []
    for kind, operands in zip(kinds, inputs):
        if is_commutative[kind]:
            if len(operands) == 2:
                if operands[0] > operands[1]:
                    operands = (operands[1], operands[0])
            else:
                operands = tuple(sorted(operands))
        sorted_inputs.append(operands)
    return kinds, sorted_inputs, names, outputs


def _tree_leaves(root_id: int, kind: int, kinds: list[int],
                 inputs: list[tuple[int, ...]], fanout: list[int]
                 ) -> list[int]:
    """Leaves of the maximal single-fanout same-kind tree under ``root_id``."""
    leaves: list[int] = []
    stack = list(inputs[root_id])
    while stack:
        current = stack.pop()
        if kinds[current] == kind and fanout[current] == 1:
            stack.extend(inputs[current])
        else:
            leaves.append(current)
    return leaves


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

    def _rewrite_pass(self, gates: _GateList, order: Sequence[int],
                      balance: bool) -> _GateList:
        """One strash pass (constant folding, identity rewrites, structural
        hashing, dead-gate elimination) or, with ``balance``, one balance
        pass (the same, plus AND/OR/XOR trees rebuilt by arrival time)."""
        kinds, inputs, names, outputs = gates
        rewriter = _Rewriter()
        new_kinds, new_inputs, new_names = (rewriter.kinds, rewriter.inputs,
                                            rewriter.names)
        memo = rewriter.memo
        emit = rewriter.emit
        is_constant = _IS_CONSTANT
        if balance:
            arrival = arrival_sweep(kinds, inputs, self._sta.code_delays)
            fanout = [0] * len(kinds)
            for operands in inputs:
                for operand in operands:
                    fanout[operand] += 1
        mapping = [0] * len(kinds)
        for gate_id in order:
            kind = kinds[gate_id]
            operands = inputs[gate_id]
            count = len(operands)
            # Each fast path leaves ``key`` and the rewritten ``operands``
            # for the structural hash below, or ``continue``s.
            if count == 2:
                x, y = operands
                if balance and kind in _ASSOCIATIVE_GATES and (
                        (kinds[x] == kind and fanout[x] == 1)
                        or (kinds[y] == kind and fanout[y] == 1)):
                    # An operand extends the tree, so it has > 2 leaves.
                    mapping[gate_id] = self._build_balanced(
                        rewriter, kind,
                        _tree_leaves(gate_id, kind, kinds, inputs, fanout),
                        mapping, arrival)
                    continue
                a = mapping[x]
                b = mapping[y]
                if (a == b or is_constant[new_kinds[a]]
                        or is_constant[new_kinds[b]]):
                    mapping[gate_id] = emit(kind, (a, b), names[gate_id])
                    continue
                if a > b and kind != _ANDN2:
                    a, b = b, a
                key = a << 36 | b << 4 | kind
                operands = (a, b)
            elif count == 1:
                a = mapping[operands[0]]
                if kind == _BUF:
                    mapping[gate_id] = a
                    continue
                inner = new_kinds[a]
                if inner == _INV:
                    mapping[gate_id] = new_inputs[a][0]
                    continue
                if is_constant[inner]:
                    mapping[gate_id] = emit(kind, (a,), names[gate_id])
                    continue
                key = a << 4 | kind
                operands = (a,)
            elif count == 3:
                x, y, z = operands
                a = mapping[x]
                b = mapping[y]
                c = mapping[z]
                if (b == c or is_constant[new_kinds[a]]
                        or is_constant[new_kinds[b]]
                        or is_constant[new_kinds[c]]
                        or (kind == _MAJ3 and (a == b or a == c))):
                    mapping[gate_id] = emit(kind, (a, b, c), names[gate_id])
                    continue
                if kind == _MAJ3:
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                        if a > b:
                            a, b = b, a
                key = a << 68 | b << 36 | c << 4 | kind
                operands = (a, b, c)
            elif kind == _INPUT:
                mapping[gate_id] = rewriter.add_input(names[gate_id])
                continue
            else:
                mapping[gate_id] = rewriter.constant(_CONSTANT_OF[kind])
                continue
            new_id = memo.get(key)
            if new_id is None:
                new_id = memo[key] = len(new_kinds)
                new_kinds.append(kind)
                new_inputs.append(operands)
                new_names.append(names[gate_id])
            mapping[gate_id] = new_id
        return rewriter.prune([mapping[output] for output in outputs])

    def _build_balanced(self, rewriter: _Rewriter, kind: int,
                        leaves: list[int], mapping: list[int],
                        arrival: list[float]) -> int:
        """Merge leaves pairwise, earliest arrival first (Huffman style)."""
        delay = self._sta.code_delays[kind]
        new_kinds, new_inputs, new_names = (rewriter.kinds, rewriter.inputs,
                                            rewriter.names)
        memo = rewriter.memo
        is_constant = _IS_CONSTANT
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = [(arrival[leaf], index, mapping[leaf])
                for index, leaf in enumerate(leaves)]
        heapq.heapify(heap)
        counter = len(leaves)
        while len(heap) > 1:
            _, _, a = heappop(heap)
            # The heap pops in ascending order: b's time is the later one.
            time_b, _, b = heappop(heap)
            if (a == b or is_constant[new_kinds[a]]
                    or is_constant[new_kinds[b]]):
                merged = rewriter.emit(kind, (a, b))
            else:
                if a > b:
                    a, b = b, a
                key = a << 36 | b << 4 | kind
                merged = memo.get(key)
                if merged is None:
                    merged = memo[key] = len(new_kinds)
                    new_kinds.append(kind)
                    new_inputs.append((a, b))
                    new_names.append("")
            heappush(heap, (time_b + delay, counter, merged))
            counter += 1
        return heap[0][2]

    # -------------------------------------------------------------------- run

    def optimize(self, netlist: Netlist) -> tuple[Netlist, OptimizationReport]:
        """Run the full pipeline and return (optimised netlist, report)."""
        gates = self._rewrite_pass(
            (netlist.kinds, netlist.operands, netlist.names, netlist.outputs()),
            _kahn_order_numbered(range(len(netlist)), netlist.operands),
            balance=False)
        passes = ["strash"]
        if self.balance:
            gates = self._rewrite_pass(gates, _kahn_order_of(gates),
                                       balance=True)
            passes.append("balance")
            gates = _strash_emitted(gates)
            passes.append("strash")

        optimized = Netlist.from_lists(netlist.name, *gates)
        report = OptimizationReport(
            gates_before=netlist.num_logic_gates(),
            gates_after=optimized.num_logic_gates(),
            timing=self._sta.run(optimized),
            passes=tuple(passes),
        )
        return optimized, report
