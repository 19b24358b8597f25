"""Bit-level netlist container."""

from __future__ import annotations

from typing import Iterable

from repro.netlist.gates import GateKind, GATE_FUNCTIONS
from repro.tech.library import TechLibrary

#: Per kind code (enum definition order): the member, its truth table, its
#: input-pin count and whether it is a source (primary input or tie cell).
_KINDS = list(GateKind)
_FUNCTIONS = [GATE_FUNCTIONS.get(kind) for kind in _KINDS]
_NUM_INPUTS = [kind.num_inputs for kind in _KINDS]
_IS_SOURCE = [kind.is_source for kind in _KINDS]
_INPUT = GateKind.INPUT.code


class Netlist:
    """A combinational gate-level netlist as four aligned lists.

    Gate ``i`` has kind code ``kinds[i]``
    (:data:`~repro.netlist.gates.KIND_CODES`), operand gate ids
    ``operands[i]`` in pin order and debug name ``names[i]`` (primary inputs
    keep the IR value name); :meth:`outputs` lists the output ports.  Nets
    are identified with the gate driving them (single-output gates), so
    "gate id" and "net id" are used interchangeably.  Ids are dense, and
    every operand is numbered below its user (:meth:`add_gate` accepts only
    operands that already exist), so ascending id order is topological:
    every consumer -- the logic optimiser, STA, simulation, AIG conversion
    -- walks ``0..n-1`` and needs no order of its own.

    Attributes:
        name: netlist name, propagated into timing reports.
        kinds: kind code per gate.
        operands: operand gate ids per gate.
        names: debug name per gate.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.kinds: list[int] = []
        self.operands: list[tuple[int, ...]] = []
        self.names: list[str] = []
        self._outputs: list[int] = []
        self._num_logic = 0

    @classmethod
    def from_lists(cls, name: str, kinds: list[int],
                   operands: list[tuple[int, ...]], names: list[str],
                   outputs: list[int]) -> "Netlist":
        """Wrap aligned gate lists (taken as they are, neither copied nor
        checked): every operand must be numbered below its user."""
        netlist = cls(name)
        netlist.kinds = kinds
        netlist.operands = operands
        netlist.names = names
        netlist._outputs = outputs
        netlist._num_logic = len(kinds) - sum(map(_IS_SOURCE.__getitem__,
                                                  kinds))
        return netlist

    # ------------------------------------------------------------------ build

    def add_gate(self, kind: GateKind, inputs: Iterable[int] = (),
                 name: str = "") -> int:
        """Add a gate and return its id.

        Raises:
            KeyError: if an input gate id does not exist.
            ValueError: if the input count does not match the gate kind.
        """
        code = kind.code
        operands = tuple(inputs)
        if len(operands) != _NUM_INPUTS[code]:
            raise ValueError(
                f"{kind.value} expects {kind.num_inputs} inputs, got {len(operands)}")
        kinds = self.kinds
        gate_id = len(kinds)
        for operand in operands:
            if operand >= gate_id or operand < 0:
                raise KeyError(f"input gate {operand} not in netlist {self.name!r}")
        kinds.append(code)
        self.operands.append(operands)
        self.names.append(name)
        if not _IS_SOURCE[code]:
            self._num_logic += 1
        return gate_id

    def add_input(self, name: str = "") -> int:
        """Add a primary-input gate."""
        return self.add_gate(GateKind.INPUT, (), name)

    def add_constant(self, value: int, name: str = "") -> int:
        """Add a tie-0/tie-1 gate for the given bit value."""
        kind = GateKind.CONST1 if value else GateKind.CONST0
        return self.add_gate(kind, (), name)

    def mark_output(self, gate_id: int) -> None:
        """Mark ``gate_id`` as a primary output.

        The same gate may be marked several times: each call adds one output
        *port*, and ports keep their positions across optimisation rebuilds,
        which is what functional-equivalence checks rely on.
        """
        if not 0 <= gate_id < len(self.kinds):
            raise KeyError(f"gate {gate_id} not in netlist {self.name!r}")
        self._outputs.append(gate_id)

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self.kinds)

    def outputs(self) -> list[int]:
        """Primary-output gate ids, in registration order."""
        return list(self._outputs)

    def num_logic_gates(self) -> int:
        """Number of gates excluding primary inputs and tie cells."""
        return self._num_logic

    # -------------------------------------------------------------- analysis

    def area(self, library: TechLibrary) -> float:
        """Total cell area of the netlist in square micrometres."""
        cell_areas = [0.0 if kind.cell_name is None
                      else library.area(kind.cell_name) for kind in _KINDS]
        total = 0.0
        for code in self.kinds:
            total += cell_areas[code]
        return total

    def simulate(self, input_values: dict[int, int]) -> dict[int, int]:
        """Evaluate every gate for the given primary-input bit values.

        Args:
            input_values: mapping from primary-input gate id to 0/1.

        Returns:
            Mapping from gate id to its evaluated bit, for every gate.

        Raises:
            KeyError: if a primary input is missing from ``input_values``.
        """
        values: list[int] = []
        for gate_id, (code, operands) in enumerate(zip(self.kinds,
                                                       self.operands)):
            if code == _INPUT:
                values.append(input_values[gate_id] & 1)
            else:
                values.append(_FUNCTIONS[code](
                    tuple(values[i] for i in operands)))
        return dict(enumerate(values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name!r}, {len(self)} gates)"
