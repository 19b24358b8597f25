"""Gate primitives of the bit-level netlist."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class GateKind(enum.Enum):
    """Primitive gate kinds.

    ``INPUT`` gates are the primary inputs of the netlist (one per bit);
    ``CONST0``/``CONST1`` are tie cells.  All other kinds map one-to-one onto
    cells of the technology library (see ``CELL_NAME``).
    """

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    INV = "inv"
    AND2 = "and2"
    OR2 = "or2"
    NAND2 = "nand2"
    NOR2 = "nor2"
    XOR2 = "xor2"
    XNOR2 = "xnor2"
    ANDN2 = "andn2"
    MUX2 = "mux2"
    MAJ3 = "maj3"

    def __init__(self, value: str) -> None:
        #: True for primary inputs and tie cells (gates with no driving
        #: logic); a plain per-member attribute because it sits on every
        #: gate-count and STA path.
        self.is_source = value in ("input", "const0", "const1")

    @property
    def num_inputs(self) -> int:
        return _NUM_INPUTS[self]

    @property
    def cell_name(self) -> str | None:
        """Technology-library cell implementing this gate (None for inputs)."""
        return _CELL_NAME.get(self)


_NUM_INPUTS = {
    GateKind.INPUT: 0,
    GateKind.CONST0: 0,
    GateKind.CONST1: 0,
    GateKind.BUF: 1,
    GateKind.INV: 1,
    GateKind.AND2: 2,
    GateKind.OR2: 2,
    GateKind.NAND2: 2,
    GateKind.NOR2: 2,
    GateKind.XOR2: 2,
    GateKind.XNOR2: 2,
    GateKind.ANDN2: 2,
    GateKind.MUX2: 3,
    GateKind.MAJ3: 3,
}

_CELL_NAME = {
    GateKind.BUF: "buf",
    GateKind.INV: "inv",
    GateKind.AND2: "and2",
    GateKind.OR2: "or2",
    GateKind.NAND2: "nand2",
    GateKind.NOR2: "nor2",
    GateKind.XOR2: "xor2",
    GateKind.XNOR2: "xnor2",
    GateKind.ANDN2: "andn2",
    GateKind.MUX2: "mux2",
    GateKind.MAJ3: "maj3",
    GateKind.CONST0: "tie0",
    GateKind.CONST1: "tie1",
}

#: Dense integer code per gate kind (enum definition order).  Backs the
#: vectorized per-kind lookup tables (e.g. the STA delay table): a netlist's
#: gates become one int array of codes, and any per-kind quantity is a single
#: numpy ``table[codes]`` gather.
KIND_CODES = {kind: code for code, kind in enumerate(GateKind)}

#: Truth-table evaluators used by constant propagation and simulation.
#: Each maps a tuple of input bits to the output bit.
GATE_FUNCTIONS = {
    GateKind.CONST0: lambda inputs: 0,
    GateKind.CONST1: lambda inputs: 1,
    GateKind.BUF: lambda inputs: inputs[0],
    GateKind.INV: lambda inputs: 1 - inputs[0],
    GateKind.AND2: lambda inputs: inputs[0] & inputs[1],
    GateKind.OR2: lambda inputs: inputs[0] | inputs[1],
    GateKind.NAND2: lambda inputs: 1 - (inputs[0] & inputs[1]),
    GateKind.NOR2: lambda inputs: 1 - (inputs[0] | inputs[1]),
    GateKind.XOR2: lambda inputs: inputs[0] ^ inputs[1],
    GateKind.XNOR2: lambda inputs: 1 - (inputs[0] ^ inputs[1]),
    GateKind.ANDN2: lambda inputs: inputs[0] & (1 - inputs[1]),
    # MUX2 operands are (select, on_true, on_false).
    GateKind.MUX2: lambda inputs: inputs[1] if inputs[0] else inputs[2],
    GateKind.MAJ3: lambda inputs: 1 if (inputs[0] + inputs[1] + inputs[2]) >= 2 else 0,
}


@dataclass
class Gate:
    """A gate instance.

    Attributes:
        gate_id: unique id within the netlist.
        kind: the primitive gate kind.
        inputs: ids of the gates driving this gate's input pins, in pin order.
        name: optional debug name (primary inputs keep the IR value name).
    """

    gate_id: int
    kind: GateKind
    inputs: tuple[int, ...]
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ins = ", ".join(f"g{i}" for i in self.inputs)
        return f"Gate(g{self.gate_id} = {self.kind.value}({ins}))"
