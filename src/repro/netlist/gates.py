"""Gate primitives of the bit-level netlist."""

from __future__ import annotations

import enum


#: Input-pin count per gate kind value.
_NUM_INPUTS = {
    "input": 0, "const0": 0, "const1": 0,
    "buf": 1, "inv": 1,
    "and2": 2, "or2": 2, "nand2": 2, "nor2": 2, "xor2": 2, "xnor2": 2,
    "andn2": 2,
    "mux2": 3, "maj3": 3,
}

#: Library cell per gate kind value (primary inputs have none).
_CELL_NAME = {
    "buf": "buf", "inv": "inv", "and2": "and2", "or2": "or2",
    "nand2": "nand2", "nor2": "nor2", "xor2": "xor2", "xnor2": "xnor2",
    "andn2": "andn2", "mux2": "mux2", "maj3": "maj3",
    "const0": "tie0", "const1": "tie1",
}


class GateKind(enum.Enum):
    """Primitive gate kinds.

    ``INPUT`` gates are the primary inputs of the netlist (one per bit);
    ``CONST0``/``CONST1`` are tie cells.  All other kinds map one-to-one onto
    cells of the technology library (see :attr:`cell_name`).
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
        # Plain per-member attributes rather than properties over a dict;
        # per-gate loops read per-code tables built from them (indexed by
        # ``kind.code``) instead.
        #: True for primary inputs and tie cells (gates with no driving
        #: logic).
        self.is_source = value in ("input", "const0", "const1")
        #: Number of input pins.
        self.num_inputs = _NUM_INPUTS[value]
        #: Technology-library cell implementing this gate (None for inputs).
        self.cell_name = _CELL_NAME.get(value)


#: Dense integer code per gate kind (enum definition order).  A
#: :class:`~repro.netlist.netlist.Netlist` stores these codes in place of
#: the members, and any per-kind quantity (the STA delay table, cell areas)
#: is a plain list indexed by code.  Each member also holds its code as
#: ``kind.code``, so per-gate loops read it without hashing the enum.
KIND_CODES = {kind: code for code, kind in enumerate(GateKind)}
for _kind, _code in KIND_CODES.items():
    _kind.code = _code
del _kind, _code

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

