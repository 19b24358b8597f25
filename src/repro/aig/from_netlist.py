"""Conversion from gate-level netlists to AIGs."""

from __future__ import annotations

from repro.aig.aig import Aig, Literal, FALSE_LITERAL, TRUE_LITERAL, literal_negate
from repro.netlist.gates import GateKind
from repro.netlist.netlist import Netlist

_KINDS = list(GateKind)


def netlist_to_aig(netlist: Netlist, name: str = "") -> Aig:
    """Convert a gate-level netlist into a structurally hashed AIG.

    Every gate kind is expanded into its AND/NOT decomposition; XOR and MUX
    therefore cost three AND nodes and MAJ3 costs four, matching how ABC sees
    the same logic.

    Returns:
        The AIG, with one output literal per netlist output, in order.
    """
    aig = Aig(name or f"{netlist.name}_aig")
    # Ascending ids are topological: every operand is converted before its
    # user.
    literal_of: list[Literal] = []
    for code, operands, gate_name in zip(netlist.kinds, netlist.operands,
                                         netlist.names):
        kind = _KINDS[code]
        fanins = [literal_of[i] for i in operands]

        if kind is GateKind.INPUT:
            literal = aig.add_input(gate_name)
        elif kind is GateKind.CONST0:
            literal = FALSE_LITERAL
        elif kind is GateKind.CONST1:
            literal = TRUE_LITERAL
        elif kind is GateKind.BUF:
            literal = fanins[0]
        elif kind is GateKind.INV:
            literal = literal_negate(fanins[0])
        elif kind is GateKind.AND2:
            literal = aig.add_and(fanins[0], fanins[1])
        elif kind is GateKind.NAND2:
            literal = literal_negate(aig.add_and(fanins[0], fanins[1]))
        elif kind is GateKind.OR2:
            literal = aig.add_or(fanins[0], fanins[1])
        elif kind is GateKind.NOR2:
            literal = literal_negate(aig.add_or(fanins[0], fanins[1]))
        elif kind is GateKind.XOR2:
            literal = aig.add_xor(fanins[0], fanins[1])
        elif kind is GateKind.XNOR2:
            literal = literal_negate(aig.add_xor(fanins[0], fanins[1]))
        elif kind is GateKind.ANDN2:
            literal = aig.add_and(fanins[0], literal_negate(fanins[1]))
        elif kind is GateKind.MUX2:
            literal = aig.add_mux(fanins[0], fanins[1], fanins[2])
        elif kind is GateKind.MAJ3:
            literal = aig.add_maj(fanins[0], fanins[1], fanins[2])
        else:  # pragma: no cover - exhaustive over GateKind
            raise NotImplementedError(f"no AIG conversion for gate {kind.value}")
        literal_of.append(literal)

    for output in netlist.outputs():
        aig.mark_output(literal_of[output])
    return aig
