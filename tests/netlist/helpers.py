"""Shared helpers for gate-level tests: lower a graph and simulate it."""

from __future__ import annotations

from repro.ir.graph import DataflowGraph
from repro.ir.interpreter import evaluate_graph
from repro.netlist.gates import GateKind
from repro.netlist.lowering import LoweringResult, lower_graph
from repro.netlist.netlist import Netlist


def primary_inputs(netlist: Netlist) -> list[int]:
    """Primary-input gate ids of ``netlist``, ascending."""
    return [gate_id for gate_id, code in enumerate(netlist.kinds)
            if code == GateKind.INPUT.code]


def bits_to_int(values: dict[int, int], bits: list[int]) -> int:
    """Assemble an integer from simulated bit values (LSB-first gate ids)."""
    return sum(values[gate_id] << index for index, gate_id in enumerate(bits))


def int_to_bits(value: int, bits: list[int]) -> dict[int, int]:
    """Spread an integer over primary-input gate ids (LSB-first)."""
    return {gate_id: (value >> index) & 1 for index, gate_id in enumerate(bits)}


def simulate_lowering(lowered: LoweringResult, inputs: dict[int, int],
                      netlist: Netlist | None = None) -> dict[int, int]:
    """Simulate a lowered (sub)graph for IR-node-id keyed integer inputs.

    Args:
        lowered: the lowering result (provides the input/output bit maps).
        inputs: IR node id -> integer value for every boundary input.
        netlist: optionally simulate a different netlist with the same
            primary-input gate ids (used to check optimised netlists).

    Returns:
        IR node id -> integer value for every output of the lowering.
    """
    target = netlist if netlist is not None else lowered.netlist
    input_values: dict[int, int] = {}
    for node_id, bits in lowered.input_bits.items():
        input_values.update(int_to_bits(inputs[node_id], bits))
    simulated = target.simulate(input_values)
    return {node_id: bits_to_int(simulated, bits)
            for node_id, bits in lowered.output_bits.items()}


def check_against_interpreter(graph: DataflowGraph, inputs: dict[str, int]) -> None:
    """Assert that lowering + gate simulation matches the IR interpreter."""
    reference = evaluate_graph(graph, inputs)
    lowered = lower_graph(graph)
    id_inputs = {node.node_id: reference[node.node_id]
                 for node in graph.parameters()}
    outputs = simulate_lowering(lowered, id_inputs)
    for node_id, value in outputs.items():
        assert value == reference[node_id], (
            f"{graph.name}:{graph.node(node_id).name}: netlist={value} "
            f"interpreter={reference[node_id]}")
