"""Tests for netlist-to-AIG conversion and AIG depth."""

import random

import pytest

from repro.aig.aig import Aig
from repro.aig.from_netlist import netlist_to_aig
from repro.designs.suite import table1_suite
from repro.ir.builder import GraphBuilder
from repro.netlist.gates import GateKind
from repro.netlist.lowering import lower_graph
from repro.netlist.netlist import Netlist

from tests.netlist.helpers import primary_inputs

_RNG = random.Random(99)


def _netlist_vs_aig(netlist: Netlist, trials: int = 16) -> None:
    """Check that the AIG computes the same function as the netlist."""
    aig = netlist_to_aig(netlist)
    netlist_inputs = primary_inputs(netlist)
    aig_inputs = aig.inputs()
    assert len(netlist_inputs) == len(aig_inputs)
    for _ in range(trials):
        bits = [_RNG.randint(0, 1) for _ in netlist_inputs]
        netlist_values = netlist.simulate(dict(zip(netlist_inputs, bits)))
        aig_values = aig.evaluate(dict(zip(aig_inputs, bits)))
        for net_out, aig_out in zip(netlist.outputs(), aig.outputs()):
            assert netlist_values[net_out] == aig_values[aig_out]


class TestConversion:
    def test_all_gate_kinds_convert(self):
        netlist = Netlist("gates")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        c = netlist.add_input("c")
        for kind in (GateKind.AND2, GateKind.OR2, GateKind.NAND2, GateKind.NOR2,
                     GateKind.XOR2, GateKind.XNOR2, GateKind.ANDN2):
            netlist.mark_output(netlist.add_gate(kind, (a, b)))
        netlist.mark_output(netlist.add_gate(GateKind.MUX2, (a, b, c)))
        netlist.mark_output(netlist.add_gate(GateKind.MAJ3, (a, b, c)))
        netlist.mark_output(netlist.add_gate(GateKind.INV, (a,)))
        netlist.mark_output(netlist.add_gate(GateKind.BUF, (b,)))
        netlist.mark_output(netlist.add_constant(1))
        _netlist_vs_aig(netlist)

    def test_lowered_adder_converts(self):
        builder = GraphBuilder("adder")
        x = builder.param("x", 6)
        y = builder.param("y", 6)
        builder.output(builder.add(x, y))
        _netlist_vs_aig(lower_graph(builder.graph).netlist)

    def test_depth_positive_for_logic(self):
        builder = GraphBuilder("depth")
        x = builder.param("x", 8)
        y = builder.param("y", 8)
        builder.output(builder.mul(x, y))
        aig = netlist_to_aig(lower_graph(builder.graph).netlist)
        assert aig.depth() > 8
        assert aig.num_ands() > 50


class TestTable1Pins:
    """Depth and AND count of whole lowered Table-I designs, pinned so a
    change of the netlist container or of the conversion order that moves
    the AIG shows up (the rows the isdc-cold benchmark synthesizes)."""

    PINNED = {
        # design: (depth, AND count)
        "rrot": (345, 4203),
        "crc32": (96, 2304),
        "binary divide": (725, 3369),
        "hsv2rgb": (282, 11783),
    }

    @pytest.mark.parametrize("design", sorted(PINNED))
    def test_depth_and_and_count(self, design):
        case = next(case for case in table1_suite() if case.name == design)
        aig = netlist_to_aig(lower_graph(case.build()).netlist)
        assert (aig.depth(), aig.num_ands()) == self.PINNED[design]


class TestDepth:
    @staticmethod
    def _and_of(aig, literals, balanced):
        """AND of ``literals`` as a left-leaning chain or a balanced tree."""
        if not balanced:
            current = literals[0]
            for literal in literals[1:]:
                current = aig.add_and(current, literal)
            return current
        while len(literals) > 1:
            literals = [aig.add_and(a, b)
                        for a, b in zip(literals[::2], literals[1::2])]
        return literals[0]

    @pytest.mark.parametrize("balanced, expected", [(False, 15), (True, 4)])
    def test_depth_of_a_sixteen_input_and(self, balanced, expected):
        aig = Aig("and16")
        inputs = [aig.add_input(f"i{i}") for i in range(16)]
        aig.mark_output(self._and_of(aig, inputs, balanced))
        assert aig.depth() == expected
        assert aig.num_ands() == 15

    def test_depth_is_the_deepest_output(self):
        aig = Aig("two_outputs")
        inputs = [aig.add_input(f"i{i}") for i in range(4)]
        aig.mark_output(inputs[0])
        aig.mark_output(self._and_of(aig, inputs, balanced=False))
        assert aig.depth() == 3
        assert Aig("empty").depth() == 0
