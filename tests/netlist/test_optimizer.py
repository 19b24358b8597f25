"""Tests for the logic optimiser: functional equivalence + quality effects."""

import random

import pytest

from repro.ir.builder import GraphBuilder
from repro.netlist.gates import GateKind
from repro.netlist.lowering import lower_graph
from repro.netlist.netlist import Netlist
from repro.netlist.optimizer import LogicOptimizer
from repro.netlist.sta import StaticTimingAnalysis

from tests.netlist.helpers import primary_inputs

_RNG = random.Random(7)


@pytest.fixture
def optimizer(library):
    return LogicOptimizer(library)


class TestLocalRewrites:
    def test_constant_folding(self, optimizer):
        netlist = Netlist("fold")
        one = netlist.add_constant(1)
        zero = netlist.add_constant(0)
        result = netlist.add_gate(GateKind.AND2, (one, zero))
        netlist.mark_output(result)
        optimized, report = optimizer.optimize(netlist)
        assert optimized.num_logic_gates() == 0
        assert report.gates_after == 0

    def test_and_with_constant_one_simplifies(self, optimizer):
        netlist = Netlist("identity")
        a = netlist.add_input("a")
        one = netlist.add_constant(1)
        result = netlist.add_gate(GateKind.AND2, (a, one))
        netlist.mark_output(result)
        optimized, _ = optimizer.optimize(netlist)
        assert optimized.num_logic_gates() == 0

    def test_double_inverter_removed(self, optimizer):
        netlist = Netlist("double_inv")
        a = netlist.add_input("a")
        inv1 = netlist.add_gate(GateKind.INV, (a,))
        inv2 = netlist.add_gate(GateKind.INV, (inv1,))
        final = netlist.add_gate(GateKind.AND2, (inv2, a))
        netlist.mark_output(final)
        optimized, _ = optimizer.optimize(netlist)
        assert optimized.num_logic_gates() <= 1

    def test_common_subexpression_merged(self, optimizer):
        netlist = Netlist("cse")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        x1 = netlist.add_gate(GateKind.XOR2, (a, b))
        x2 = netlist.add_gate(GateKind.XOR2, (b, a))  # same function
        joined = netlist.add_gate(GateKind.AND2, (x1, x2))
        netlist.mark_output(joined)
        optimized, _ = optimizer.optimize(netlist)
        # x1/x2 merge, then AND(x, x) -> x: a single XOR remains.
        assert optimized.num_logic_gates() == 1

    def test_mux_with_constant_select(self, optimizer):
        netlist = Netlist("mux_const")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        one = netlist.add_constant(1)
        picked = netlist.add_gate(GateKind.MUX2, (one, a, b))
        netlist.mark_output(picked)
        optimized, _ = optimizer.optimize(netlist)
        assert optimized.num_logic_gates() == 0

    def test_dead_logic_removed(self, optimizer):
        netlist = Netlist("dce")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        live = netlist.add_gate(GateKind.AND2, (a, b))
        netlist.add_gate(GateKind.XOR2, (a, b))  # dead
        netlist.mark_output(live)
        optimized, _ = optimizer.optimize(netlist)
        assert optimized.num_logic_gates() == 1


class TestBalancing:
    def test_linear_chain_becomes_logarithmic(self, optimizer, library):
        netlist = Netlist("chain")
        inputs = [netlist.add_input(f"i{i}") for i in range(16)]
        result = inputs[0]
        for gate_input in inputs[1:]:
            result = netlist.add_gate(GateKind.XOR2, (result, gate_input))
        netlist.mark_output(result)
        sta = StaticTimingAnalysis(library)
        before = sta.run(netlist).critical_path_delay_ps
        optimized, report = optimizer.optimize(netlist)
        after = sta.run(optimized).critical_path_delay_ps
        assert after <= before / 2
        # The report's timing is the returned netlist's.
        assert report.timing == sta.run(optimized)

    def test_balancing_preserves_function(self, optimizer):
        netlist = Netlist("balance_equiv")
        inputs = [netlist.add_input(f"i{i}") for i in range(10)]
        result = inputs[0]
        for gate_input in inputs[1:]:
            result = netlist.add_gate(GateKind.AND2, (result, gate_input))
        netlist.mark_output(result)
        optimized, _ = optimizer.optimize(netlist)
        for _ in range(16):
            bits = [_RNG.randint(0, 1) for _ in primary_inputs(netlist)]
            original_value = netlist.simulate(
                dict(zip(primary_inputs(netlist), bits)))[netlist.outputs()[0]]
            optimized_value = optimized.simulate(
                dict(zip(primary_inputs(optimized), bits)))[optimized.outputs()[0]]
            assert original_value == optimized_value


class TestEquivalenceOnLoweredDesigns:
    @pytest.mark.parametrize("builder_method,width", [
        ("add", 8), ("sub", 8), ("mul", 6), ("xor", 8), ("ult", 8),
    ])
    def test_optimized_netlist_equivalent(self, optimizer, builder_method, width):
        builder = GraphBuilder(f"equiv_{builder_method}")
        x = builder.param("x", width)
        y = builder.param("y", width)
        builder.output(getattr(builder, builder_method)(x, y))
        lowered = lower_graph(builder.graph)
        original = lowered.netlist
        optimized, report = optimizer.optimize(original)
        assert report.gates_after <= report.gates_before
        # Primary inputs and outputs are preserved positionally by the
        # optimiser's rebuild, so equivalence is checked pin-by-pin.
        original_inputs = primary_inputs(original)
        optimized_inputs = primary_inputs(optimized)
        original_outputs = original.outputs()
        optimized_outputs = optimized.outputs()
        assert len(original_inputs) == len(optimized_inputs)
        assert len(original_outputs) == len(optimized_outputs)
        for _ in range(10):
            bits = [_RNG.randint(0, 1) for _ in original_inputs]
            original_values = original.simulate(dict(zip(original_inputs, bits)))
            optimized_values = optimized.simulate(dict(zip(optimized_inputs, bits)))
            for original_gate, optimized_gate in zip(original_outputs,
                                                     optimized_outputs):
                assert original_values[original_gate] == optimized_values[optimized_gate]

    def test_report_reduction_fraction(self, optimizer):
        builder = GraphBuilder("report")
        x = builder.param("x", 16)
        y = builder.param("y", 16)
        builder.output(builder.add(builder.add(x, y), x))
        _, report = optimizer.optimize(lower_graph(builder.graph).netlist)
        assert 0.0 <= report.gate_reduction < 1.0
        assert report.passes[0] == "strash"
