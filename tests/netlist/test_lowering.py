"""Functional correctness of word-level-to-gate lowering.

Every operation is lowered, simulated at the bit level, and compared against
the reference IR interpreter on a set of directed and random inputs.
"""

import random

import pytest

from repro.ir.builder import GraphBuilder
from repro.netlist.lowering import lower_graph, lower_subgraph

from tests.netlist.helpers import check_against_interpreter, simulate_lowering

_RNG = random.Random(20240122)


def _binary_graph(kind_method: str, width: int = 8, **kwargs):
    builder = GraphBuilder(f"lower_{kind_method}")
    x = builder.param("x", width)
    y = builder.param("y", width)
    result = getattr(builder, kind_method)(x, y, **kwargs)
    builder.output(result)
    return builder.graph


_BINARY_METHODS = ["add", "sub", "mul", "and_", "or_", "xor", "andn",
                   "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sgt"]


class TestBinaryOperations:
    @pytest.mark.parametrize("method", _BINARY_METHODS)
    def test_matches_interpreter(self, method):
        graph = _binary_graph(method)
        for _ in range(8):
            inputs = {"x": _RNG.randrange(256), "y": _RNG.randrange(256)}
            check_against_interpreter(graph, inputs)

    @pytest.mark.parametrize("method", ["add", "sub", "mul", "ult"])
    def test_edge_values(self, method):
        graph = _binary_graph(method)
        for x in (0, 1, 127, 128, 255):
            for y in (0, 1, 255):
                check_against_interpreter(graph, {"x": x, "y": y})


class TestUnaryAndMisc:
    def test_not_neg(self):
        builder = GraphBuilder("unary")
        x = builder.param("x", 8)
        builder.output(builder.not_(x))
        builder.output(builder.neg(x))
        for value in (0, 1, 100, 255):
            check_against_interpreter(builder.graph, {"x": value})

    def test_reductions(self):
        builder = GraphBuilder("reduce")
        x = builder.param("x", 8)
        builder.output(builder.and_reduce(x))
        builder.output(builder.or_reduce(x))
        builder.output(builder.xor_reduce(x))
        for value in (0, 1, 0x0F, 0xFF, 0xAA):
            check_against_interpreter(builder.graph, {"x": value})

    def test_select(self):
        builder = GraphBuilder("select")
        c = builder.param("c", 1)
        a = builder.param("a", 8)
        b = builder.param("b", 8)
        builder.output(builder.select(c, a, b))
        for cond in (0, 1):
            check_against_interpreter(builder.graph,
                                      {"c": cond, "a": 0xAB, "b": 0x12})

    def test_bit_manipulation(self):
        builder = GraphBuilder("bits")
        x = builder.param("x", 16)
        builder.output(builder.bit_slice(x, 4, 8))
        builder.output(builder.zero_ext(builder.bit_slice(x, 0, 4), 16))
        builder.output(builder.sign_ext(builder.bit_slice(x, 0, 4), 16))
        builder.output(builder.concat(builder.bit_slice(x, 8, 8),
                                      builder.bit_slice(x, 0, 8)))
        for value in (0, 0xFFFF, 0x1234, 0x8765):
            check_against_interpreter(builder.graph, {"x": value})

    def test_popcount_and_clz(self):
        builder = GraphBuilder("count")
        x = builder.param("x", 8)
        builder.output(builder.popcount(x))
        builder.output(builder.clz(x))
        for value in (0, 1, 2, 0x80, 0xFF, 0x3C):
            check_against_interpreter(builder.graph, {"x": value})

    def test_muladd(self):
        builder = GraphBuilder("muladd")
        a = builder.param("a", 8)
        b = builder.param("b", 8)
        c = builder.param("c", 8)
        builder.output(builder.muladd(a, b, c))
        for _ in range(6):
            check_against_interpreter(builder.graph, {
                "a": _RNG.randrange(256), "b": _RNG.randrange(256),
                "c": _RNG.randrange(256)})

    def test_division(self):
        builder = GraphBuilder("divide")
        a = builder.param("a", 8)
        b = builder.param("b", 8)
        builder.output(builder.udiv(a, b))
        builder.output(builder.umod(a, b))
        for a_value, b_value in ((100, 7), (255, 16), (5, 9), (0, 3), (200, 1)):
            check_against_interpreter(builder.graph, {"a": a_value, "b": b_value})


class TestShifts:
    @pytest.mark.parametrize("method", ["shl", "shrl", "shra", "rotl", "rotr"])
    def test_variable_shifts(self, method):
        builder = GraphBuilder(f"shift_{method}")
        x = builder.param("x", 16)
        amount = builder.param("amount", 4)
        builder.output(getattr(builder, method)(x, amount))
        for value in (0x8001, 0x1234, 0xFFFF):
            for shift in (0, 1, 7, 15):
                check_against_interpreter(builder.graph,
                                          {"x": value, "amount": shift})

    def test_constant_shift_is_wiring(self):
        builder = GraphBuilder("const_shift")
        x = builder.param("x", 16)
        builder.output(builder.shrl_const(x, 3))
        lowered = lower_graph(builder.graph)
        # Pure wiring: no logic gates beyond the tie cells.
        assert lowered.netlist.num_logic_gates() == 0
        check_against_interpreter(builder.graph, {"x": 0xBEEF})

    def test_constant_rotate_matches(self):
        builder = GraphBuilder("const_rot")
        x = builder.param("x", 32)
        builder.output(builder.rotr_const(x, 13))
        for value in (1, 0x80000000, 0xDEADBEEF):
            check_against_interpreter(builder.graph, {"x": value})


class TestSubgraphLowering:
    def test_boundary_inputs_created(self, adder_chain_graph):
        s2 = next(n.node_id for n in adder_chain_graph.nodes() if n.name == "s2")
        s3 = next(n.node_id for n in adder_chain_graph.nodes() if n.name == "s3")
        lowered = lower_subgraph(adder_chain_graph, [s2, s3])
        # s1, z and w are external producers -> primary inputs; x, y are not.
        assert len(lowered.input_bits) == 3
        assert set(lowered.output_bits) == {s3}

    def test_subgraph_functionally_correct(self, adder_chain_graph):
        s1 = next(n.node_id for n in adder_chain_graph.nodes() if n.name == "s1")
        s2 = next(n.node_id for n in adder_chain_graph.nodes() if n.name == "s2")
        lowered = lower_subgraph(adder_chain_graph, [s1, s2])
        x, y, z, _ = [p.node_id for p in adder_chain_graph.parameters()]
        outputs = simulate_lowering(lowered, {x: 1000, y: 2000, z: 3000})
        assert outputs[s2] == (1000 + 2000 + 3000) & 0xFFFF

    def test_external_constants_are_materialised(self):
        builder = GraphBuilder("const_ext")
        x = builder.param("x", 16)
        shifted = builder.shrl_const(x, 4)
        added = builder.add(shifted, x)
        builder.output(added)
        lowered = lower_subgraph(builder.graph, [shifted.node_id])
        # Only x becomes a primary input; the shift amount stays a constant.
        assert list(lowered.input_bits) == [x.node_id]

    def test_mul_gate_count_scales_quadratically(self):
        small = GraphBuilder("m8")
        a = small.param("a", 8)
        b = small.param("b", 8)
        small.output(small.mul(a, b))
        large = GraphBuilder("m16")
        c = large.param("c", 16)
        d = large.param("d", 16)
        large.output(large.mul(c, d))
        gates_small = lower_graph(small.graph).netlist.num_logic_gates()
        gates_large = lower_graph(large.graph).netlist.num_logic_gates()
        assert gates_large > 3 * gates_small
