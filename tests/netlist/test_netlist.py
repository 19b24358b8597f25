"""Tests for the Netlist container."""

import pytest

from repro.netlist.gates import GateKind
from repro.netlist.netlist import Netlist

from tests.netlist.helpers import primary_inputs


@pytest.fixture
def xor_netlist():
    """XOR built from NAND gates, for structural tests."""
    netlist = Netlist("xor_from_nands")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    nand_ab = netlist.add_gate(GateKind.NAND2, (a, b))
    nand_a = netlist.add_gate(GateKind.NAND2, (a, nand_ab))
    nand_b = netlist.add_gate(GateKind.NAND2, (b, nand_ab))
    result = netlist.add_gate(GateKind.NAND2, (nand_a, nand_b))
    netlist.mark_output(result)
    return netlist, (a, b, result)


class TestConstruction:
    def test_counts(self, xor_netlist):
        netlist, _ = xor_netlist
        assert len(netlist) == 6
        assert netlist.num_logic_gates() == 4
        assert len(primary_inputs(netlist)) == 2
        assert len(netlist.outputs()) == 1

    def test_wrong_input_count_rejected(self):
        netlist = Netlist()
        a = netlist.add_input()
        with pytest.raises(ValueError):
            netlist.add_gate(GateKind.AND2, (a,))

    def test_unknown_driver_rejected(self):
        netlist = Netlist()
        with pytest.raises(KeyError):
            netlist.add_gate(GateKind.INV, (7,))

    def test_out_of_range_operands_rejected(self):
        """Ids are list positions, but -1 is no gate (a plain list index
        would take the last one), and neither is the id being added."""
        netlist = Netlist()
        a = netlist.add_input("a")
        for operand in (-1, len(netlist)):
            with pytest.raises(KeyError):
                netlist.add_gate(GateKind.INV, (operand,))
        with pytest.raises(KeyError):
            netlist.add_gate(GateKind.AND2, (a, -1))
        assert len(netlist) == 1 and netlist.num_logic_gates() == 0

    def test_mark_output_unknown_gate_rejected(self):
        netlist = Netlist()
        with pytest.raises(KeyError):
            netlist.mark_output(3)

    def test_mark_output_negative_id_rejected(self):
        netlist = Netlist()
        netlist.add_input("a")
        with pytest.raises(KeyError):
            netlist.mark_output(-1)
        assert netlist.outputs() == []

    def test_logic_gate_count_follows_edits(self, xor_netlist):
        """The kept count equals a recount after adds and on wrapped lists."""
        netlist, (a, b, _) = xor_netlist

        kinds = list(GateKind)

        def recount(target: Netlist) -> int:
            return sum(1 for code in target.kinds
                       if not kinds[code].is_source)

        assert netlist.num_logic_gates() == recount(netlist) == 4
        netlist.add_constant(1)
        netlist.add_gate(GateKind.AND2, (a, b))
        assert netlist.num_logic_gates() == recount(netlist) == 5
        wrapped = Netlist.from_lists("wrapped", list(netlist.kinds),
                                     list(netlist.operands),
                                     list(netlist.names), netlist.outputs())
        assert wrapped.num_logic_gates() == recount(wrapped) == 5

    def test_mark_output_adds_one_port_per_call(self, xor_netlist):
        netlist, (_, _, result) = xor_netlist
        netlist.mark_output(result)
        assert netlist.outputs().count(result) == 2


class TestAnalysis:
    def test_ascending_ids_respect_edges(self, xor_netlist):
        netlist, _ = xor_netlist
        for gate_id, operands in enumerate(netlist.operands):
            assert all(driver < gate_id for driver in operands)

    def test_area_positive(self, xor_netlist, library):
        netlist, _ = xor_netlist
        assert netlist.area(library) == pytest.approx(4 * library.area("nand2"))


class TestSimulation:
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_xor_truth_table(self, xor_netlist, a, b):
        netlist, (in_a, in_b, result) = xor_netlist
        values = netlist.simulate({in_a: a, in_b: b})
        assert values[result] == a ^ b

    def test_every_gate_function(self):
        netlist = Netlist()
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        c = netlist.add_input("c")
        gates = {
            GateKind.INV: netlist.add_gate(GateKind.INV, (a,)),
            GateKind.BUF: netlist.add_gate(GateKind.BUF, (a,)),
            GateKind.AND2: netlist.add_gate(GateKind.AND2, (a, b)),
            GateKind.OR2: netlist.add_gate(GateKind.OR2, (a, b)),
            GateKind.NAND2: netlist.add_gate(GateKind.NAND2, (a, b)),
            GateKind.NOR2: netlist.add_gate(GateKind.NOR2, (a, b)),
            GateKind.XOR2: netlist.add_gate(GateKind.XOR2, (a, b)),
            GateKind.XNOR2: netlist.add_gate(GateKind.XNOR2, (a, b)),
            GateKind.ANDN2: netlist.add_gate(GateKind.ANDN2, (a, b)),
            GateKind.MUX2: netlist.add_gate(GateKind.MUX2, (a, b, c)),
            GateKind.MAJ3: netlist.add_gate(GateKind.MAJ3, (a, b, c)),
        }
        for va in (0, 1):
            for vb in (0, 1):
                for vc in (0, 1):
                    values = netlist.simulate({a: va, b: vb, c: vc})
                    assert values[gates[GateKind.INV]] == 1 - va
                    assert values[gates[GateKind.BUF]] == va
                    assert values[gates[GateKind.AND2]] == (va & vb)
                    assert values[gates[GateKind.OR2]] == (va | vb)
                    assert values[gates[GateKind.NAND2]] == 1 - (va & vb)
                    assert values[gates[GateKind.NOR2]] == 1 - (va | vb)
                    assert values[gates[GateKind.XOR2]] == va ^ vb
                    assert values[gates[GateKind.XNOR2]] == 1 - (va ^ vb)
                    assert values[gates[GateKind.ANDN2]] == va & (1 - vb)
                    assert values[gates[GateKind.MUX2]] == (vb if va else vc)
                    assert values[gates[GateKind.MAJ3]] == (1 if va + vb + vc >= 2 else 0)


class TestGateKindAttributes:
    """Per-member attributes keep the values the old property tables gave."""

    EXPECTED = {
        # kind: (num_inputs, cell_name, is_source)
        GateKind.INPUT: (0, None, True),
        GateKind.CONST0: (0, "tie0", True),
        GateKind.CONST1: (0, "tie1", True),
        GateKind.BUF: (1, "buf", False),
        GateKind.INV: (1, "inv", False),
        GateKind.AND2: (2, "and2", False),
        GateKind.OR2: (2, "or2", False),
        GateKind.NAND2: (2, "nand2", False),
        GateKind.NOR2: (2, "nor2", False),
        GateKind.XOR2: (2, "xor2", False),
        GateKind.XNOR2: (2, "xnor2", False),
        GateKind.ANDN2: (2, "andn2", False),
        GateKind.MUX2: (3, "mux2", False),
        GateKind.MAJ3: (3, "maj3", False),
    }

    def test_every_member_keeps_its_values(self):
        assert list(self.EXPECTED) == list(GateKind)
        for kind, (num_inputs, cell_name, is_source) in self.EXPECTED.items():
            assert kind.num_inputs == num_inputs, kind
            assert kind.cell_name == cell_name, kind
            assert kind.is_source is is_source, kind

    def test_codes_are_definition_order(self):
        from repro.netlist.gates import KIND_CODES

        assert [kind.code for kind in GateKind] == list(range(len(GateKind)))
        assert KIND_CODES == {kind: kind.code for kind in GateKind}

    def test_attributes_are_plain_member_attributes(self):
        for kind in GateKind:
            assert {"num_inputs", "cell_name", "is_source",
                    "code"} <= set(vars(kind))
