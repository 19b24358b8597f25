"""The list-based optimiser against the historical Netlist-based passes.

:class:`~tests.netlist.reference_optimizer.ReferenceOptimizer` keeps the
strash -> balance -> strash pipeline as it was before its passes went
list-based.  Every check here compares the two outputs field for field:
structure digest (gate list, ids, output ports), gate names, area, the
report's gate counts and passes, and the full
:class:`~repro.netlist.sta.TimingResult` including the key order of its
arrival dict.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.netlist.gates import GateKind
from repro.netlist.lowering import lower_graph
from repro.netlist.netlist import Netlist
from repro.netlist.optimizer import LogicOptimizer
from repro.tech.sky130 import sky130_library

from tests.netlist.reference_optimizer import ReferenceOptimizer
from tests.netlist.test_optimizer_golden import (
    BUILDER_BLOCKS,
    _builder_graph,
    structure_digest,
)

_LIBRARY = sky130_library()

#: What one build step adds: a primary input, a tie cell or a logic gate.
#: Logic kinds are listed twice so most steps add logic.
_LOGIC_KINDS = [kind for kind in GateKind if not kind.is_source]
_STEP_KINDS = list(GateKind) + _LOGIC_KINDS


def outcome(optimizer, netlist: Netlist) -> dict:
    """Every observable field of one ``optimize`` call."""
    optimized, report = optimizer.optimize(netlist)
    timing = report.timing
    return {
        "name": optimized.name,
        "digest": structure_digest(optimized),
        "names": optimized.names,
        "area": optimized.area(_LIBRARY),
        "gates_before": report.gates_before,
        "gates_after": report.gates_after,
        "logic_gates": optimized.num_logic_gates(),
        "passes": report.passes,
        "delay": timing.critical_path_delay_ps,
        "path": timing.critical_path,
        "arrival": list(timing.arrival_times.items()),
        "num_gates": timing.num_gates,
    }


def assert_matches_reference(netlist: Netlist, balance: bool = True) -> None:
    before = structure_digest(netlist)
    new = outcome(LogicOptimizer(_LIBRARY, balance=balance), netlist)
    assert structure_digest(netlist) == before, "optimize mutated its input"
    assert new == outcome(ReferenceOptimizer(_LIBRARY, balance=balance),
                          netlist)


@st.composite
def random_netlists(draw) -> Netlist:
    """Netlists over every gate kind, in any mix.

    Operands are drawn with replacement (duplicate operands), inputs and
    tie cells appear anywhere in the gate order, and output ports may
    repeat a gate or be absent altogether (the never-pruned no-output
    netlist).
    """
    netlist = Netlist("random")
    for index in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(_STEP_KINDS))
        ids = range(len(netlist))
        if kind is GateKind.INPUT or (not kind.is_source and not ids):
            netlist.add_input(f"in{index}")
        elif kind.is_source:
            netlist.add_constant(1 if kind is GateKind.CONST1 else 0)
        else:
            operands = draw(st.lists(st.sampled_from(ids),
                                     min_size=kind.num_inputs,
                                     max_size=kind.num_inputs))
            name = draw(st.sampled_from(["", f"g{index}"]))
            netlist.add_gate(kind, operands, name)
    ids = range(len(netlist))
    if ids:
        for output in draw(st.lists(st.sampled_from(ids), max_size=6)):
            netlist.mark_output(output)
    return netlist


@settings(max_examples=300, deadline=None)
@given(netlist=random_netlists(), balance=st.booleans())
def test_random_netlists_match_reference(netlist, balance):
    assert_matches_reference(netlist, balance)


@pytest.mark.parametrize("label, operator, width", BUILDER_BLOCKS)
def test_builder_blocks_match_reference(label, operator, width):
    assert_matches_reference(lower_graph(_builder_graph(operator, width)).netlist)


def _no_output_netlist() -> Netlist:
    """Dead logic, a duplicate gate and a foldable gate; no output ports."""
    netlist = Netlist("no_outputs")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    one = netlist.add_constant(1)
    first = netlist.add_gate(GateKind.AND2, (a, b), "first")
    netlist.add_gate(GateKind.AND2, (b, a), "again")
    netlist.add_gate(GateKind.AND2, (first, one), "folded")
    netlist.add_gate(GateKind.XOR2, (first, a), "dead")
    return netlist


def test_no_output_netlist_keeps_every_gate_and_id():
    netlist = _no_output_netlist()
    assert_matches_reference(netlist)
    optimized, report = LogicOptimizer(_LIBRARY).optimize(netlist)
    # Hashing and folding still apply, but nothing is pruned: the two
    # inputs, the tie cell, the shared AND and the otherwise dead XOR.
    assert optimized.kinds == [kind.code for kind in (
        GateKind.INPUT, GateKind.INPUT, GateKind.CONST1, GateKind.AND2,
        GateKind.XOR2)]
    assert optimized.outputs() == []
    assert report.timing.critical_path == (0, 3, 4)


def test_every_gate_kind_matches_reference():
    """One netlist with each logic kind, duplicate operands and dead inputs."""
    netlist = Netlist("every_kind")
    a, b, c = (netlist.add_input(name) for name in "abc")
    netlist.add_input("dead")
    zero = netlist.add_constant(0)
    outputs = [netlist.add_gate(kind, (a, b, c)[:kind.num_inputs])
               for kind in _LOGIC_KINDS]
    outputs += [netlist.add_gate(kind, (b,) * kind.num_inputs)
                for kind in _LOGIC_KINDS]
    outputs += [netlist.add_gate(kind, (zero, c, a)[:kind.num_inputs])
                for kind in _LOGIC_KINDS]
    for output in outputs + outputs[:3]:
        netlist.mark_output(output)
    assert_matches_reference(netlist)
    assert_matches_reference(netlist, balance=False)
