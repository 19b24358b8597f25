"""The list-based optimiser against the historical Netlist-based passes.

:class:`~tests.netlist.reference_optimizer.ReferenceOptimizer` keeps the
strash -> balance -> strash pipeline as it was before its passes went
list-based.  Every check here compares the two outputs field for field:
structure digest (gate list, ids, output ports), gate names, area, the
report's gate counts and passes, and the full
:class:`~repro.netlist.sta.TimingResult` including the key order of its
arrival dict.

The optimiser computes its last strash pass in closed form, so its output
must also be a strash fixpoint: the reference strash pass over it returns
it gate for gate.  And its passes handle the common gates inline, so one
netlist per ``_simplify`` rule family drives every fallback of those fast
paths against the reference.
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
    _cases,
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


def gate_list(netlist: Netlist) -> tuple:
    """Kinds, operands, names and output ports: the gate-for-gate identity."""
    return netlist.kinds, netlist.operands, netlist.names, netlist.outputs()


def without_outputs(netlist: Netlist) -> Netlist:
    """A copy of ``netlist`` with no output ports (so never pruned)."""
    return Netlist.from_lists(netlist.name, list(netlist.kinds),
                              list(netlist.operands), list(netlist.names), [])


def is_strash_fixpoint(netlist: Netlist) -> bool:
    """Whether the reference strash pass returns the optimiser's output of
    ``netlist`` unchanged, gate for gate."""
    optimized, _ = LogicOptimizer(_LIBRARY).optimize(netlist)
    again = ReferenceOptimizer(_LIBRARY)._strash_pass(optimized)
    return gate_list(again) == gate_list(optimized)


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


@settings(max_examples=200, deadline=None)
@given(netlist=random_netlists())
def test_random_outputs_are_strash_fixpoints(netlist):
    assert is_strash_fixpoint(netlist)
    assert is_strash_fixpoint(without_outputs(netlist))


@pytest.mark.parametrize("label, operator, width", BUILDER_BLOCKS)
def test_builder_blocks_match_reference(label, operator, width):
    netlist = lower_graph(_builder_graph(operator, width)).netlist
    assert_matches_reference(netlist)
    assert_matches_reference(without_outputs(netlist))


@pytest.mark.parametrize("outputs", [True, False],
                         ids=["with_outputs", "without_outputs"])
def test_golden_outputs_are_strash_fixpoints(outputs):
    """Every golden case: the closed-form last pass equals a full one."""
    mismatched = [label for label, netlist in _cases().items()
                  if not is_strash_fixpoint(
                      netlist if outputs else without_outputs(netlist))]
    assert not mismatched, f"not a strash fixpoint on {mismatched}"


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
    """One netlist with each logic kind, duplicate operands, reversed
    operands and dead inputs."""
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
    # Operands in descending id order (non-commutative kinds keep it).
    outputs += [netlist.add_gate(kind, (c, b, a)[:kind.num_inputs])
                for kind in _LOGIC_KINDS]
    for output in outputs + outputs[:3]:
        netlist.mark_output(output)
    assert_matches_reference(netlist)
    assert_matches_reference(netlist, balance=False)


# ------------------------------------------------- fast-path fallbacks

_TWO_INPUT_KINDS = [kind for kind in _LOGIC_KINDS if kind.num_inputs == 2]


def _constant_operands(netlist: Netlist, a: int, b: int) -> list[int]:
    """Tie cells in every operand position, plus a constant made by folding."""
    zero, one = netlist.add_constant(0), netlist.add_constant(1)
    gates = []
    for kind in _TWO_INPUT_KINDS:
        for constant in (zero, one):
            gates.append(netlist.add_gate(kind, (a, constant)))
            gates.append(netlist.add_gate(kind, (constant, a)))
        gates.append(netlist.add_gate(kind, (zero, one)))
    gates += [netlist.add_gate(GateKind.INV, (zero,)),
              netlist.add_gate(GateKind.BUF, (one,))]
    for operands in ((zero, a, b), (one, a, b), (a, one, zero), (a, zero, one),
                     (a, zero, b), (a, b, one), (zero, one, one)):
        gates.append(netlist.add_gate(GateKind.MUX2, operands))
    for operands in ((a, b, zero), (one, a, b), (a, one, b), (zero, one, one)):
        gates.append(netlist.add_gate(GateKind.MAJ3, operands))
    folded = netlist.add_gate(GateKind.AND2, (a, zero))  # becomes tie-0
    gates += [netlist.add_gate(kind, (b, folded)) for kind in _TWO_INPUT_KINDS]
    gates.append(netlist.add_gate(GateKind.MAJ3, (a, folded, b)))
    return gates


def _equal_operands(netlist: Netlist, a: int, b: int) -> list[int]:
    """``kind(x, x)`` for every two-input kind, given and made by hashing."""
    first = netlist.add_gate(GateKind.XOR2, (a, b))
    again = netlist.add_gate(GateKind.XOR2, (b, a))  # hashes onto ``first``
    gates = []
    for kind in _TWO_INPUT_KINDS:
        gates.append(netlist.add_gate(kind, (a, a)))
        gates.append(netlist.add_gate(kind, (first, again)))
    return gates


def _double_inverters(netlist: Netlist, a: int, b: int) -> list[int]:
    """``INV(INV x)``, a triple inverter and ``INV`` over ``NAND2(x, x)``."""
    once = netlist.add_gate(GateKind.INV, (a,))
    twice = netlist.add_gate(GateKind.INV, (once,))
    thrice = netlist.add_gate(GateKind.INV, (twice,))
    nand = netlist.add_gate(GateKind.NAND2, (b, b))  # becomes INV(b)
    return [twice, thrice, netlist.add_gate(GateKind.AND2, (twice, b)),
            netlist.add_gate(GateKind.INV, (nand,))]


def _majority_repeats(netlist: Netlist, a: int, b: int) -> list[int]:
    """``MAJ3`` with a repeated operand in each position, and a constant."""
    first = netlist.add_gate(GateKind.OR2, (a, b))
    again = netlist.add_gate(GateKind.OR2, (b, a))  # hashes onto ``first``
    zero = netlist.add_constant(0)
    return [netlist.add_gate(GateKind.MAJ3, operands) for operands in (
        (a, a, b), (a, b, a), (b, a, a), (first, b, again),
        (a, b, zero), (zero, a, b))]


def _mux_repeats(netlist: Netlist, a: int, b: int) -> list[int]:
    """``MUX2`` with equal data inputs (given and made by hashing)."""
    first = netlist.add_gate(GateKind.AND2, (a, b))
    again = netlist.add_gate(GateKind.AND2, (b, a))  # hashes onto ``first``
    return [netlist.add_gate(GateKind.MUX2, operands) for operands in (
        (a, b, b), (b, first, again), (a, a, b), (a, b, a))]


def _repeated_tree_leaves(netlist: Netlist, a: int, b: int) -> list[int]:
    """``op(op(x, y), x)`` trees: balance merges the two ``x`` leaves first
    (``y`` arrives later), reaching ``x == x`` and, for XOR, a tie cell."""
    late = netlist.add_gate(GateKind.XNOR2, (a, b))
    late = netlist.add_gate(GateKind.NAND2, (late, b))
    roots = []
    for kind in (GateKind.AND2, GateKind.OR2, GateKind.XOR2):
        inner = netlist.add_gate(kind, (a, late))
        roots.append(netlist.add_gate(kind, (inner, a)))
    return roots


_FALLBACK_FAMILIES = {
    "constant_operands": _constant_operands,
    "equal_operands": _equal_operands,
    "double_inverters": _double_inverters,
    "majority_repeats": _majority_repeats,
    "mux_repeats": _mux_repeats,
    "repeated_tree_leaves": _repeated_tree_leaves,
}


@pytest.mark.parametrize("balance", [True, False],
                         ids=["balance", "no_balance"])
@pytest.mark.parametrize("family", sorted(_FALLBACK_FAMILIES))
def test_fast_path_fallbacks_match_reference(family, balance):
    """One netlist per ``_simplify`` rule family, each rule reached with
    operands the fast paths must hand to ``_Rewriter.emit``."""
    netlist = Netlist(family)
    a, b = netlist.add_input("a"), netlist.add_input("b")
    for output in _FALLBACK_FAMILIES[family](netlist, a, b):
        netlist.mark_output(output)
    assert_matches_reference(netlist, balance)
    assert_matches_reference(without_outputs(netlist), balance)
