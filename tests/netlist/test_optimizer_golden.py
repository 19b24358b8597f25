"""Golden fingerprints of the logic optimiser's output netlists.

Every case lowers a block -- one pipeline stage of a Table-I design's
baseline SDC schedule, or a small builder-made graph -- runs
:class:`~repro.netlist.optimizer.LogicOptimizer` on it and records the
optimised netlist's logic-gate count, area, critical-path delay and a
sha256 over its ``(kind, inputs)`` gate list (ascending id order) and
output ports.  The committed values pin the optimiser gate for gate and id
for id, so a rewrite of its passes or of the netlist container that moves
any gate, id or port shows up here even when delays happen to survive it.
The same cases also check two facts the optimiser is built on: its output
ids are their own Kahn order, and the timing its report carries equals a
full STA of the output netlist.  A third, that its Kahn order of a lowered
netlist is the historical one, is checked on every whole Table-I design.

Regenerate the file (only for a deliberate change of optimiser output)
with::

    PYTHONPATH=src python tests/netlist/test_optimizer_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.designs.suite import table1_suite
from repro.ir.builder import GraphBuilder
from repro.netlist.gates import GateKind
from repro.netlist.lowering import lower_graph, lower_subgraph
from repro.netlist.netlist import Netlist
from repro.netlist.optimizer import LogicOptimizer, _kahn_order_numbered
from repro.netlist.sta import StaticTimingAnalysis
from repro.sdc.scheduler import SdcScheduler
from repro.tech.delay_model import OperatorModel
from repro.tech.sky130 import sky130_library

from tests.kernel.reference import (netlist_adjacency,
                                    reference_topological_order)

GOLDEN_PATH = Path(__file__).with_name("optimizer_golden.json")

#: Builder-made blocks: (label, operator, operand width).
BUILDER_BLOCKS = (("add8", "add", 8), ("sub8", "sub", 8), ("mul6", "mul", 6),
                  ("xor8", "xor", 8), ("ult8", "ult", 8),
                  ("add_chain16", "add_chain", 16))


def _builder_graph(operator: str, width: int):
    builder = GraphBuilder(f"golden_{operator}{width}")
    x = builder.param("x", width)
    y = builder.param("y", width)
    if operator == "add_chain":
        builder.output(builder.add(builder.add(x, y), x))
    else:
        builder.output(getattr(builder, operator)(x, y))
    return builder.graph


def table1_stage_netlists(designs: tuple[str, ...] | None = None
                          ) -> dict[str, Netlist]:
    """Lowered stages of the Table-I rows' baseline schedules.

    Args:
        designs: the rows to lower, by name; every row when omitted.
    """
    library = sky130_library()
    netlists: dict[str, Netlist] = {}
    for case in table1_suite():
        if designs is not None and case.name not in designs:
            continue
        graph = case.build()
        scheduler = SdcScheduler(delay_model=OperatorModel(library),
                                 clock_period_ps=case.clock_period_ps)
        schedule = scheduler.schedule(graph).schedule
        for stage, node_ids in sorted(schedule.stage_node_map().items()):
            operations = [nid for nid in node_ids
                          if not graph.node(nid).is_source]
            if operations:
                name = f"{case.name}_stage{stage}"
                netlists[f"table1/{name}"] = lower_subgraph(
                    graph, operations, name=name).netlist
    return netlists


def _cases() -> dict[str, Netlist]:
    """Case label -> unoptimised netlist (built fresh on every call)."""
    cases = table1_stage_netlists()
    for label, operator, width in BUILDER_BLOCKS:
        cases[f"builder/{label}"] = lower_graph(
            _builder_graph(operator, width)).netlist
    return cases


def structure_digest(netlist: Netlist) -> str:
    """sha256 over the ``(kind, inputs)`` gate list and the output ports."""
    kinds = list(GateKind)
    payload = {
        "gates": [[gate_id, kinds[code].value, list(operands)]
                  for gate_id, (code, operands)
                  in enumerate(zip(netlist.kinds, netlist.operands))],
        "outputs": netlist.outputs(),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def fingerprint(netlist: Netlist) -> dict:
    """Golden fields of the optimised form of ``netlist``."""
    optimized, _ = LogicOptimizer(sky130_library()).optimize(netlist)
    return golden_fields(optimized)


def golden_fields(optimized: Netlist) -> dict:
    """Golden fields of an already optimised netlist."""
    library = sky130_library()
    timing = StaticTimingAnalysis(library).run(optimized)
    return {
        "gates": optimized.num_logic_gates(),
        "area_um2": optimized.area(library),
        "delay_ps": timing.critical_path_delay_ps,
        "digest": structure_digest(optimized),
    }


def _golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cases() -> dict[str, Netlist]:
    return _cases()


@pytest.fixture(scope="module")
def optimized(cases) -> dict[str, tuple]:
    """Case label -> ``(optimised netlist, report)``."""
    optimizer = LogicOptimizer(sky130_library())
    return {label: optimizer.optimize(netlist)
            for label, netlist in cases.items()}


def test_optimizer_matches_golden(optimized):
    golden = _golden()
    mismatched = [label for label, (netlist, _) in optimized.items()
                  if golden_fields(netlist) != golden[label]]
    assert not mismatched, f"optimiser output moved on {mismatched}"


def test_golden_covers_every_case(cases):
    assert sorted(_golden()) == sorted(cases)


def test_optimized_ids_are_their_kahn_order(optimized):
    """The optimiser relies on it: a pruned list is its own Kahn order."""
    mismatched = [label for label, (netlist, _) in optimized.items()
                  if _kahn_order_numbered(range(len(netlist)),
                                          netlist.operands)
                  != list(range(len(netlist)))]
    assert not mismatched, f"ids are not the Kahn order on {mismatched}"


@pytest.mark.parametrize("case", table1_suite(), ids=lambda case: case.name)
def test_lowered_kahn_order_matches_reference(case):
    """The optimiser's Kahn order of its input (the first pass's walk) is
    the historical Kahn order, on every lowered Table-I design."""
    netlist = lower_graph(case.build()).netlist
    assert (_kahn_order_numbered(range(len(netlist)), netlist.operands)
            == reference_topological_order(*netlist_adjacency(netlist)))


def test_report_timing_equals_sta_of_optimized(optimized):
    """The report's timing is a full STA of the returned netlist."""
    sta = StaticTimingAnalysis(sky130_library())
    mismatched = []
    for label, (netlist, report) in optimized.items():
        expected = sta.run(netlist)
        if (report.timing != expected
                or list(report.timing.arrival_times.items())
                != list(expected.arrival_times.items())):
            mismatched.append(label)
    assert not mismatched, f"report timing differs from STA on {mismatched}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_optimizer_golden.py --write")
    golden = {label: fingerprint(netlist)
              for label, netlist in sorted(_cases().items())}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN_PATH}")
