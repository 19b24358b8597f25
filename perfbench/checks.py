"""Answer checks written independently of the scheduler under test.

The rules restated here are the definitions the scheduler must meet, read
straight off the dataflow graph (operands, widths, opcodes) rather than
from the scheduler's own helpers: every operand is available no later
than the stage that consumes it, and a value produced in stage ``p`` and
last consumed in stage ``q`` costs its bit width at each of the ``q - p``
stage boundaries, plus one output flop for every non-source value nobody
consumes.  Constants never occupy registers.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def schedule_errors(graph, stages: dict[int, int]) -> list[str]:
    """Dependency-order violations and unscheduled nodes of ``stages``."""
    errors: list[str] = []
    for node in graph.nodes():
        if node.node_id not in stages:
            errors.append(f"node {node.node_id} is not scheduled")
            continue
        for operand in node.operands:
            if stages.get(operand, -1) > stages[node.node_id]:
                errors.append(f"node {node.node_id} (stage "
                              f"{stages[node.node_id]}) reads node {operand} "
                              f"from a later stage {stages.get(operand)}")
    return errors


def register_bits(graph, stages: dict[int, int]) -> int:
    """Pipeline register bits implied by ``stages`` (see module docstring)."""
    last_use: dict[int, int] = {}
    for node in graph.nodes():
        for operand in node.operands:
            last_use[operand] = max(last_use.get(operand, -1),
                                    stages[node.node_id])
    bits = 0
    for node in graph.nodes():
        if node.kind.value == "constant":
            continue
        if node.node_id in last_use:
            bits += node.width * max(0, last_use[node.node_id]
                                     - stages[node.node_id])
        elif not node.kind.is_source:
            bits += node.width
    return bits
