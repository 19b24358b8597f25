"""Seeded pipelined-loop benchmark generator (the ``loop:`` design tier).

Mirrors the feed-forward ``gen:`` tier in :mod:`repro.designs.generator`:
a :class:`LoopParams` value is the *name* (every parameter is encoded in
the canonical ``loop:`` string, so campaign workers can re-build the exact
design from the job's design name alone), and the build is deterministic
in the seed.

The shape is a pipelined reduction loop: ``num_phis`` loop-carried
accumulators are initialised from the primary inputs, a ``depth``-layer
random operation body mixes the accumulators with streaming inputs, and
each accumulator's back-edge closes from a distinct node of the last
layer with a seeded iteration distance in ``1..max_distance``.  Larger
depths produce longer recurrences and therefore larger minimum IIs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

from repro.designs.suite import BenchmarkCase
from repro.ir.builder import GraphBuilder
from repro.ir.graph import DataflowGraph
from repro.ir.node import Node

LOOP_PREFIX = "loop:"

_BODY_OPS = ("add", "sub", "xor", "and", "or", "select")


@dataclass(frozen=True)
class LoopParams:
    """Shape parameters of one generated pipelined-loop design.

    Attributes:
        seed: RNG seed; the only source of randomness.
        depth: operation layers in the loop body.
        width: operations per layer.
        bit_width: word width of every value.
        num_inputs: streaming primary inputs feeding the body.
        num_phis: loop-carried accumulators.
        max_distance: back-edge distances are drawn from ``1..max_distance``.
        clock_period_ps: target clock period of the resulting benchmark case.
    """

    seed: int = 0
    depth: int = 4
    width: int = 3
    bit_width: int = 16
    num_inputs: int = 2
    num_phis: int = 2
    max_distance: int = 1
    clock_period_ps: float = 2500.0

    def __post_init__(self) -> None:
        if self.depth < 1 or self.width < 1:
            raise ValueError("depth and width must be at least 1")
        if self.bit_width < 2 or self.num_inputs < 1:
            raise ValueError("bit_width must be >= 2 and num_inputs >= 1")
        if self.num_phis < 1 or self.num_phis > self.width:
            raise ValueError("num_phis must be in 1..width")
        if self.max_distance < 1:
            raise ValueError("max_distance must be at least 1")
        if not 0 < self.clock_period_ps < math.inf:
            raise ValueError("clock_period_ps must be positive and finite")

    @property
    def name(self) -> str:
        """Canonical ``loop:`` registry name encoding every parameter."""
        return (f"{LOOP_PREFIX}seed={self.seed},depth={self.depth},"
                f"width={self.width},bits={self.bit_width},"
                f"inputs={self.num_inputs},phis={self.num_phis},"
                f"dist={self.max_distance},clock={self.clock_period_ps:g}")

    @classmethod
    def from_name(cls, name: str) -> "LoopParams":
        """Parse a canonical ``loop:`` name back into parameters.

        Raises:
            ValueError: if the name is not a well-formed ``loop:`` spec.
        """
        if not name.startswith(LOOP_PREFIX):
            raise ValueError(f"not a loop-design name: {name!r}")
        fields: dict[str, str] = {}
        for part in name[len(LOOP_PREFIX):].split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"malformed loop-design field {part!r}")
            fields[key] = value
        try:
            return cls(seed=int(fields["seed"]), depth=int(fields["depth"]),
                       width=int(fields["width"]),
                       bit_width=int(fields["bits"]),
                       num_inputs=int(fields["inputs"]),
                       num_phis=int(fields["phis"]),
                       max_distance=int(fields.get("dist", 1)),
                       clock_period_ps=float(fields.get("clock", 2500.0)))
        except (KeyError, ValueError) as error:
            raise ValueError(f"malformed loop-design name {name!r}: {error}")


def build_loop_design(params: LoopParams) -> DataflowGraph:
    """Build the deterministic pipelined-loop DFG described by ``params``."""
    rng = random.Random(params.seed)
    builder = GraphBuilder(params.name)
    bits = params.bit_width

    inputs = [builder.param(f"in{i}", bits) for i in range(params.num_inputs)]
    phis = [builder.phi(inputs[i % params.num_inputs], name=f"acc{i}")
            for i in range(params.num_phis)]

    layers: list[list[Node]] = [phis + inputs]
    for level in range(params.depth):
        pool = layers[-1] + (phis if level else [])
        current: list[Node] = []
        for position in range(params.width):
            op = rng.choice(_BODY_OPS)
            a = rng.choice(pool)
            b = rng.choice(pool)
            tag = f"l{level}_n{position}"
            if op == "add":
                value = builder.add(a, b, name=tag)
            elif op == "sub":
                value = builder.sub(a, b, name=tag)
            elif op == "xor":
                value = builder.xor(a, b, name=tag)
            elif op == "and":
                value = builder.and_(a, b, name=tag)
            elif op == "or":
                value = builder.or_(a, b, name=tag)
            else:  # select: compare + mux pair
                cond = builder.ugt(a, b, name=f"{tag}_cmp")
                value = builder.select(cond, a, b, name=tag)
            current.append(value)
        layers.append(current)

    # Close each accumulator's recurrence from a distinct last-layer node
    # (cycling when there are more phis than layer positions).
    last = layers[-1]
    for index, phi in enumerate(phis):
        src = last[index % len(last)]
        distance = rng.randint(1, params.max_distance)
        builder.back_edge(phi, src, distance)

    # Every sink becomes a primary output so no body logic is dead.
    for node in builder.graph.nodes():
        if not node.is_source and not builder.graph.users_of(node.node_id):
            builder.output(node, name=f"out_{node.name or node.node_id}")
    return builder.graph


def loop_case(params: LoopParams) -> BenchmarkCase:
    """Wrap a parameter set as a :class:`BenchmarkCase` (Table-I compatible)."""
    return BenchmarkCase(params.name, params.clock_period_ps,
                         partial(build_loop_design, params), "small")


def loop_suite(count: int = 3, seed: int = 0, depth: int = 4, width: int = 3,
               max_distance: int = 2) -> list[BenchmarkCase]:
    """A family of ``count`` loop designs with consecutive seeds."""
    return [loop_case(LoopParams(seed=seed + offset, depth=depth, width=width,
                                 max_distance=max_distance))
            for offset in range(count)]


__all__ = [
    "LOOP_PREFIX",
    "LoopParams",
    "build_loop_design",
    "loop_case",
    "loop_suite",
]
