"""Seeded parametric design generator for scenario sweeps.

The Table-I suite pins down the paper's 17 rows; campaigns need *scenario
diversity* beyond them.  This module grows random-but-reproducible dataflow
graphs with controllable shape:

* ``depth``/``width`` -- number of operation layers and operations per layer;
* ``fanout`` -- how far back an operand may reach (1 = strictly layered
  chains, larger values create long skip connections and wide fanout);
* ``op_mix`` -- weighted opcode distribution (adders vs. multipliers vs.
  logic vs. compare/select).

Everything derives from ``random.Random(seed)``, which is independent of
``PYTHONHASHSEED``: the same :class:`GeneratorParams` always build the same
graph, across interpreter runs and across worker processes.  Generated
designs register alongside the Table-I suite through the ``gen:`` name
scheme (:func:`case_from_name`), so campaign jobs can ship them to workers
by name exactly like registry benchmarks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

from repro.designs.suite import BenchmarkCase, suite_by_name
from repro.ir.builder import GraphBuilder
from repro.ir.graph import DataflowGraph
from repro.ir.node import Node

GENERATED_PREFIX = "gen:"

#: Opcode weights of the default mix.  ``select`` emits a compare + select
#: pair; ``rotr`` rotates by a seeded constant amount.
DEFAULT_OP_MIX: tuple[tuple[str, int], ...] = (
    ("add", 4), ("sub", 2), ("xor", 3), ("and", 2), ("or", 2),
    ("mul", 1), ("rotr", 1), ("select", 1),
)

_KNOWN_OPS = frozenset(op for op, _ in DEFAULT_OP_MIX)

#: Multiplier-free mix used by the scale benchmarks: keeps per-node delays
#: (and, where lowering happens at all, gate counts) small enough that design
#: size is the only variable across a ladder.
LEAN_OP_MIX: tuple[tuple[str, int], ...] = (
    ("add", 4), ("sub", 2), ("xor", 3), ("and", 2), ("or", 2), ("rotr", 1),
)


@dataclass(frozen=True)
class GeneratorParams:
    """Shape parameters of one generated design.

    Attributes:
        seed: RNG seed; the only source of randomness.
        depth: number of operation layers.
        width: operations per layer.
        fanout: how many preceding layers an operand may be drawn from
            (1 = the previous layer only).
        bit_width: word width of every value.
        num_inputs: primary inputs feeding layer 0.
        op_mix: ``(opcode, weight)`` pairs; opcodes from
            ``add/sub/xor/and/or/mul/rotr/select``.
        clock_period_ps: target clock period of the resulting benchmark case.
    """

    seed: int = 0
    depth: int = 6
    width: int = 4
    fanout: int = 2
    bit_width: int = 16
    num_inputs: int = 4
    op_mix: tuple[tuple[str, int], ...] = field(default=DEFAULT_OP_MIX)
    clock_period_ps: float = 2500.0

    def __post_init__(self) -> None:
        if self.depth < 1 or self.width < 1:
            raise ValueError("depth and width must be at least 1")
        if self.fanout < 1:
            raise ValueError("fanout must be at least 1")
        if self.bit_width < 2 or self.num_inputs < 1:
            raise ValueError("bit_width must be >= 2 and num_inputs >= 1")
        if not 0 < self.clock_period_ps < math.inf:
            raise ValueError("clock_period_ps must be positive and finite")
        unknown = {op for op, _ in self.op_mix} - _KNOWN_OPS
        if unknown:
            raise ValueError(f"unknown opcodes in op_mix: {sorted(unknown)}")
        if not self.op_mix or all(weight <= 0 for _, weight in self.op_mix):
            raise ValueError("op_mix needs at least one positive weight")

    @property
    def name(self) -> str:
        """Canonical ``gen:`` registry name encoding every parameter."""
        mix = "+".join(f"{op}{weight}" for op, weight in self.op_mix)
        return (f"{GENERATED_PREFIX}seed={self.seed},depth={self.depth},"
                f"width={self.width},fanout={self.fanout},"
                f"bits={self.bit_width},inputs={self.num_inputs},"
                f"clock={self.clock_period_ps:g},mix={mix}")

    @classmethod
    def from_name(cls, name: str) -> "GeneratorParams":
        """Parse a canonical ``gen:`` name back into parameters.

        Raises:
            ValueError: if the name is not a well-formed ``gen:`` spec.
        """
        if not name.startswith(GENERATED_PREFIX):
            raise ValueError(f"not a generated-design name: {name!r}")
        fields: dict[str, str] = {}
        for part in name[len(GENERATED_PREFIX):].split(","):
            key, _, value = part.partition("=")
            if not value:
                raise ValueError(f"malformed generated-design field {part!r}")
            fields[key] = value
        try:
            mix = tuple(
                (entry.rstrip("0123456789"),
                 int(entry[len(entry.rstrip("0123456789")):]))
                for entry in fields["mix"].split("+")) \
                if "mix" in fields else DEFAULT_OP_MIX
            return cls(seed=int(fields["seed"]), depth=int(fields["depth"]),
                       width=int(fields["width"]), fanout=int(fields["fanout"]),
                       bit_width=int(fields["bits"]),
                       num_inputs=int(fields["inputs"]),
                       clock_period_ps=float(fields.get("clock", 2500.0)),
                       op_mix=mix)
        except (KeyError, ValueError) as error:
            raise ValueError(f"malformed generated-design name {name!r}: {error}")


def build_generated_design(params: GeneratorParams) -> DataflowGraph:
    """Build the deterministic random DFG described by ``params``."""
    rng = random.Random(params.seed)
    builder = GraphBuilder(params.name)
    bits = params.bit_width

    layers: list[list[Node]] = [[builder.param(f"in{i}", bits)
                                 for i in range(params.num_inputs)]]
    ops = [op for op, _ in params.op_mix]
    weights = [weight for _, weight in params.op_mix]

    for level in range(params.depth):
        pool: list[Node] = []
        for back in range(1, min(params.fanout, len(layers)) + 1):
            pool.extend(layers[-back])
        current: list[Node] = []
        for position in range(params.width):
            op = rng.choices(ops, weights=weights)[0]
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
            elif op == "mul":
                value = builder.mul(a, b, name=tag, width=bits)
            elif op == "rotr":
                amount = rng.randrange(1, bits)
                value = builder.rotr_const(a, amount, name=tag)
            else:  # select: compare + mux pair
                cond = builder.ugt(a, b, name=f"{tag}_cmp")
                value = builder.select(cond, a, b, name=tag)
            current.append(value)
        layers.append(current)

    # Every sink value becomes a primary output, so no generated logic is
    # dead and the whole graph participates in scheduling.
    for node in builder.graph.nodes():
        if not node.is_source and not builder.graph.users_of(node.node_id):
            builder.output(node, name=f"out_{node.name or node.node_id}")
    return builder.graph


def scale_of(params: GeneratorParams) -> str:
    """Size class of a parameter set, from the operation-count estimate.

    ``depth * width`` is the number of layer positions; ``select`` positions
    emit two nodes, so the estimate is a floor, which is the right bias for
    picking tractable pytest subsets.
    """
    operations = params.depth * params.width
    if operations >= 10_000:
        return "huge"
    if operations >= 2_000:
        return "large"
    if operations >= 500:
        return "medium"
    return "small"


def generated_case(params: GeneratorParams) -> BenchmarkCase:
    """Wrap a parameter set as a :class:`BenchmarkCase` (Table-I compatible)."""
    return BenchmarkCase(params.name, params.clock_period_ps,
                         partial(build_generated_design, params),
                         scale_of(params))


def generated_suite(count: int = 4, seed: int = 0, depth: int = 6,
                    width: int = 4, fanout: int = 2,
                    bit_width: int = 16) -> list[BenchmarkCase]:
    """A family of ``count`` generated designs with consecutive seeds."""
    return [generated_case(GeneratorParams(seed=seed + offset, depth=depth,
                                           width=width, fanout=fanout,
                                           bit_width=bit_width))
            for offset in range(count)]


def case_from_name(name: str) -> BenchmarkCase:
    """Resolve a design name: ``gen:``/``loop:`` spec, ``.ir`` file path,
    or Table-I registry row.

    This is the lookup campaign workers use to re-build designs shipped by
    name, so everything a job references must round-trip through it.

    Raises:
        KeyError: for an unknown Table-I name.
        ValueError: for a malformed ``gen:``/``loop:`` name or an
            unloadable ``.ir`` file.
    """
    if name.startswith(GENERATED_PREFIX):
        return generated_case(GeneratorParams.from_name(name))
    if name.startswith("loop:"):
        from repro.designs.loops import LoopParams, loop_case

        return loop_case(LoopParams.from_name(name))
    if name.endswith(".ir"):
        from repro.designs.ingest import ir_file_case

        return ir_file_case(name)
    return suite_by_name(name)


__all__ = [
    "DEFAULT_OP_MIX",
    "GENERATED_PREFIX",
    "GeneratorParams",
    "LEAN_OP_MIX",
    "build_generated_design",
    "case_from_name",
    "generated_case",
    "generated_suite",
    "scale_of",
]
