"""Word-level operator delay/area model.

This is the "operations pre-characterised in isolation" model that classical
SDC scheduling (and XLS) uses: each opcode gets a delay that depends only on
its own bit width, derived from the architecture the gate-level lowering
uses (ripple-carry adders, array multipliers, barrel shifters, balanced gate
trees).  A configurable pessimism margin models the characterisation guard
band that real flows apply.

The gap between this model and the post-synthesis STA of *chained* operations
(where carry chains overlap and the logic optimiser restructures trees) is the
unused slack ISDC recovers (paper Fig. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ir.node import Node
from repro.ir.ops import OpKind
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library


def _clog2(value: int) -> int:
    if value <= 1:
        return 0
    return math.ceil(math.log2(value))


@dataclass(frozen=True)
class OperatorTiming:
    """Delay and register cost of one word-level operation instance.

    Attributes:
        delay_ps: isolated combinational delay estimate in picoseconds.
        register_bits: number of flip-flops needed to register the result.
    """

    delay_ps: float
    register_bits: int


class OperatorModel:
    """Closed-form per-operation delay model.

    Args:
        library: cell library supplying the underlying gate delays.
        pessimism: multiplicative guard band applied to every estimate
            (1.0 = none).  Real characterisation flows add margin for wire
            load and process variation; 1.1 is a realistic default.
    """

    def __init__(self, library: TechLibrary | None = None,
                 pessimism: float = 1.1) -> None:
        self.library = library or sky130_library()
        if pessimism < 1.0:
            raise ValueError(f"pessimism must be >= 1.0, got {pessimism}")
        self.pessimism = pessimism

    # ------------------------------------------------------------------ delay

    def delay(self, kind: OpKind, width: int, num_operands: int = 2) -> float:
        """Isolated delay estimate (ps) of ``kind`` at ``width`` bits."""
        return self._raw_delay(kind, width, num_operands) * self.pessimism

    def node_delay(self, node: Node) -> float:
        """Isolated delay estimate of a concrete IR node."""
        return self.delay(node.kind, node.width, max(2, len(node.operands)))

    def _raw_delay(self, kind: OpKind, width: int, num_operands: int) -> float:
        lib = self.library
        xor2 = lib.delay("xor2")
        and2 = lib.delay("and2")
        or2 = lib.delay("or2")
        inv = lib.delay("inv")
        mux2 = lib.delay("mux2")
        maj3 = lib.delay("maj3")

        if kind.is_free:
            return 0.0

        if kind in (OpKind.ADD,):
            # Ripple-carry: sum-XOR + (width-1) carry stages + final sum-XOR.
            return 2 * xor2 + max(0, width - 1) * maj3
        if kind in (OpKind.SUB, OpKind.NEG):
            return inv + 2 * xor2 + max(0, width - 1) * maj3
        if kind is OpKind.MUL:
            # Array multiplier: partial-product AND, then ~2*width carry-save
            # and ripple stages.
            return and2 + (2 * width - 2) * maj3 + xor2
        if kind is OpKind.MULADD:
            return and2 + (2 * width - 1) * maj3 + xor2
        if kind in (OpKind.UDIV, OpKind.UMOD):
            # Restoring array divider: width rows of width-bit subtract/select.
            row = 2 * xor2 + max(0, width - 1) * maj3 + mux2
            return width * row

        if kind in (OpKind.AND, OpKind.OR, OpKind.XOR):
            per_level = {OpKind.AND: and2, OpKind.OR: or2, OpKind.XOR: xor2}[kind]
            levels = max(1, _clog2(max(2, num_operands)))
            return per_level * levels
        if kind is OpKind.NOT:
            return inv
        if kind is OpKind.ANDN:
            return lib.delay("andn2")

        if kind in (OpKind.AND_REDUCE, OpKind.OR_REDUCE, OpKind.XOR_REDUCE):
            per_level = {OpKind.AND_REDUCE: and2, OpKind.OR_REDUCE: or2,
                         OpKind.XOR_REDUCE: xor2}[kind]
            return per_level * max(1, _clog2(width))

        if kind in (OpKind.SHL, OpKind.SHRL, OpKind.SHRA, OpKind.ROTL, OpKind.ROTR):
            # Barrel shifter: one mux level per shift-amount bit.
            return mux2 * max(1, _clog2(width))

        if kind in (OpKind.EQ, OpKind.NE):
            return xor2 + or2 * max(1, _clog2(width)) + (inv if kind is OpKind.EQ else 0.0)
        if kind.is_comparison:
            # Magnitude compare: borrow chain comparable to a subtractor.
            return xor2 + max(0, width - 1) * maj3

        if kind is OpKind.SEL:
            return mux2
        if kind is OpKind.CLZ:
            return (or2 + mux2) * max(1, _clog2(width))
        if kind is OpKind.POPCOUNT:
            return (2 * xor2 + maj3) * max(1, _clog2(width))
        if kind is OpKind.OUTPUT:
            return 0.0
        raise ValueError(f"no delay model for opcode {kind.value}")

    # --------------------------------------------------------------- register

    def register_bits(self, node: Node) -> int:
        """Flip-flops needed to register the result of ``node``."""
        return node.width

    def timing(self, node: Node) -> OperatorTiming:
        """Bundle delay and register cost of ``node``."""
        return OperatorTiming(delay_ps=self.node_delay(node),
                              register_bits=self.register_bits(node))
