"""Bit-level netlist container."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.kernel import GraphView
from repro.netlist.gates import Gate, GateKind, GATE_FUNCTIONS
from repro.tech.library import TechLibrary


class Netlist:
    """A combinational gate-level netlist.

    The netlist is a DAG of :class:`~repro.netlist.gates.Gate` objects.  Nets
    are identified with the gate driving them (single-output gates), so "gate
    id" and "net id" are used interchangeably.

    Attributes:
        name: netlist name, propagated into timing reports.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._gates: dict[int, Gate] = {}
        self._fanout: dict[int, list[int]] = {}
        self._outputs: list[int] = []
        self._next_id = 0
        self._version = 0
        self._num_logic = 0

    @property
    def structural_version(self) -> int:
        """Monotonic counter advanced on every structural edit.

        Keys the kernel's cached :class:`~repro.kernel.GraphView`: gate
        additions and removals invalidate the view (the next query rebuilds
        it), output marking and renames (which do not change connectivity or
        levels) do not.
        """
        return self._version

    # ------------------------------------------------------------------ build

    def add_gate(self, kind: GateKind, inputs: Iterable[int] = (),
                 name: str = "") -> int:
        """Add a gate and return its id.

        Raises:
            KeyError: if an input gate id does not exist.
            ValueError: if the input count does not match the gate kind.
        """
        input_ids = tuple(inputs)
        if len(input_ids) != kind.num_inputs:
            raise ValueError(
                f"{kind.value} expects {kind.num_inputs} inputs, got {len(input_ids)}")
        for input_id in input_ids:
            if input_id not in self._gates:
                raise KeyError(f"input gate {input_id} not in netlist {self.name!r}")
        gate = Gate(self._next_id, kind, input_ids, name)
        self._gates[gate.gate_id] = gate
        self._fanout[gate.gate_id] = []
        for input_id in input_ids:
            self._fanout[input_id].append(gate.gate_id)
        self._next_id += 1
        self._version += 1
        if not kind.is_source:
            self._num_logic += 1
        return gate.gate_id

    def remove_gate(self, gate_id: int) -> None:
        """Remove a gate with no fanout that is not a primary output.

        The restriction mirrors :meth:`~repro.ir.graph.DataflowGraph.
        remove_node`: user-free removals keep every surviving gate's input
        list valid.

        Raises:
            KeyError: if ``gate_id`` is not in the netlist.
            ValueError: if the gate drives other gates or an output port.
        """
        gate = self._gates.get(gate_id)
        if gate is None:
            raise KeyError(f"gate {gate_id} not in netlist {self.name!r}")
        if self._fanout[gate_id]:
            raise ValueError(
                f"gate {gate_id} still drives {self._fanout[gate_id]} in "
                f"netlist {self.name!r}; remove the loads first")
        if gate_id in self._outputs:
            raise ValueError(f"gate {gate_id} is a primary output of "
                             f"netlist {self.name!r}")
        del self._gates[gate_id]
        del self._fanout[gate_id]
        for input_id in set(gate.inputs):
            self._fanout[input_id] = [g for g in self._fanout[input_id]
                                      if g != gate_id]
        self._version += 1
        if not gate.kind.is_source:
            self._num_logic -= 1

    def add_input(self, name: str = "") -> int:
        """Add a primary-input gate."""
        return self.add_gate(GateKind.INPUT, (), name)

    def add_constant(self, value: int, name: str = "") -> int:
        """Add a tie-0/tie-1 gate for the given bit value."""
        kind = GateKind.CONST1 if value else GateKind.CONST0
        return self.add_gate(kind, (), name)

    def mark_output(self, gate_id: int) -> None:
        """Mark ``gate_id`` as a primary output.

        The same gate may be marked several times: each call adds one output
        *port*, and ports keep their positions across optimisation rebuilds,
        which is what functional-equivalence checks rely on.
        """
        if gate_id not in self._gates:
            raise KeyError(f"gate {gate_id} not in netlist {self.name!r}")
        self._outputs.append(gate_id)

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, gate_id: int) -> bool:
        return gate_id in self._gates

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def gate(self, gate_id: int) -> Gate:
        return self._gates[gate_id]

    def gates(self) -> list[Gate]:
        """All gates in ascending id order."""
        return [self._gates[i] for i in sorted(self._gates)]

    def gate_ids(self) -> list[int]:
        return sorted(self._gates)

    def fanout(self, gate_id: int) -> list[int]:
        """Gates driven by ``gate_id``."""
        return list(self._fanout[gate_id])

    def outputs(self) -> list[int]:
        """Primary-output gate ids, in registration order."""
        return list(self._outputs)

    def inputs(self) -> list[int]:
        """Primary-input gate ids in ascending order."""
        return [g.gate_id for g in self.gates() if g.kind is GateKind.INPUT]

    def num_logic_gates(self) -> int:
        """Number of gates excluding primary inputs and tie cells."""
        return self._num_logic

    def kind_code_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(gate_ids, kind_codes)`` arrays in ascending gate-id order.

        ``kind_codes[i]`` is :data:`~repro.netlist.gates.KIND_CODES` of the
        gate with id ``gate_ids[i]``; both arrays are cached per structural
        version (do not mutate them).  Vectorized consumers -- the STA delay
        vector in particular -- gather per-kind tables through these instead
        of touching one :class:`Gate` object per gate per run.
        """
        cached = getattr(self, "_kind_code_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1], cached[2]
        ids = np.fromiter(sorted(self._gates), dtype=np.int64,
                          count=len(self._gates))
        codes = np.fromiter((self._gates[gid].kind.code for gid in ids),
                            dtype=np.int64, count=ids.size)
        self._kind_code_cache = (self._version, ids, codes)
        return ids, codes

    # -------------------------------------------------------------- analysis

    def topological_order(self) -> list[int]:
        """Gate ids in topological order (drivers before loads).

        Delegates to the cached kernel :class:`~repro.kernel.GraphView`, so
        the order (the historical deterministic Kahn order) is computed once
        per structural version and shared with the STA engine.

        Raises:
            ValueError: if the netlist contains a combinational cycle.
        """
        return GraphView.from_netlist(self).order_ids()

    def area(self, library: TechLibrary) -> float:
        """Total cell area of the netlist in square micrometres."""
        total = 0.0
        for gate in self._gates.values():
            cell = gate.kind.cell_name
            if cell is not None:
                total += library.area(cell)
        return total

    def simulate(self, input_values: dict[int, int]) -> dict[int, int]:
        """Evaluate every gate for the given primary-input bit values.

        Args:
            input_values: mapping from primary-input gate id to 0/1.

        Returns:
            Mapping from gate id to its evaluated bit, for every gate.

        Raises:
            KeyError: if a primary input is missing from ``input_values``.
        """
        values: dict[int, int] = {}
        for gid in self.topological_order():
            gate = self._gates[gid]
            if gate.kind is GateKind.INPUT:
                values[gid] = input_values[gid] & 1
            else:
                operand_bits = tuple(values[i] for i in gate.inputs)
                values[gid] = GATE_FUNCTIONS[gate.kind](operand_bits)
        return values

    def copy(self, name: str | None = None) -> "Netlist":
        """Deep-copy the netlist."""
        clone = Netlist(name or self.name)
        clone._next_id = self._next_id
        for gid, gate in self._gates.items():
            clone._gates[gid] = Gate(gate.gate_id, gate.kind, gate.inputs, gate.name)
        clone._fanout = {k: list(v) for k, v in self._fanout.items()}
        clone._outputs = list(self._outputs)
        clone._num_logic = self._num_logic
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.name!r}, {len(self)} gates)"
