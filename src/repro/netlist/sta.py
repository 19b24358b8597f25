"""Static timing analysis over gate-level netlists.

This module is the stand-in for OpenSTA in the paper's flow.  The timing
model is a simple topological arrival-time propagation with per-cell
propagation delays from the technology library (no slew, no wire load); this
is the same level of abstraction the paper's per-operation characterisation
uses, so relative comparisons remain meaningful.

The propagation itself runs on the shared vectorized kernel
(:mod:`repro.kernel`): arrival times are one level-batched forward sweep over
the netlist's cached :class:`~repro.kernel.GraphView`, with the critical path
reconstructed from the kernel's predecessor choices (CSR tie-break order,
matching the historical ``max(gate.inputs, key=...)`` behaviour exactly).
Per-kind gate delays are resolved once per library into a lookup table
instead of hitting the library on every gate of every run.

The logic optimiser never builds a view to time its gate lists: its passes
emit plain lists whose ids are already the Kahn order, so
:func:`arrival_sweep` is one in-order pass over them and
:meth:`StaticTimingAnalysis.run_gate_list` returns the same
:class:`TimingResult` :meth:`~StaticTimingAnalysis.run` would give the
netlist built from the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.kernel import GraphView, forward_propagate, path_delay as _path_delay
from repro.kernel.ops import UNREACHED
from repro.netlist.gates import GateKind
from repro.netlist.netlist import Netlist
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library


@dataclass(frozen=True)
class TimingResult:
    """Result of one STA run.

    Attributes:
        critical_path_delay_ps: worst arrival time at any primary output (or
            at any gate, for netlists without marked outputs).
        critical_path: gate ids along the critical path, input to output.
        arrival_times: arrival time (ps) at every gate output.
        num_gates: number of logic gates analysed.
    """

    critical_path_delay_ps: float
    critical_path: tuple[int, ...]
    arrival_times: dict[int, float] = field(repr=False, default_factory=dict)
    num_gates: int = 0

    def arrival(self, gate_id: int) -> float:
        """Arrival time at a specific gate output."""
        return self.arrival_times[gate_id]


class StaticTimingAnalysis:
    """Arrival-time STA engine.

    Args:
        library: technology library supplying per-cell delays; defaults to the
            synthetic SKY130 library.
    """

    def __init__(self, library: TechLibrary | None = None) -> None:
        self.library = library or sky130_library()
        # One library lookup per GateKind for the engine's lifetime; every
        # run() indexes this table instead of calling into the library per
        # gate.
        self._kind_delays: dict[GateKind, float] = {
            kind: (0.0 if kind.cell_name is None
                   else float(self.library.delay(kind.cell_name)))
            for kind in GateKind
        }
        # The same table as a dense array over KIND_CODES, so run() builds
        # the per-gate delay vector as one gather instead of a Python loop.
        self._delay_table = np.asarray(
            [self._kind_delays[kind] for kind in GateKind], dtype=float)
        #: The table as a plain list, for the per-gate gate-list sweeps.
        self.code_delays: list[float] = self._delay_table.tolist()

    def gate_delay(self, kind: GateKind) -> float:
        """Propagation delay (ps) of a single gate of kind ``kind``."""
        return self._kind_delays[kind]

    def run(self, netlist: Netlist, endpoints: list[int] | None = None
            ) -> TimingResult:
        """Run STA on ``netlist``.

        Args:
            netlist: the netlist to analyse.
            endpoints: gate ids to treat as timing endpoints; defaults to the
                netlist's marked outputs, falling back to every gate.

        Returns:
            A :class:`TimingResult` with the worst endpoint arrival time and
            one critical path realising it.
        """
        view = GraphView.from_netlist(netlist)
        # Per-gate delays as one table gather: the netlist's cached kind-code
        # arrays are in ascending id order, searchsorted maps them onto the
        # view's topological order.
        gate_ids, kind_codes = netlist.kind_code_arrays()
        order = np.asarray(view.order_ids(), dtype=np.int64)
        delays = self._delay_table[kind_codes[np.searchsorted(gate_ids, order)]]
        # Indegree-0 gates are seeded exogenously: primary inputs and tie
        # cells arrive at 0, any other input-less gate contributes its own
        # delay.  Everything else is one level-batched forward sweep.
        init = np.full(view.num_nodes, UNREACHED, dtype=float)
        no_inputs = view.pred_counts() == 0
        init[no_inputs] = np.where(view.source_mask[no_inputs], 0.0,
                                   delays[no_inputs])
        values, parents = forward_propagate(view, delays, init=init, tie="csr")
        arrival = dict(zip(view.order_ids(), values.tolist()))

        if endpoints is None:
            endpoints = netlist.outputs() or list(arrival)
        if not endpoints:
            return TimingResult(0.0, (), arrival, netlist.num_logic_gates())

        worst = max(endpoints, key=lambda e: arrival[e])
        path: list[int] = []
        cursor = view.index_of[worst]
        order = view.order_ids()
        while cursor >= 0:
            path.append(order[cursor])
            cursor = int(parents[cursor])
        path.reverse()
        return TimingResult(
            critical_path_delay_ps=arrival[worst],
            critical_path=tuple(path),
            arrival_times=arrival,
            num_gates=netlist.num_logic_gates(),
        )

    def run_gate_list(self, kind_codes: Sequence[int],
                      inputs: Sequence[tuple[int, ...]], outputs: list[int],
                      order: Sequence[int]) -> TimingResult:
        """:meth:`run` (default endpoints) over a plain gate list.

        Gate ``i`` has kind code ``kind_codes[i]`` and operands
        ``inputs[i]``, every operand numbered below its user.  ``order``
        is the list's deterministic Kahn order (the identity for every
        pruned list the optimiser's passes emit).  The result equals
        :meth:`run` on the netlist built from the list: the arrival dict is
        keyed in ``order``, the no-output endpoint fallback scans
        ``order``, and the critical path leaves each gate through its first
        operand at the maximum arrival, as the kernel's ``tie="csr"`` does.
        """
        arrival_list = arrival_sweep(kind_codes, inputs, self.code_delays)
        arrival = {gate_id: arrival_list[gate_id] for gate_id in order}
        num_gates = sum(1 for code in kind_codes if not _SOURCE_CODES[code])
        endpoints = outputs or list(arrival)
        if not endpoints:
            return TimingResult(0.0, (), arrival, num_gates)
        worst = max(endpoints, key=arrival_list.__getitem__)
        path = [worst]
        operands = inputs[worst]
        while operands:
            latest = max(arrival_list[i] for i in operands)
            cursor = next(i for i in operands if arrival_list[i] == latest)
            path.append(cursor)
            operands = inputs[cursor]
        path.reverse()
        return TimingResult(
            critical_path_delay_ps=arrival_list[worst],
            critical_path=tuple(path),
            arrival_times=arrival,
            num_gates=num_gates,
        )

    def path_delay(self, netlist: Netlist, path: list[int]) -> float:
        """Sum of gate delays along an explicit path (sanity-check helper)."""
        return _path_delay(lambda g: self._kind_delays[netlist.gate(g).kind],
                           path)


#: ``GateKind.is_source`` per kind code (enum definition order).
_SOURCE_CODES = [kind.is_source for kind in GateKind]


def arrival_sweep(kind_codes: Sequence[int], inputs: Sequence[tuple[int, ...]],
                  code_delays: Sequence[float]) -> list[float]:
    """Arrival time (ps) per gate of a plain gate list, in one pass.

    Gate ``i`` has kind code ``kind_codes[i]`` and operands ``inputs[i]``,
    every operand numbered below its user, so ascending ids are a
    topological order.  Input-less gates (primary inputs, tie cells)
    arrive at 0; any other gate at its latest operand plus
    ``code_delays[kind_code]``.  The values equal
    :meth:`StaticTimingAnalysis.run`'s on the netlist built from the list.
    """
    arrival = [0.0] * len(kind_codes)
    for gate_id, operands in enumerate(inputs):
        count = len(operands)
        if count == 2:
            latest = arrival[operands[0]]
            other = arrival[operands[1]]
            if other > latest:
                latest = other
        elif count == 1:
            latest = arrival[operands[0]]
        elif count:
            latest = max(arrival[i] for i in operands)
        else:
            continue
        arrival[gate_id] = latest + code_delays[kind_codes[gate_id]]
    return arrival
