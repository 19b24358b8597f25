"""Static timing analysis over gate-level netlists.

This module is the stand-in for OpenSTA in the paper's flow.  The timing
model is a simple topological arrival-time propagation with per-cell
propagation delays from the technology library (no slew, no wire load); this
is the same level of abstraction the paper's per-operation characterisation
uses, so relative comparisons remain meaningful.

A :class:`~repro.netlist.netlist.Netlist` numbers every operand below its
user, so arrival times are one in-order pass over its gate lists
(:func:`arrival_sweep`, which the logic optimiser's balancing pass also
uses), and the critical path leaves each gate through its first operand at
the maximum arrival.  Per-kind gate delays are resolved once per library
into a list indexed by kind code instead of hitting the library on every
gate of every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.kernel import path_delay as _path_delay
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
        #: The same table indexed by kind code, for the per-gate sweeps.
        self.code_delays: list[float] = list(self._kind_delays.values())

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
        operands = netlist.operands
        arrival_list = arrival_sweep(netlist.kinds, operands,
                                     self.code_delays)
        arrival = dict(enumerate(arrival_list))
        if endpoints is None:
            endpoints = netlist.outputs() or list(arrival)
        if not endpoints:
            return TimingResult(0.0, (), arrival, netlist.num_logic_gates())

        worst = max(endpoints, key=arrival.__getitem__)
        path = [worst]
        pins = operands[worst]
        while pins:
            latest = max(arrival_list[i] for i in pins)
            cursor = next(i for i in pins if arrival_list[i] == latest)
            path.append(cursor)
            pins = operands[cursor]
        path.reverse()
        return TimingResult(
            critical_path_delay_ps=arrival[worst],
            critical_path=tuple(path),
            arrival_times=arrival,
            num_gates=netlist.num_logic_gates(),
        )

    def path_delay(self, netlist: Netlist, path: list[int]) -> float:
        """Sum of gate delays along an explicit path (sanity-check helper)."""
        return _path_delay(lambda g: self.code_delays[netlist.kinds[g]], path)


def arrival_sweep(kind_codes: Sequence[int], inputs: Sequence[tuple[int, ...]],
                  code_delays: Sequence[float]) -> list[float]:
    """Arrival time (ps) per gate of a plain gate list, in one pass.

    Gate ``i`` has kind code ``kind_codes[i]`` and operands ``inputs[i]``,
    every operand numbered below its user, so ascending ids are a
    topological order.  Input-less gates (primary inputs, tie cells)
    arrive at 0; any other gate at its latest operand plus
    ``code_delays[kind_code]``.
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
