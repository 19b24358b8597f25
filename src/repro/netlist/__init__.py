"""Gate-level netlist substrate.

This package plays the role of the downstream logic-synthesis input/output in
the paper's flow (Yosys netlists analysed by OpenSTA):

* :mod:`~repro.netlist.gates` / :mod:`~repro.netlist.netlist` -- the bit-level
  netlist: four aligned lists (kind codes, operand tuples, names, output
  ports) whose ascending ids are topological, shared unchanged by lowering,
  the optimiser, STA, simulation and AIG conversion;
* :mod:`~repro.netlist.lowering` -- word-level IR operations lowered to gates
  (ripple-carry adders, array multipliers, barrel shifters, mux trees, ...);
* :mod:`~repro.netlist.optimizer` -- a small logic optimiser (constant folding,
  structural hashing, tree balancing, local rewrites) that models the
  inter-operation optimisations real synthesis performs;
* :mod:`~repro.netlist.sta` -- static timing analysis producing arrival times
  and the critical path in one in-order sweep.
"""

from repro.netlist.gates import GateKind
from repro.netlist.netlist import Netlist
from repro.netlist.lowering import lower_graph, lower_subgraph, LoweringResult
from repro.netlist.sta import StaticTimingAnalysis, TimingResult
from repro.netlist.optimizer import LogicOptimizer, OptimizationReport

__all__ = [
    "GateKind",
    "Netlist",
    "lower_graph",
    "lower_subgraph",
    "LoweringResult",
    "StaticTimingAnalysis",
    "TimingResult",
    "LogicOptimizer",
    "OptimizationReport",
]
