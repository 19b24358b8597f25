"""The downstream synthesis + STA flow."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.aig.from_netlist import netlist_to_aig
from repro.ir.graph import DataflowGraph
from repro.netlist.lowering import lower_subgraph
from repro.netlist.optimizer import LogicOptimizer
from repro.netlist.sta import StaticTimingAnalysis
from repro.synth.report import SynthesisReport
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library


class SynthesisFlow:
    """Lower → optimise → STA pipeline over IR subgraphs.

    This class is the "downstream tool" of the ISDC loop and the ``local``
    flow backend (:mod:`repro.synth.backend`).  It is intentionally
    stateless apart from its configuration so that evaluations can be memoised
    externally (see :class:`~repro.synth.cache.EvaluationCache`).

    Args:
        library: technology library; defaults to the synthetic SKY130 library.
        optimize: run the logic optimiser before STA (disable to model a raw
            mapping flow; the gap to the naive estimate shrinks accordingly).
        balance: enable the optimiser's tree-balancing pass.
        compute_aig: also build the AIG and record its depth in every report.
    """

    def __init__(self, library: TechLibrary | None = None, optimize: bool = True,
                 balance: bool = True, compute_aig: bool = False) -> None:
        self.library = library or sky130_library()
        self.optimize = optimize
        self.compute_aig = compute_aig
        self._optimizer = LogicOptimizer(self.library, balance=balance)
        self._sta = StaticTimingAnalysis(self.library)

    def evaluate_subgraph(self, graph: DataflowGraph, node_ids: Iterable[int],
                          name: str = "") -> SynthesisReport:
        """Synthesise the induced subgraph over ``node_ids`` and report timing.

        Args:
            graph: the containing dataflow graph.
            node_ids: IR node ids forming the combinational block.
            name: report name; defaults to ``<design>_sub<N>``.

        Returns:
            A :class:`SynthesisReport` whose ``delay_ps`` is the post-synthesis
            critical-path delay of the block.
        """
        wanted = tuple(sorted(set(node_ids)))
        block_name = name or f"{graph.name}_sub{len(wanted)}"
        lowered = lower_subgraph(graph, wanted, name=block_name)
        netlist = lowered.netlist
        gates_unoptimized = netlist.num_logic_gates()

        if self.optimize:
            netlist, optimization = self._optimizer.optimize(netlist)
            timing = optimization.timing
        else:
            timing = self._sta.run(netlist)
        aig_depth = None
        if self.compute_aig:
            aig_depth = netlist_to_aig(netlist).depth()

        return SynthesisReport(
            name=block_name,
            delay_ps=timing.critical_path_delay_ps,
            num_gates=netlist.num_logic_gates(),
            num_gates_unoptimized=gates_unoptimized,
            area_um2=netlist.area(self.library),
            aig_depth=aig_depth,
            node_ids=wanted,
        )

    def evaluate_batch(self, graph: DataflowGraph,
                       node_sets: Sequence[Iterable[int]],
                       names: Sequence[str] | None = None
                       ) -> list[SynthesisReport]:
        """Evaluate several subgraphs of one graph, serially, in input order.

        Args:
            graph: the containing dataflow graph.
            node_sets: one node-id collection per subgraph.
            names: optional per-subgraph report names.

        Returns:
            One report per node set, in the same order.
        """
        if names is None:
            names = [""] * len(node_sets)
        return [self.evaluate_subgraph(graph, node_ids, name=name)
                for node_ids, name in zip(node_sets, names)]

    def evaluate_graph(self, graph: DataflowGraph, name: str = "") -> SynthesisReport:
        """Synthesise an entire dataflow graph as one combinational block."""
        return self.evaluate_subgraph(graph, graph.node_ids(), name or graph.name)

    def stage_delay(self, graph: DataflowGraph, stage_nodes: Iterable[int]) -> float:
        """Post-synthesis delay of one pipeline stage (convenience wrapper)."""
        nodes = [nid for nid in stage_nodes if not graph.node(nid).is_source]
        if not nodes:
            return 0.0
        return self.evaluate_subgraph(graph, nodes).delay_ps
