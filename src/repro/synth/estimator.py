"""Per-operation delay estimators.

Two estimators are provided:

* :class:`CharacterizedOperatorModel` characterises every (opcode, width)
  combination *in isolation* by actually lowering a single operation and
  running the downstream flow on it.  This is the faithful reproduction of
  the paper's setup, where operator delays are pre-characterised through the
  logic synthesiser for the target library.
* :class:`NaiveDelayEstimator` sums isolated delays along IR paths, which is
  precisely the critical-path estimate the original SDC scheduler uses
  (Section II of the paper); ISDC's feedback replaces these sums with
  measured subgraph delays.
"""

from __future__ import annotations

from repro.ir.builder import GraphBuilder
from repro.ir.graph import DataflowGraph
from repro.ir.node import Node
from repro.ir.ops import OpKind
from repro.synth.flow import SynthesisFlow
from repro.tech.delay_model import OperatorModel
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library


class CharacterizedOperatorModel:
    """Operator delays characterised by single-operation synthesis runs.

    Args:
        library: technology library used by the characterisation flow.
        optimize: whether the characterisation flow optimises logic (matches
            how standalone operators would be characterised in practice).
        pessimism: multiplicative guard band applied to characterised delays.
            Real characterisation flows guard-band for wire load, process
            variation and the context the operator will be instantiated in;
            the paper's Fig. 1 shows XLS estimates routinely exceeding
            post-synthesis STA by 25 % and more, which the default models.
    """

    def __init__(self, library: TechLibrary | None = None, optimize: bool = True,
                 pessimism: float = 1.25) -> None:
        self.library = library or sky130_library()
        if pessimism < 1.0:
            raise ValueError(f"pessimism must be >= 1.0, got {pessimism}")
        self.pessimism = pessimism
        self._flow = SynthesisFlow(self.library, optimize=optimize)
        self._fallback = OperatorModel(self.library, pessimism=1.0)
        self._cache: dict[tuple, float] = {}

    def node_delay(self, node: Node) -> float:
        """Isolated post-synthesis delay estimate (ps) of ``node``."""
        if node.kind.is_free:
            return 0.0
        key = self._characterization_key(node)
        if key not in self._cache:
            self._cache[key] = self._characterize(node)
        return self._cache[key] * self.pessimism

    def _characterization_key(self, node: Node) -> tuple:
        shift_by_constant = False
        if node.kind in (OpKind.SHL, OpKind.SHRL, OpKind.SHRA, OpKind.ROTL,
                         OpKind.ROTR):
            shift_by_constant = "constant_shift" in node.attrs
        return (node.kind, node.width, len(node.operands), shift_by_constant)

    def _characterize(self, node: Node) -> float:
        """Synthesise a standalone instance of ``node``'s operation."""
        builder = GraphBuilder(f"char_{node.kind.value}_{node.width}")
        operands = []
        for index in range(len(node.operands)):
            operands.append(builder.param(f"op{index}", node.width).node_id)
        # ``add_node`` records an explicit width in ``attrs`` too, so pass it
        # once, as the keyword.
        attrs = {key: value for key, value in node.attrs.items()
                 if key != "width"}
        try:
            isolated = builder.graph.add_node(node.kind, operands,
                                              width=node.width, **attrs)
        except (ValueError, KeyError):
            return self._fallback.delay(node.kind, node.width,
                                        max(2, len(node.operands)))
        builder.output(isolated)
        report = self._flow.evaluate_subgraph(builder.graph,
                                              [isolated.node_id],
                                              name=builder.graph.name)
        return report.delay_ps

    def preload(self, graph: DataflowGraph) -> None:
        """Characterise every operation appearing in ``graph`` up front."""
        for node in graph.nodes():
            self.node_delay(node)


class NaiveDelayEstimator:
    """Sums isolated operator delays along IR paths (the classic SDC view).

    Args:
        model: any object exposing ``node_delay(node) -> float``; defaults to
            the closed-form :class:`~repro.tech.delay_model.OperatorModel`.
    """

    def __init__(self, model: OperatorModel | CharacterizedOperatorModel | None = None
                 ) -> None:
        self.model = model or OperatorModel()

    def node_delay(self, node: Node) -> float:
        """Isolated delay of one node."""
        return self.model.node_delay(node)

    def path_delay(self, graph: DataflowGraph, path: list[int]) -> float:
        """Sum of isolated delays along an explicit node-id path."""
        return sum(self.node_delay(graph.node(nid)) for nid in path)

    def critical_path_delay(self, graph: DataflowGraph, source: int, sink: int,
                            delays: dict[int, float] | None = None) -> float:
        """Largest delay sum over any path from ``source`` to ``sink``.

        One kernel single-source longest-path sweep over the graph's shared
        :class:`~repro.kernel.GraphView` (values only, no path).

        Returns ``-1.0`` if ``sink`` is unreachable from ``source``.
        """
        from repro.kernel import GraphView, UNREACHED, longest_path_from

        view = GraphView.from_dataflow(graph)
        if delays is None:
            delays = {n.node_id: self.node_delay(n) for n in graph.nodes()}
        values, _ = longest_path_from(view, view.delay_vector(delays),
                                      view.index_of[source],
                                      with_parents=False)
        value = values[view.index_of[sink]]
        return float(value) if value != UNREACHED else -1.0
