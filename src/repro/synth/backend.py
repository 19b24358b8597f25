"""Pluggable flow backends for subgraph evaluation.

The ISDC loop only ever consumes one :class:`~repro.synth.report.SynthesisReport`
per subgraph, so any "downstream tool" that produces such reports can plug in
behind the :class:`FlowBackend` protocol -- the local gate-level simulator,
a cheap analytical estimator, or (in the future) a real Yosys/OpenSTA flow.

Two backends ship today:

* :class:`~repro.synth.flow.SynthesisFlow` (``local``) -- the default
  lower -> optimise -> STA pipeline, evaluating a batch in order.  The
  paper fans subgraphs out to parallel tool runs; here every ``--jobs``
  parallelises one level up (designs, campaign jobs, DSE searches,
  service requests), so one ISDC loop runs in one process.
* :class:`EstimatorBackend` -- a closed-form longest-path estimator for quick
  mode: orders of magnitude cheaper, no netlists, same report shape.

Use :func:`create_backend` to construct one by name.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.ir.graph import DataflowGraph
from repro.synth.flow import SynthesisFlow
from repro.synth.report import SynthesisReport
from repro.tech.delay_model import OperatorModel
from repro.tech.library import TechLibrary
from repro.tech.sky130 import sky130_library


@runtime_checkable
class FlowBackend(Protocol):
    """What the evaluation stack requires of a downstream flow.

    Any object exposing these two methods (plus a ``library`` attribute for
    register-overhead lookups) can serve :class:`~repro.isdc.feedback.FeedbackEngine`,
    :class:`~repro.sdc.pipeline.PipelineAnalyzer` and the experiment
    harnesses.  ``evaluate_batch`` must return results in input order.
    """

    library: TechLibrary

    def evaluate_subgraph(self, graph: DataflowGraph, node_ids: Iterable[int],
                          name: str = "") -> SynthesisReport:
        """Evaluate one induced subgraph."""
        ...

    def evaluate_batch(self, graph: DataflowGraph,
                       node_sets: Sequence[Iterable[int]],
                       names: Sequence[str] | None = None
                       ) -> list[SynthesisReport]:
        """Evaluate a batch of subgraphs, preserving input order."""
        ...


class EstimatorBackend:
    """Cheap analytical backend for quick mode: no lowering, no netlists.

    The delay of a subgraph is the longest path through its induced DAG,
    summing isolated per-operation delays from the closed-form
    :class:`~repro.tech.delay_model.OperatorModel` -- exactly the classic SDC
    critical-path view, packaged behind the backend protocol so the whole
    evaluation stack (cache, feedback engine, analyzer, experiments) runs
    unchanged, just orders of magnitude faster.  Gate and area figures are
    rough width-proportional estimates and are flagged as such in the report
    name-space (an estimator report never claims optimisation savings:
    ``num_gates == num_gates_unoptimized``).

    Args:
        library: technology library for the operator model.
        pessimism: multiplicative guard band on per-operation delays.
    """

    def __init__(self, library: TechLibrary | None = None,
                 pessimism: float = 1.0, **_ignored: Any) -> None:
        self.library = library or sky130_library()
        self.model = OperatorModel(self.library, pessimism=pessimism)

    def evaluate_subgraph(self, graph: DataflowGraph, node_ids: Iterable[int],
                          name: str = "") -> SynthesisReport:
        """Longest-path delay estimate of the induced subgraph.

        The propagation is one masked kernel sweep: members outside the
        subgraph neither receive nor relay values, and predecessor-less
        members start from zero (``floor=0.0``), exactly the induced-DAG
        longest path the per-node loop used to compute.
        """
        import numpy as np

        from repro.kernel import GraphView, forward_propagate

        view = GraphView.from_dataflow(graph)
        wanted = tuple(sorted(set(node_ids)))
        mask = np.zeros(view.num_nodes, dtype=bool)
        mask[view.dense_of(wanted)] = True
        delays = np.zeros(view.num_nodes, dtype=float)
        gates = 0
        for nid in wanted:
            node = graph.node(nid)
            if node.is_source:
                continue
            delays[view.index_of[nid]] = self.model.node_delay(node)
            gates += node.width * max(1, len(node.operands))
        values, _ = forward_propagate(view, delays, mask=mask, floor=0.0)
        critical = float(values[mask].max()) if wanted else 0.0
        return SynthesisReport(
            name=name or f"{graph.name}_est{len(wanted)}",
            delay_ps=critical,
            num_gates=gates,
            num_gates_unoptimized=gates,
            area_um2=0.0,
            aig_depth=None,
            node_ids=wanted,
        )

    def evaluate_batch(self, graph: DataflowGraph,
                       node_sets: Sequence[Iterable[int]],
                       names: Sequence[str] | None = None
                       ) -> list[SynthesisReport]:
        """Serial batch evaluation (the estimator is too cheap to fan out)."""
        if names is None:
            names = [""] * len(node_sets)
        return [self.evaluate_subgraph(graph, node_ids, name=name)
                for node_ids, name in zip(node_sets, names)]

    def evaluate_graph(self, graph: DataflowGraph, name: str = "") -> SynthesisReport:
        """Estimate an entire dataflow graph as one combinational block."""
        return self.evaluate_subgraph(graph, graph.node_ids(), name or graph.name)

    def stage_delay(self, graph: DataflowGraph, stage_nodes: Iterable[int]) -> float:
        """Estimated delay of one pipeline stage (convenience wrapper)."""
        nodes = [nid for nid in stage_nodes if not graph.node(nid).is_source]
        if not nodes:
            return 0.0
        return self.evaluate_subgraph(graph, nodes).delay_ps


BACKENDS: dict[str, type] = {
    "local": SynthesisFlow,
    "estimator": EstimatorBackend,
}


def create_backend(kind: str = "local", library: TechLibrary | None = None,
                   **options: Any) -> FlowBackend:
    """Construct a flow backend by registry name.

    Args:
        kind: one of :data:`BACKENDS` (currently ``local`` or ``estimator``).
        library: technology library forwarded to the backend.
        **options: backend-specific keyword options (e.g. ``optimize``);
            options a backend does not understand are rejected by its
            constructor, except :class:`EstimatorBackend` which ignores
            synthesis-only knobs.

    Raises:
        ValueError: for an unknown backend name.
    """
    try:
        factory = BACKENDS[kind]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown flow backend {kind!r}; expected one of {known}")
    if factory is EstimatorBackend:
        options = {key: value for key, value in options.items()
                   if key in ("pessimism",)}
    return factory(library, **options)


__all__ = ["BACKENDS", "EstimatorBackend", "FlowBackend", "create_backend"]
