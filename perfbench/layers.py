"""Which public calls of which layer get a span, and the metrics read off them.

Span names are ``<layer>.<call>``.  A metric ``<span>.self_s`` is the
span's self time summed over calls, ``<span>.s`` its inclusive time
(outermost calls only) and ``<span>.calls`` its call count.
"""

from __future__ import annotations

from tracing import Tracer

#: Spans that stand for a whole request or a whole entry point rather than
#: a layer: their self time is glue the split does not explain, so it
#: counts against coverage.
UNATTRIBUTED = ("bench.op", "isdc.schedule")


class GateCounter:
    """Logic gates before/after the optimizer, summed over its calls."""

    def __init__(self) -> None:
        self.before = 0
        self.after = 0

    def observe(self, result) -> None:
        _, report = result
        self.before += report.gates_before
        self.after += report.gates_after

    @property
    def reduction(self) -> float:
        return 1.0 - self.after / self.before if self.before else 0.0


def install_compute_spans(tracer: Tracer, gates: GateCounter) -> None:
    """Spans on every layer the ISDC loop and the DSE search call into."""
    from scipy.optimize import linprog

    from repro.dse.optimizer import MinClockOptimizer
    from repro.dse.warm import ProblemCache, build_context
    from repro.isdc.delay_matrix import DelayMatrix
    from repro.isdc.extraction import SubgraphExtractor
    from repro.isdc.feedback import FeedbackEngine
    from repro.isdc.reformulate import propagate_delays
    from repro.isdc.scheduler import IsdcScheduler
    from repro.kernel import auto_critical_path_matrix
    from repro.netlist.lowering import lower_subgraph
    from repro.netlist.optimizer import LogicOptimizer
    from repro.netlist.sta import StaticTimingAnalysis
    from repro.sdc.delays import node_delays
    from repro.sdc.pipeline import PipelineAnalyzer, count_pipeline_registers
    from repro.sdc.problem import ScheduleProblem, assemble_lp, build_system
    from repro.sdc.scheduler import SdcScheduler
    from repro.sdc.solver import (FullSolver, IncrementalSolver, solve_lp,
                                  solve_problem)
    from repro.synth.cache import EvaluationCache
    from repro.synth.estimator import CharacterizedOperatorModel
    from repro.synth.fingerprint import subgraph_fingerprint
    from repro.synth.flow import SynthesisFlow

    # netlist: the synthesis stand-in (lowering, logic optimizer, STA).
    tracer.patch_function(lower_subgraph, "netlist.lower")
    tracer.patch_method(LogicOptimizer, "optimize", "netlist.optimize",
                        observe=gates.observe)
    tracer.patch_method(StaticTimingAnalysis, "run", "netlist.sta")
    # synth: the flow around it, its cache and operator characterization.
    tracer.patch_method(SynthesisFlow, "evaluate_subgraph", "synth.flow")
    tracer.patch_method(EvaluationCache, "evaluate_batch", "synth.cache")
    tracer.patch_function(subgraph_fingerprint, "synth.fingerprint")
    tracer.patch_method(CharacterizedOperatorModel, "_characterize",
                        "synth.characterize")
    tracer.patch_method(FeedbackEngine, "evaluate", "synth.feedback")
    # isdc: the paper's loop (Alg. 1 extraction, matrix update, Alg. 2).
    tracer.patch_method(IsdcScheduler, "__init__", "isdc.init")
    tracer.patch_method(IsdcScheduler, "schedule", "isdc.schedule")
    tracer.patch_method(IsdcScheduler, "_estimation_error", "isdc.estimation")
    tracer.patch_method(SubgraphExtractor, "extract", "isdc.extract")
    tracer.patch_method(DelayMatrix, "update_with_feedback",
                        "isdc.matrix_update")
    tracer.patch_function(propagate_delays, "isdc.propagate")
    # sdc: baseline schedule, constraint system, LP, re-solve, reports.
    tracer.patch_method(SdcScheduler, "schedule", "sdc.baseline")
    tracer.patch_function(node_delays, "sdc.node_delays")
    tracer.patch_method(ScheduleProblem, "__init__", "sdc.problem")
    tracer.patch_method(ScheduleProblem, "clone", "sdc.clone")
    tracer.patch_method(ScheduleProblem, "retarget", "sdc.rebase")
    tracer.patch_function(build_system, "sdc.build_system")
    tracer.patch_function(assemble_lp, "sdc.assemble_lp")
    tracer.patch_function(linprog, "sdc.highs")
    tracer.patch_method(FullSolver, "solve", "sdc.resolve")
    tracer.patch_method(IncrementalSolver, "solve", "sdc.resolve")
    tracer.patch_function(solve_lp, "sdc.resolve")
    tracer.patch_function(solve_problem, "sdc.resolve")
    tracer.patch_function(count_pipeline_registers, "sdc.count_registers")
    tracer.patch_method(PipelineAnalyzer, "report", "sdc.pipeline_report")
    # kernel: the all-pairs critical-path delay matrix.
    tracer.patch_function(auto_critical_path_matrix,
                          "kernel.critical_path_matrix")
    # dse: per-design context, probes and the min-clock optimizer.
    tracer.patch_function(build_context, "dse.context")
    tracer.patch_method(ProblemCache, "probe", "dse.probe")
    tracer.patch_method(MinClockOptimizer, "next_batch", "dse.optimizer")
    tracer.patch_method(MinClockOptimizer, "process_outcome", "dse.optimizer")


def install_store_spans(tracer: Tracer) -> None:
    """Spans on the artifact store's writes (the service's parent side)."""
    from repro.store import ArtifactStore

    tracer.patch_method(ArtifactStore, "put", "store.put")


def coverage(tracer: Tracer, wall_s: float) -> float:
    """Share of ``wall_s`` spent in the self time of some layer span."""
    attributed = sum(entry["self_s"] for name, entry in tracer.summary().items()
                     if name not in UNATTRIBUTED)
    return attributed / wall_s if wall_s > 0 else 0.0


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """``<span>.self_s``, ``<span>.s`` and ``<span>.calls`` of every span."""
    metrics: dict[str, float] = {}
    for name, entry in tracer.summary().items():
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.s"] = entry["total_s"]
        metrics[f"{name}.calls"] = entry["calls"]
    return metrics


def split_lines(tracer: Tracer, wall_s: float) -> list[str]:
    """The per-layer split as a table, largest self time first."""
    rows = sorted(tracer.summary().items(), key=lambda item: -item[1]["self_s"])
    lines = [f"{'span':28s} {'self_s':>10s} {'share':>7s} {'calls':>8s}"]
    for name, entry in rows:
        lines.append(f"{name:28s} {entry['self_s']:10.4f} "
                     f"{entry['self_s'] / wall_s:7.1%} {entry['calls']:8d}")
    return lines
