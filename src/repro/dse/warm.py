"""The DSE warm-start engine: answers kept across clock probes.

A clock-period search probes the *same* design at many periods.  In the
SDC formulation a period changes only the Eq. 2 timing bounds over a fixed
delay matrix; everything else -- the graph, per-node delays, the all-pairs
critical-path matrix, the register weights, users map and flow objective
-- depends only on the design.  The :class:`ProblemCache` keeps answers,
not constraint systems:

* a :class:`DesignContext` is built once per design and shared by every
  probe (graph, delay matrix, structural fingerprint);
* one template :class:`~repro.sdc.problem.ScheduleProblem` per design
  carries the per-graph constants; a probe that solves clones it and
  builds its own system at its own budget, dropped when the probe returns;
* each feasible probe leaves only a :class:`SolvedPeriod` -- its budget,
  pair rank, II and schedule.  A probe whose pair rank equals a solved
  period's shares that period's constrained-pair set; when none of the
  timing bounds over that set differ between the two budgets, the system
  is the donor's and the donor's answer is the probe's, with no build and
  no solve;
* repeated probes of a structurally identical design at the same period
  are memoized on the design's subgraph fingerprint and cost nothing.

Every solved probe's system equals a from-scratch build at its budget,
and every solve runs the one shared
:func:`~repro.sdc.loops.min_feasible_ii`, whose least optimal schedule is
a function of the system alone, so warm and cold probes are
byte-identical.  The parity suite under ``tests/dse/`` enforces this on
every probe, and holds every probe's provenance to the clone-and-retarget
mechanism the cache used to run (``tests/dse/warm_oracle.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from repro.designs.generator import case_from_name
from repro.ir.graph import DataflowGraph
from repro.sdc.delays import NOT_CONNECTED, critical_path_matrix, node_delays
from repro.sdc.flow import check_latency_weight
from repro.sdc.loops import min_feasible_ii
from repro.sdc.pipeline import count_pipeline_registers
from repro.sdc.problem import ScheduleProblem, timing_bounds, timing_pairs
from repro.sdc.scheduler import Schedule
from repro.sdc.solver import SdcInfeasibleError
from repro.synth.fingerprint import subgraph_fingerprint
from repro.tech.delay_model import OperatorModel
from repro.tech.sky130 import sky130_library


@dataclass(frozen=True)
class DesignContext:
    """Everything probe evaluation needs about one design, built once.

    Attributes:
        name: registry (or ``gen:``) design name.
        graph: the built dataflow graph.
        matrix: all-pairs critical-path delay matrix; *identical across
            clock periods*, which is what makes rebasing sound.
        index_of: node id -> matrix row/column.
        worst_delay_ps: largest single-operation delay; any budget below it
            is infeasible without touching the LP.
        register_overhead_ps: sequential overhead subtracted from the clock
            period to obtain the combinational stage budget.
        default_clock_ps: the design's registry clock period (search start).
        fingerprint: structural fingerprint of the whole graph -- the
            memoization key component that makes probe results reusable
            across structurally identical builds.
        sorted_offdiag: every connected off-diagonal delay-matrix entry,
            sorted -- the lookup table behind :meth:`pair_rank` (a
            positive budget never counts :data:`NOT_CONNECTED` entries).
    """

    name: str
    graph: DataflowGraph
    matrix: np.ndarray = field(repr=False)
    index_of: dict[int, int] = field(repr=False)
    worst_delay_ps: float
    register_overhead_ps: float
    default_clock_ps: float
    fingerprint: str
    sorted_offdiag: np.ndarray = field(repr=False)

    @property
    def lower_bound_ps(self) -> float:
        """Analytic minimum feasible clock period (worst delay + overhead)."""
        return self.worst_delay_ps + self.register_overhead_ps

    def budget_ps(self, clock_period_ps: float) -> float | None:
        """The combinational stage budget at a clock period.

        ``None`` when the budget is non-positive or below the worst
        single-operation delay: no schedule exists, and no LP is needed
        to say so.
        """
        budget = clock_period_ps - self.register_overhead_ps
        if budget <= 0.0 or self.worst_delay_ps > budget:
            return None
        return budget

    def pair_rank(self, budget_ps: float) -> int:
        """How many off-diagonal pairs carry a timing constraint at a budget.

        The constrained-pair set ``matrix > budget`` is *nested* in the
        budget (shrinking the budget only adds pairs), so two budgets have
        the same pair set exactly when they have the same rank.  A donor
        problem with the target's rank can always be rebased by bound
        patching alone; one with a different rank never can.
        """
        position = int(np.searchsorted(self.sorted_offdiag, budget_ps,
                                       side="right"))
        return len(self.sorted_offdiag) - position


def build_context(name: str) -> DesignContext:
    """Build the per-design probe context (graph, matrix, fingerprint)."""
    case = case_from_name(name)
    graph = case.build()
    delays = node_delays(graph, OperatorModel())
    matrix, index_of = critical_path_matrix(graph, delays)
    fingerprint = subgraph_fingerprint(
        graph, [node.node_id for node in graph.nodes()])
    if graph.has_back_edges:
        # The forward-graph fingerprint is blind to back-edges; append their
        # signature so loop designs never collide with their DAG skeletons
        # in the probe memo.
        loops = ",".join(f"{e.src}>{e.phi}x{e.distance}"
                         for e in graph.back_edges())
        fingerprint = f"{fingerprint}|loops:{loops}"
    offdiag = np.asarray(matrix, dtype=float)
    connected = (offdiag != NOT_CONNECTED) & ~np.eye(len(offdiag), dtype=bool)
    return DesignContext(
        name=name, graph=graph, matrix=matrix, index_of=index_of,
        worst_delay_ps=max(delays.values(), default=0.0),
        register_overhead_ps=sky130_library().register_delay_ps,
        default_clock_ps=case.clock_period_ps,
        fingerprint=fingerprint,
        sorted_offdiag=np.sort(offdiag[connected]))


@dataclass(frozen=True)
class ProbeOutcome:
    """The result of scheduling one design at one clock period.

    The schedule-describing fields (``feasible``, ``num_stages``,
    ``num_registers``, ``ii``, ``stages``) are deterministic: warm and cold
    probes are byte-identical, so they do not depend on which cache served
    the probe.  The provenance fields (``warm_patched``,
    ``solution_reuse``, ``lp_rebuild``, ``memo_hit``, ``bound_patches``,
    ``solve_time_s``) describe how *this* evaluation was served and vary
    with worker/cache layout.

    Attributes:
        design: design name.
        clock_period_ps: probed clock period.
        feasible: whether a schedule exists at this period.
        reason: why not, when infeasible -- ``"budget"`` (the combinational
            budget is non-positive or below the worst single-op delay; no
            LP was touched) or ``"lp"`` (the LP itself was infeasible).
        num_stages: pipeline depth of the schedule (feasible probes only).
        num_registers: pipeline register bits (feasible probes only).
        ii: initiation interval of the schedule -- the minimum feasible II
            for loop designs, 1 for DAGs (feasible probes only; also set on
            the per-candidate probes of a min-II search trace, where it is
            the *probed* candidate).
        stages: the full node id -> stage schedule (feasible probes only).
        warm_patched: a solved period with the same pair rank (the same
            constrained-pair set) was the donor; its system differs from
            this probe's in ``bound_patches`` timing bounds.
        solution_reuse: the donor's bounds all equal this probe's -- the
            system is the donor's, so the donor's schedule and II were
            reused without a build or a solve (the solve returns the least
            optimal schedule, a function of the system alone, so a fresh
            solve would return exactly the same schedule).
        lp_rebuild: no same-rank donor existed; the probe was solved cold.
        memo_hit: served from the fingerprint memo without any solve.
        bound_patches: timing bounds that differ between the donor's budget
            and this probe's, over their shared pair set.
        solve_time_s: wall-clock seconds of this evaluation (0 for memo
            hits and budget rejections).
    """

    design: str
    clock_period_ps: float
    feasible: bool
    reason: str = ""
    num_stages: int | None = None
    num_registers: int | None = None
    ii: int | None = None
    stages: dict[int, int] | None = field(default=None, repr=False)
    warm_patched: bool = False
    solution_reuse: bool = False
    lp_rebuild: bool = False
    memo_hit: bool = False
    bound_patches: int = 0
    solve_time_s: float = 0.0

    def to_payload(self) -> dict:
        """Deterministic payload row (provenance and timing excluded)."""
        return {
            "clock_period_ps": self.clock_period_ps,
            "feasible": self.feasible,
            "reason": self.reason,
            "num_stages": self.num_stages,
            "num_registers": self.num_registers,
            "ii": self.ii,
        }


def _infeasible(context: DesignContext, period: float, reason: str,
                **provenance) -> ProbeOutcome:
    """The outcome of a probe with no schedule (see ``ProbeOutcome.reason``)."""
    return ProbeOutcome(design=context.name, clock_period_ps=period,
                        feasible=False, reason=reason, **provenance)


def _feasible(context: DesignContext, period: float, ii: int,
              stages: dict[int, int], **provenance) -> ProbeOutcome:
    """The outcome of a probe whose schedule is ``stages`` at ``ii``."""
    schedule = Schedule(graph=context.graph, clock_period_ps=period,
                        stages=stages, ii=ii)
    registers, _ = count_pipeline_registers(schedule)
    return ProbeOutcome(design=context.name, clock_period_ps=period,
                        feasible=True, num_stages=schedule.num_stages,
                        num_registers=registers, ii=ii, stages=dict(stages),
                        **provenance)


def _solve(context: DesignContext, problem: ScheduleProblem, period: float,
           start: float, on_probe=None, **provenance) -> ProbeOutcome:
    """Solve ``problem`` at its minimum feasible II (1 for a DAG).

    ``solve_time_s`` is measured from ``start``; ``on_probe`` sees every
    II candidate (:func:`~repro.sdc.loops.min_feasible_ii`).
    """
    try:
        ii, stages = min_feasible_ii(problem, on_probe=on_probe)
    except SdcInfeasibleError:
        return _infeasible(context, period, "lp",
                           solve_time_s=time.perf_counter() - start,
                           **provenance)
    return _feasible(context, period, ii, stages,
                     solve_time_s=time.perf_counter() - start, **provenance)


class SolvedPeriod(NamedTuple):
    """What a :class:`ProblemCache` keeps of one feasible probe.

    Attributes:
        budget_ps: the probe's combinational stage budget.
        pair_rank: its :meth:`DesignContext.pair_rank`.
        ii: the schedule's initiation interval.
        stages: the schedule (the memoized outcome's own dict).
    """

    budget_ps: float
    pair_rank: int
    ii: int
    stages: dict[int, int]


def _bound_changes(matrix: np.ndarray, donor_budget_ps: float,
                   budget_ps: float) -> int:
    """Timing bounds that differ between two budgets of equal pair rank.

    Equal ranks mean equal constrained-pair sets, so both budgets bound
    the pairs :func:`~repro.sdc.problem.timing_pairs` enumerates at
    ``budget_ps``; this counts those whose ``ceil(delay / budget)``
    bucket moved.
    """
    rows, cols, bounds = timing_pairs(matrix, budget_ps)
    donor_bounds, _ = timing_bounds(matrix[rows, cols], donor_budget_ps)
    return int(np.count_nonzero(bounds != donor_bounds))


class ProblemCache:
    """Per-process warm-start state of a clock-period search.

    The cache keeps answers, not constraint systems.  Per design it holds
    the :class:`DesignContext`, one template
    :class:`~repro.sdc.problem.ScheduleProblem` carrying the per-graph
    constants (register weights, users map, flow objective), and one
    :class:`SolvedPeriod` -- budget, pair rank, II and schedule -- per
    feasible period; a fingerprint-keyed memo holds every probe outcome.
    A probe that solves clones the template and builds its own system at
    its own budget, and that system is dropped when the probe returns.
    :meth:`probe` is the single evaluation entry point; the search driver
    keeps one cache per worker process so parallel batches warm-start
    independently (results are identical either way -- see the module
    docstring).

    Attributes:
        latency_weight: LP tie-breaking weight, part of the memo key.
        memo_hits: probes served from the fingerprint memo.
        warm_solves: probes with a solved same-pair-rank donor period
            (including those that reused the donor's solution outright).
        reused_solutions: the subset of ``warm_solves`` whose bounds equal
            the donor's -- no build and no LP call at all.
        cold_solves: probes with no same-rank donor, solved on a fresh
            system.
        budget_skips: probes rejected analytically without any LP.
    """

    def __init__(self, latency_weight: float = 1e-3) -> None:
        self.latency_weight = check_latency_weight(latency_weight)
        self.memo_hits = 0
        self.warm_solves = 0
        self.reused_solutions = 0
        self.cold_solves = 0
        self.budget_skips = 0
        self._contexts: dict[str, DesignContext] = {}
        self._templates: dict[str, ScheduleProblem] = {}
        self._solved: dict[str, dict[float, SolvedPeriod]] = {}
        self._memo: dict[tuple, ProbeOutcome] = {}

    def context(self, design: str) -> DesignContext:
        """The design's probe context (built on first use, then cached)."""
        context = self._contexts.get(design)
        if context is None:
            context = build_context(design)
            self._contexts[design] = context
        return context

    def _donor(self, design: str, clock_period_ps: float, pair_rank: int
               ) -> SolvedPeriod | None:
        """The nearest solved period sharing ``pair_rank``, if any.

        Only such a donor shares the target's constrained-pair set; the
        nearest period wins, the smaller period breaking ties.
        """
        same_rank = {period: solved for period, solved
                     in self._solved.get(design, {}).items()
                     if solved.pair_rank == pair_rank}
        if not same_rank:
            return None
        return same_rank[min(same_rank,
                             key=lambda p: (abs(p - clock_period_ps), p))]

    def _problem(self, context: DesignContext,
                 budget_ps: float) -> ScheduleProblem:
        """A fresh problem at ``budget_ps``, cloned from the design's template.

        The template is the design's first built problem; its objective is
        built up front so every clone shares it, its weights and its users
        map.  A clone at another budget rebuilds its own system.
        """
        template = self._templates.get(context.name)
        if template is None:
            template = ScheduleProblem(context.graph, context.matrix,
                                       context.index_of, budget_ps,
                                       latency_weight=self.latency_weight)
            template.objective  # built once, shared by every clone
            self._templates[context.name] = template
        problem = template.clone()
        if problem.timing_budget_ps != budget_ps:
            problem.timing_budget_ps = budget_ps
            problem.rebuild(context.matrix, context.index_of)
        return problem

    def probe(self, design: str, clock_period_ps: float) -> ProbeOutcome:
        """Schedule ``design`` at ``clock_period_ps``, as warmly as possible.

        The fast paths, in order: fingerprint memo (free), analytic budget
        rejection (free), a same-pair-rank donor whose bounds are all equal
        (the donor's answer, no build and no solve), then a solve on a
        fresh system.  All solving paths go through the shared
        :func:`~repro.sdc.loops.min_feasible_ii`, so the returned schedule
        never depends on which path served the probe.
        """
        context = self.context(design)
        period = float(clock_period_ps)
        key = (context.fingerprint, context.register_overhead_ps,
               self.latency_weight, period)
        hit = self._memo.get(key)
        if hit is not None:
            self.memo_hits += 1
            return replace(hit, memo_hit=True, warm_patched=False,
                           solution_reuse=False, lp_rebuild=False,
                           bound_patches=0, solve_time_s=0.0)

        budget = context.budget_ps(period)
        if budget is None:
            self.budget_skips += 1
            outcome = self._memo[key] = _infeasible(context, period, "budget")
            return outcome

        start = time.perf_counter()
        rank = context.pair_rank(budget)
        donor = self._donor(design, period, rank)
        patches = 0
        if donor is None:
            self.cold_solves += 1
        else:
            self.warm_solves += 1
            patches = _bound_changes(context.matrix, donor.budget_ps, budget)
        provenance = dict(warm_patched=donor is not None,
                          lp_rebuild=donor is None, bound_patches=patches)
        if donor is not None and patches == 0:
            # Every bound equals the donor's, so the system is the donor's,
            # and the solve's output (the least optimal schedule) is a
            # function of the system alone: a fresh solve would return
            # exactly the donor's schedule at the donor's II.
            self.reused_solutions += 1
            outcome = _feasible(context, period, donor.ii, donor.stages,
                                solution_reuse=True,
                                solve_time_s=time.perf_counter() - start,
                                **provenance)
        else:
            outcome = _solve(context, self._problem(context, budget), period,
                             start, **provenance)
        if outcome.feasible:
            self._solved.setdefault(design, {})[period] = SolvedPeriod(
                budget, rank, outcome.ii, outcome.stages)
        self._memo[key] = outcome
        return outcome

    def min_ii_search(self, design: str, clock_period_ps: float | None = None
                      ) -> tuple[ProbeOutcome, list[ProbeOutcome]]:
        """Resolve a design's minimum feasible II, recording every II probe.

        The whole search runs over *one* :class:`ScheduleProblem` -- each II
        candidate is an in-place :meth:`~repro.sdc.problem.ScheduleProblem.rebase_ii`
        (loop bounds patched in place) plus one re-solve, the same
        cross-point reuse discipline the
        clock-period search applies along the clock axis.

        Args:
            design: design name (``loop:`` spec, ``.ir`` path, or any
                registry name -- DAGs trivially resolve to II 1).
            clock_period_ps: clock period to search at; the design's
                registry clock when omitted.

        Returns:
            ``(final, trace)`` -- the summary outcome at the minimum II,
            and one :class:`ProbeOutcome` per probed II candidate in probe
            order (``ii`` is the candidate, ``feasible`` its verdict).
        """
        context = self.context(design)
        period = float(clock_period_ps if clock_period_ps is not None
                       else context.default_clock_ps)
        budget = context.budget_ps(period)
        if budget is None:
            self.budget_skips += 1
            return _infeasible(context, period, "budget"), []

        start = time.perf_counter()
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget,
                                  latency_weight=self.latency_weight)
        self.cold_solves += 1
        trace: list[ProbeOutcome] = []

        def record(ii: int, feasible: bool,
                   stages: dict[int, int] | None) -> None:
            provenance = dict(warm_patched=ii > 1,
                              bound_patches=problem.bound_patches)
            trace.append(
                _feasible(context, period, ii, stages, **provenance)
                if feasible else
                _infeasible(context, period, "lp", ii=ii, **provenance))

        final = _solve(context, problem, period, start, on_probe=record,
                       lp_rebuild=True)
        return replace(final, bound_patches=problem.bound_patches), trace

    def cold_probe(self, design: str, clock_period_ps: float) -> ProbeOutcome:
        """A from-scratch reference probe bypassing every warm path.

        Used by the parity tests and the warm-vs-cold benchmark: builds a
        fresh :class:`~repro.sdc.problem.ScheduleProblem` (full constraint
        system, fresh LP) and solves it through the same
        :func:`~repro.sdc.loops.min_feasible_ii`.  Nothing is cached.
        """
        context = self.context(design)
        period = float(clock_period_ps)
        budget = context.budget_ps(period)
        if budget is None:
            return _infeasible(context, period, "budget")
        start = time.perf_counter()
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget,
                                  latency_weight=self.latency_weight)
        return _solve(context, problem, period, start, lp_rebuild=True)
