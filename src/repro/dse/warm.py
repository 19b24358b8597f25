"""The DSE warm-start engine: cross-clock-point ``ScheduleProblem`` reuse.

A clock-period search probes the *same* design at many periods.  Everything
expensive about one probe except the LP solve itself -- building the graph,
characterising per-node delays, the all-pairs critical-path matrix, the
register weights and users map, the constraint system, the flow objective --
depends only on the design, or changes between periods in a tightly
structured way.  The :class:`ProblemCache` exploits both levels:

* a :class:`DesignContext` is built once per design and shared by every
  probe (graph, delay matrix, structural fingerprint);
* the solved :class:`~repro.sdc.problem.ScheduleProblem` of each feasible
  probe is retained, and a new probe warm-starts by cloning the problem of
  the *nearest* previously-solved period and retargeting it to the new
  budget (:meth:`~repro.sdc.problem.ScheduleProblem.retarget` -- only
  bounds whose ``ceil(delay / budget)`` bucket changed are patched,
  falling back to a full constraint rebuild when the constrained-pair set
  moved);
* repeated probes of a structurally identical design at the same period
  are memoized on the design's subgraph fingerprint and cost nothing.

Warm-started probes are byte-identical to cold ones: the retargeted
constraint arrays equal a from-scratch build's (see
:meth:`ScheduleProblem.retarget`) and both paths run the one shared
:func:`~repro.sdc.loops.min_feasible_ii`, whose least optimal schedule is
a function of the system alone.
The parity suite under ``tests/dse/`` enforces this on every probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.designs.generator import case_from_name
from repro.ir.graph import DataflowGraph
from repro.sdc.delays import NOT_CONNECTED, critical_path_matrix, node_delays
from repro.sdc.flow import check_latency_weight
from repro.sdc.loops import min_feasible_ii
from repro.sdc.pipeline import count_pipeline_registers
from repro.sdc.problem import ScheduleProblem
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
    ``num_registers``, ``stages``) are deterministic: warm and cold probes
    are byte-identical, so they do not depend on which cache served the
    probe.  The provenance fields (``warm_patched``, ``lp_rebuild``,
    ``memo_hit``, ``bound_patches``, ``solve_time_s``) describe how *this*
    evaluation was served and vary with worker/cache layout.

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
        warm_patched: served by rebasing a cloned donor problem in place.
        solution_reuse: the rebase patched *zero* bounds -- the system is
            the donor's, so the donor's schedule was reused without a
            solve (the solve returns the least optimal schedule, a function
            of the system alone, so a fresh solve would return exactly the
            same schedule).
        lp_rebuild: a full constraint/LP build was performed (cold probe,
            or a rebase whose pair set moved).
        memo_hit: served from the fingerprint memo without any solve.
        bound_patches: timing bounds patched during the rebase.
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


class ProblemCache:
    """Per-process warm-start state of a clock-period search.

    One cache holds, per design: the :class:`DesignContext`, every solved
    :class:`~repro.sdc.problem.ScheduleProblem` keyed by clock period, and
    a fingerprint-keyed memo of probe outcomes.  :meth:`probe` is the
    single evaluation entry point; the search driver keeps one cache per
    worker process so parallel batches warm-start independently (results
    are identical either way -- see the module docstring).

    Attributes:
        latency_weight: LP tie-breaking weight, part of the memo key.
        memo_hits: probes served from the fingerprint memo.
        warm_solves: probes served by clone + in-place rebase (including
            zero-patch rebases that reused the donor's solution outright).
        reused_solutions: the zero-patch subset of ``warm_solves`` -- no
            LP call at all.
        cold_solves: probes that built (or rebuilt) the full constraint
            system and LP.
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
        self._solved: dict[str, dict[float, tuple[ScheduleProblem,
                                                  dict[int, int], int]]] = {}
        self._memo: dict[tuple, ProbeOutcome] = {}

    def context(self, design: str) -> DesignContext:
        """The design's probe context (built on first use, then cached)."""
        context = self._contexts.get(design)
        if context is None:
            context = build_context(design)
            self._contexts[design] = context
        return context

    def _nearest_solved(self, design: str, clock_period_ps: float,
                        pair_rank: int
                        ) -> tuple[ScheduleProblem, dict[int, int], int] | None:
        """Solved (problem, schedule, rank) of the best donor period.

        Donors sharing the target's pair rank are preferred (their rebase
        is guaranteed to succeed as a pure bound patch); among candidates
        the nearest period wins, smaller period breaking ties.
        """
        solved = self._solved.get(design)
        if not solved:
            return None
        same_rank = {period: entry for period, entry in solved.items()
                     if entry[2] == pair_rank}
        candidates = same_rank or solved
        donor_period = min(candidates,
                           key=lambda p: (abs(p - clock_period_ps), p))
        return candidates[donor_period]

    def probe(self, design: str, clock_period_ps: float) -> ProbeOutcome:
        """Schedule ``design`` at ``clock_period_ps``, as warmly as possible.

        The fast paths, in order: fingerprint memo (free), analytic budget
        rejection (free), clone-and-rebase from the nearest solved period
        (bound patches only), full cold build.  All solving paths go
        through the shared :func:`~repro.sdc.loops.min_feasible_ii`, so the
        returned schedule never depends on which path served the probe.
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
        donor = self._nearest_solved(design, period, rank)
        warm_patched = False
        patches = 0
        if donor is None:
            problem = ScheduleProblem(context.graph, context.matrix,
                                      context.index_of, budget,
                                      latency_weight=self.latency_weight)
        else:
            donor_problem, donor_stages, donor_rank = donor
            problem = donor_problem.clone()
            if donor_rank == rank:
                patches_before = problem.bound_patches
                warm_patched = problem.retarget(context.matrix,
                                                context.index_of, budget)
                patches = problem.bound_patches - patches_before
            else:
                # The pair sets provably differ (nested sets of different
                # cardinality): skip the doomed rebase attempt and rebuild
                # the cloned system directly, still reusing the donor's
                # register weights and users map.
                problem.timing_budget_ps = budget
                problem.rebuild(context.matrix, context.index_of)

        if warm_patched:
            self.warm_solves += 1
        else:
            self.cold_solves += 1
        provenance = dict(warm_patched=warm_patched,
                          lp_rebuild=not warm_patched, bound_patches=patches)
        if warm_patched and patches == 0:
            # The rebase touched nothing: the clone's system is the
            # donor's, and the solve's output (the least optimal schedule)
            # is a function of the system alone, so a fresh solve would
            # return exactly the donor's schedule.
            self.reused_solutions += 1
            outcome = _feasible(context, period, problem.ii, donor_stages,
                                solution_reuse=True,
                                solve_time_s=time.perf_counter() - start,
                                **provenance)
        else:
            outcome = _solve(context, problem, period, start, **provenance)
        if outcome.feasible:
            self._solved.setdefault(design, {})[period] = (
                problem, dict(outcome.stages), rank)
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
