"""The clone-and-retarget warm start, kept as a test oracle.

:class:`CloningProblemCache` serves probes the way
:class:`~repro.dse.warm.ProblemCache` once did: it keeps every feasible
probe's solved :class:`~repro.sdc.problem.ScheduleProblem`, and a probe
with a solved donor of the same pair rank clones that donor (the first one
built cold) and :meth:`~repro.sdc.problem.ScheduleProblem.retarget`\\ s it
in place.  The patches the retarget counts are the probe's
``bound_patches``; zero patches reuse the donor's schedule at the clone's
II.  A probe without a same-rank donor is solved on a cold build.

The cache under test keeps answers instead of systems, so its provenance,
IIs, schedules and counters must equal this oracle's probe for probe
(``tests/dse/test_warm.py``).
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.dse.warm import (ProbeOutcome, ProblemCache, _feasible,
                            _infeasible, _solve)
from repro.sdc.problem import ScheduleProblem


class CloningProblemCache(ProblemCache):
    """A :class:`ProblemCache` that retains and retargets solved problems."""

    def __init__(self, latency_weight: float = 1e-3) -> None:
        super().__init__(latency_weight)
        self._problems: dict[str, dict[float, tuple[ScheduleProblem,
                                                    dict[int, int], int]]] = {}

    def probe(self, design: str, clock_period_ps: float) -> ProbeOutcome:
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
        same_rank = {p: entry for p, entry
                     in self._problems.get(design, {}).items()
                     if entry[2] == rank}
        if same_rank:
            donor_period = min(same_rank, key=lambda p: (abs(p - period), p))
            donor_problem, donor_stages, _ = same_rank[donor_period]
            problem = donor_problem.clone()
            before = problem.bound_patches
            assert problem.retarget(context.matrix, context.index_of, budget)
            patches = problem.bound_patches - before
            self.warm_solves += 1
        else:
            problem = ScheduleProblem(context.graph, context.matrix,
                                      context.index_of, budget,
                                      latency_weight=self.latency_weight)
            patches = 0
            self.cold_solves += 1
        provenance = dict(warm_patched=bool(same_rank),
                          lp_rebuild=not same_rank, bound_patches=patches)
        if same_rank and patches == 0:
            self.reused_solutions += 1
            outcome = _feasible(context, period, problem.ii, donor_stages,
                                solution_reuse=True, **provenance)
        else:
            outcome = _solve(context, problem, period, start, **provenance)
        if outcome.feasible:
            self._problems.setdefault(design, {})[period] = (
                problem, dict(outcome.stages), rank)
        self._memo[key] = outcome
        return outcome
