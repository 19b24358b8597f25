"""Warm-start engine tests: cache behaviour, retention, clone isolation.

The byte-parity *sweeps* live in ``test_parity.py``; this module pins the
mechanics -- which path serves a probe (memo / budget / warm / cold), the
pair-rank donor selection, equality with the clone-and-retarget oracle
(``warm_oracle.py``), what the cache retains, the vectorized rebase, and
the guarantee that mutating a cloned
:class:`~repro.sdc.problem.ScheduleProblem` never perturbs its donor's
solved schedule.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro.designs.generator import GeneratorParams
from repro.designs.suite import table1_suite
from repro.dse.search import search_clock
from repro.dse.warm import ProblemCache, build_context
from repro.sdc.problem import ScheduleProblem
from repro.sdc.solver import solve_problem
from tests.dse.warm_oracle import CloningProblemCache
from tests.sdc.helpers import assert_flow_equal, flow_arrays
from tests.sdc.test_lp_golden import LOOP_DESIGN

DESIGN = "rrot"
GEN_DESIGN = ("gen:seed=11,depth=6,width=4,fanout=2,bits=8,inputs=3,"
              "clock=2000,mix=add3+xor2+sub1+rotr1")


@pytest.fixture(scope="module")
def context():
    return build_context(DESIGN)


class TestDesignContext:
    def test_lower_bound_is_worst_delay_plus_overhead(self, context):
        assert context.lower_bound_ps == pytest.approx(
            context.worst_delay_ps + context.register_overhead_ps)

    def test_pair_rank_is_monotone_in_budget(self, context):
        budgets = np.linspace(context.worst_delay_ps,
                              context.default_clock_ps * 2, 17)
        ranks = [context.pair_rank(float(b)) for b in budgets]
        assert ranks == sorted(ranks, reverse=True)

    def test_pair_rank_matches_matrix_count(self, context):
        budget = context.default_clock_ps - context.register_overhead_ps
        mask = context.matrix > budget
        np.fill_diagonal(mask, False)
        assert context.pair_rank(budget) == int(mask.sum())

    @pytest.mark.parametrize("design", [DESIGN, GEN_DESIGN, LOOP_DESIGN])
    def test_pair_rank_counts_every_off_diagonal_pair(self, design):
        """At every distinct matrix value and 1 ps either side (positive
        budgets only, as :meth:`budget_ps` hands out), the rank counts the
        off-diagonal entries above the budget, unconnected ones included."""
        context = build_context(design)
        offdiag = context.matrix.copy()
        np.fill_diagonal(offdiag, -1.0)
        values = np.unique(context.matrix)
        budgets = np.unique(np.concatenate([values - 1, values, values + 1]))
        for budget in budgets[budgets > 0].tolist():
            assert context.pair_rank(budget) \
                == np.count_nonzero(offdiag > budget), budget


class TestProblemCacheServingPaths:
    def test_budget_rejection_touches_no_lp(self, context):
        cache = ProblemCache()
        outcome = cache.probe(DESIGN, context.worst_delay_ps / 2)
        assert not outcome.feasible and outcome.reason == "budget"
        assert cache.budget_skips == 1 and cache.cold_solves == 0

    def test_first_probe_is_cold_second_identical_is_memo(self):
        cache = ProblemCache()
        first = cache.probe(DESIGN, 2500.0)
        again = cache.probe(DESIGN, 2500.0)
        assert first.feasible and not first.memo_hit and first.lp_rebuild
        assert again.memo_hit and not again.lp_rebuild
        assert again.stages == first.stages
        assert cache.cold_solves == 1 and cache.memo_hits == 1

    def test_same_rank_neighbour_is_served_warm(self, context):
        cache = ProblemCache()
        base = cache.probe(DESIGN, 2500.0)
        rank = context.pair_rank(2500.0 - context.register_overhead_ps)
        # Walk outward until a period shares the base probe's pair rank.
        for delta in (1.0, 2.0, 4.0, 8.0):
            period = 2500.0 + delta
            if context.pair_rank(period - context.register_overhead_ps) \
                    == rank:
                break
        else:
            pytest.skip("no same-rank neighbour within 8 ps")
        warm = cache.probe(DESIGN, period)
        assert warm.warm_patched and not warm.lp_rebuild
        assert warm.feasible == base.feasible
        assert cache.warm_solves == 1

    def test_zero_patch_rebase_reuses_donor_solution(self, context):
        cache = ProblemCache()
        base = cache.probe(DESIGN, 2500.0)
        rank = context.pair_rank(2500.0 - context.register_overhead_ps)
        for delta in (0.001, 0.01, 0.1):
            period = 2500.0 + delta
            if context.pair_rank(period - context.register_overhead_ps) \
                    != rank:
                continue
            reuse = cache.probe(DESIGN, period)
            if reuse.bound_patches == 0:
                assert reuse.solution_reuse
                assert reuse.stages == base.stages
                assert cache.reused_solutions >= 1
                return
        pytest.skip("no zero-patch plateau neighbour found")

    def test_rank_mismatch_solves_cold(self, context):
        cache = ProblemCache()
        cache.probe(DESIGN, context.default_clock_ps * 4)
        near = cache.probe(DESIGN, context.lower_bound_ps + 50.0)
        # Very different periods constrain very different pair sets: the
        # solved period is no donor, and the probe is solved cold.
        assert near.lp_rebuild and not near.warm_patched
        assert near.bound_patches == 0
        assert cache.cold_solves == 2 and cache.warm_solves == 0

    def test_counters_partition_all_probes(self):
        cache = ProblemCache()
        context = cache.context(GEN_DESIGN)
        periods = np.linspace(context.lower_bound_ps * 0.8,
                              context.default_clock_ps * 1.5, 12)
        for period in periods:
            cache.probe(GEN_DESIGN, float(period))
        total = (cache.memo_hits + cache.warm_solves + cache.cold_solves
                 + cache.budget_skips)
        assert total == len(periods)


#: Every Table-I row, three ``gen:`` designs and a loop design.
ORACLE_DESIGNS = (*(case.name for case in table1_suite()),
                  *(GeneratorParams(seed=seed, depth=8, width=6).name
                    for seed in (1, 2, 3)),
                  "examples/loop_accum.ir")
COUNTERS = ("cold_solves", "warm_solves", "reused_solutions", "budget_skips",
            "memo_hits")


def min_clock_search(cache: ProblemCache, design: str, resolution_ps: float,
                     speculate: int) -> list:
    """One min-clock search on ``cache``; its probes, timing zeroed."""
    result = search_clock(
        design, "minclock", cache.context(design).default_clock_ps,
        lambda batch: [cache.probe(design, period) for period in batch],
        speculate, resolution_ps=resolution_ps)
    return [replace(probe, solve_time_s=0.0) for probe in result.probes]


class TestCloningOracle:
    """The cache keeps answers, yet serves every probe as the old cache,
    which kept and retargeted solved problems, did."""

    @pytest.mark.parametrize("resolution_ps, speculate",
                             [(25.0, 1), (1.0, 4)])
    def test_probes_and_counters_equal_the_oracle(self, resolution_ps,
                                                  speculate):
        for design in ORACLE_DESIGNS:
            cache, oracle = ProblemCache(), CloningProblemCache()
            probes = min_clock_search(cache, design, resolution_ps,
                                      speculate)
            assert probes == min_clock_search(oracle, design, resolution_ps,
                                              speculate), design
            assert [getattr(cache, key) for key in COUNTERS] \
                == [getattr(oracle, key) for key in COUNTERS], design

    def test_reused_loop_answer_carries_the_donor_ii(self):
        design = "examples/loop_accum.ir"
        probes = min_clock_search(ProblemCache(), design, 1.0, 4)
        reused = [probe for probe in probes if probe.solution_reuse]
        assert reused and all(probe.ii == 2 for probe in reused)
        for probe in reused:
            assert probe == replace(
                ProblemCache().cold_probe(design, probe.clock_period_ps),
                warm_patched=True, solution_reuse=True, lp_rebuild=False,
                solve_time_s=0.0)


def test_cache_keeps_at_most_one_problem_per_design():
    """After min-clock searches, the cache holds one template problem per
    design, not one constraint system per solved period."""
    designs = ("rrot", "crc32", "examples/loop_accum.ir")

    def live_problems() -> int:
        gc.collect()
        return sum(isinstance(obj, ScheduleProblem)
                   for obj in gc.get_objects())

    before = live_problems()
    cache = ProblemCache()
    for design in designs:
        probes = min_clock_search(cache, design, 1.0, 4)
        assert sum(probe.feasible for probe in probes) > 1
    assert live_problems() - before <= len(designs)
    assert set(cache._templates) == set(designs)


class TestColdProbeReference:
    def test_cold_probe_never_caches(self):
        cache = ProblemCache()
        first = cache.cold_probe(DESIGN, 2500.0)
        second = cache.cold_probe(DESIGN, 2500.0)
        assert first.feasible and second.feasible
        assert not second.memo_hit
        assert cache.cold_solves == 0 and cache.memo_hits == 0
        assert first.stages == second.stages


class TestCloneIsolation:
    """Satellite regression: mutating a clone never perturbs its donor."""

    def _fresh_problem(self, context) -> ScheduleProblem:
        budget = context.default_clock_ps - context.register_overhead_ps
        return ScheduleProblem(context.graph, context.matrix,
                               context.index_of, budget)

    def test_rebasing_a_clone_leaves_donor_schedule_byte_identical(
            self, context):
        donor = self._fresh_problem(context)
        donor_stages = solve_problem(donor)
        donor_flow = flow_arrays(donor)
        donor_bounds = [(c.u, c.v, c.bound)
                        for c in donor.system.constraints("timing")]

        clone = donor.clone()
        tighter = donor.timing_budget_ps * 0.7
        clone.retarget(context.matrix, context.index_of, tighter)
        solve_problem(clone)

        assert donor.timing_budget_ps != tighter
        for now, before in zip(flow_arrays(donor), donor_flow):
            np.testing.assert_array_equal(now, before)
        assert [(c.u, c.v, c.bound)
                for c in donor.system.constraints("timing")] == donor_bounds
        assert solve_problem(donor) == donor_stages

    def test_mutating_clone_constraints_does_not_leak(self, context):
        donor = self._fresh_problem(context)
        solve_problem(donor)
        before = len(donor.system)
        clone = donor.clone()
        some_node = next(iter(donor.system.variables))
        clone.system.add(some_node, some_node, 0, kind="user")
        assert len(donor.system) == before

    def test_clone_shares_row_structure_and_immutables(self, context):
        donor = self._fresh_problem(context)
        clone = donor.clone()
        assert clone.system.u is donor.system.u
        assert clone.system.v is donor.system.v
        assert clone.system.kind is donor.system.kind
        assert clone.system.bound is not donor.system.bound
        np.testing.assert_array_equal(clone.system.bound, donor.system.bound)
        assert clone.register_weights is donor.register_weights
        assert clone.users_map is donor.users_map


class TestTimingPackRebase:
    def test_rebased_clone_lp_equals_cold_build(self, context):
        budget = context.default_clock_ps - context.register_overhead_ps
        donor = ScheduleProblem(context.graph, context.matrix,
                                context.index_of, budget)
        solve_problem(donor)
        rebased = 0
        for delta in (1.0, 5.0, 25.0, 100.0, -100.0):
            clone = donor.clone()
            if not clone.retarget(context.matrix, context.index_of,
                                  budget + delta):
                continue
            rebased += 1
            cold = ScheduleProblem(context.graph, context.matrix,
                                   context.index_of, budget + delta)
            assert_flow_equal(clone, cold)
            np.testing.assert_array_equal(clone.system.bound,
                                          cold.system.bound)
            assert clone.system.u is donor.system.u
        assert rebased

    def test_rebase_equals_fresh_build(self, context):
        budget = context.default_clock_ps - context.register_overhead_ps
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget)
        solve_problem(problem)
        # Pick a different budget with the same constrained-pair set.
        target = None
        for delta in (1.0, 5.0, 25.0, 100.0):
            if context.pair_rank(budget + delta) == context.pair_rank(budget):
                target = budget + delta
                break
        if target is None:
            pytest.skip("no same-rank budget nearby")
        assert problem.retarget(context.matrix, context.index_of, target)
        fresh = ScheduleProblem(context.graph, context.matrix,
                                context.index_of, target)
        assert_flow_equal(problem, fresh)
        assert solve_problem(problem) == solve_problem(fresh)

    def test_rebase_rebuilds_when_pair_set_moves(self, context):
        budget = context.default_clock_ps - context.register_overhead_ps
        problem = ScheduleProblem(context.graph, context.matrix,
                                  context.index_of, budget)
        target = context.worst_delay_ps * 1.01
        if context.pair_rank(target) == context.pair_rank(budget):
            pytest.skip("pair set did not move over the tested range")
        assert not problem.retarget(context.matrix, context.index_of, target)
        assert problem.timing_budget_ps == target
        assert problem.rebuilds == 1
        fresh = ScheduleProblem(context.graph, context.matrix,
                                context.index_of, target)
        np.testing.assert_array_equal(problem.system.bound, fresh.system.bound)
        assert_flow_equal(problem, fresh)
