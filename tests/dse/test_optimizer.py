"""Unit tests of the DSE search strategies over synthetic probe outcomes.

No LP is solved here: a feasibility oracle stands in for the probe
evaluator, so these tests pin down the *search* behaviour alone --
bracketing, batch speculation, convergence, the stage-cap sharpening and
the Pareto front/refinement logic.
"""

from __future__ import annotations

import pytest

from repro.dse.optimizer import (
    BestPoint,
    MinClockOptimizer,
    Optimizer,
    ParetoOptimizer,
)
from repro.dse.warm import ProbeOutcome


def outcome(period: float, feasible: bool, stages: int | None = None,
            registers: int | None = None) -> ProbeOutcome:
    return ProbeOutcome(design="synthetic", clock_period_ps=period,
                        feasible=feasible,
                        reason="" if feasible else "budget",
                        num_stages=stages, num_registers=registers)


def drive(optimizer, oracle, width: int = 1) -> int:
    """Run an optimizer against a feasibility oracle; returns probe count."""
    probes = 0
    while not optimizer.done:
        batch = optimizer.next_batch(width)
        if not batch:
            break
        for period in batch:
            optimizer.process_outcome(period, oracle(period))
            probes += 1
    return probes


def threshold_oracle(min_feasible: float):
    """Feasible exactly at and above ``min_feasible`` (monotone)."""
    def oracle(period: float) -> ProbeOutcome:
        return outcome(period, period >= min_feasible,
                       stages=4, registers=100)
    return oracle


class TestMinClockOptimizer:
    def test_satisfies_protocol(self):
        optimizer = MinClockOptimizer("d", 1000.0)
        assert isinstance(optimizer, Optimizer)

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_converges_to_threshold(self, width):
        optimizer = MinClockOptimizer("d", 2000.0, resolution_ps=5.0)
        drive(optimizer, threshold_oracle(731.0), width=width)
        assert optimizer.converged
        best = optimizer.best
        assert isinstance(best, BestPoint)
        # The answer brackets the true threshold from above, within
        # resolution.
        assert 731.0 <= best.clock_period_ps <= 731.0 + 5.0

    def test_wider_batches_never_hurt_convergence(self):
        narrow = MinClockOptimizer("d", 2000.0, resolution_ps=5.0)
        wide = MinClockOptimizer("d", 2000.0, resolution_ps=5.0)
        drive(narrow, threshold_oracle(500.0), width=1)
        drive(wide, threshold_oracle(500.0), width=8)
        assert narrow.converged and wide.converged
        assert wide.best.clock_period_ps <= narrow.best.clock_period_ps + 5.0

    def test_brackets_upwards_when_start_infeasible(self):
        optimizer = MinClockOptimizer("d", 100.0, resolution_ps=5.0)
        drive(optimizer, threshold_oracle(900.0))
        assert optimizer.converged
        assert 900.0 <= optimizer.best.clock_period_ps <= 905.0

    def test_respects_probe_budget(self):
        optimizer = MinClockOptimizer("d", 2000.0, resolution_ps=1e-9,
                                      max_probes=7)
        probes = drive(optimizer, threshold_oracle(700.0))
        assert probes <= 7
        assert optimizer.done and not optimizer.converged

    def test_stage_cap_sharpens_feasibility(self):
        def oracle(period: float) -> ProbeOutcome:
            # Feasible everywhere above 400, but only within the cap above
            # 1000: the capped answer must be ~1000, not ~400.
            stages = 3 if period >= 1000.0 else 9
            return outcome(period, period >= 400.0, stages=stages,
                           registers=50)

        capped = MinClockOptimizer("d", 2000.0, resolution_ps=5.0,
                                   max_stages=4)
        drive(capped, oracle)
        assert capped.converged
        assert 1000.0 <= capped.best.clock_period_ps <= 1005.0
        assert capped.best.outcome.num_stages == 3

    def test_non_monotone_feasibility_drops_stale_floor(self):
        optimizer = MinClockOptimizer("d", 2000.0, resolution_ps=5.0)
        optimizer.process_outcome(1000.0, outcome(1000.0, False))
        assert optimizer.infeasible_at == 1000.0
        # A later feasible point *below* the recorded floor invalidates it.
        optimizer.process_outcome(800.0, outcome(800.0, True, 4, 10))
        assert optimizer.feasible_at == 800.0
        assert optimizer.infeasible_at is None
        assert not optimizer.converged

    def test_never_reproposes_answered_periods(self):
        optimizer = MinClockOptimizer("d", 2000.0, resolution_ps=1.0)
        oracle = threshold_oracle(620.0)
        seen: list[float] = []
        while not optimizer.done:
            batch = optimizer.next_batch(4)
            if not batch:
                break
            assert not set(batch) & set(seen)
            assert len(set(batch)) == len(batch)
            seen.extend(batch)
            for period in batch:
                optimizer.process_outcome(period, oracle(period))

    def test_best_is_none_before_any_feasible_probe(self):
        optimizer = MinClockOptimizer("d", 1000.0)
        assert optimizer.best is None
        optimizer.process_outcome(500.0, outcome(500.0, False))
        assert optimizer.best is None

    @pytest.mark.parametrize("kwargs", [
        {"start_clock_ps": 0.0},
        {"start_clock_ps": 100.0, "resolution_ps": 0.0},
        {"start_clock_ps": 100.0, "bracket_factor": 1.0},
        {"start_clock_ps": 100.0, "max_probes": 0},
        {"start_clock_ps": float("nan")},
        {"start_clock_ps": float("inf")},
        {"start_clock_ps": 100.0, "resolution_ps": float("nan")},
        {"start_clock_ps": 100.0, "resolution_ps": float("inf")},
        {"start_clock_ps": 100.0, "max_stages": 0},
        {"start_clock_ps": 100.0, "max_stages": -3},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            MinClockOptimizer("d", **kwargs)


class TestParetoOptimizer:
    @staticmethod
    def staircase(period: float) -> ProbeOutcome:
        """Longer periods -> fewer stages and fewer registers (realistic)."""
        if period < 300.0:
            return outcome(period, False)
        stages = max(1, int(3000.0 // period))
        return outcome(period, True, stages=stages, registers=stages * 11)

    def test_front_is_a_trade_off_staircase(self):
        optimizer = ParetoOptimizer("d", 1000.0, points=10)
        drive(optimizer, self.staircase, width=4)
        front = optimizer.front()
        assert front
        periods = [p.clock_period_ps for p in front]
        register_counts = [p.num_registers for p in front]
        assert periods == sorted(periods)
        # Strictly fewer registers at every slower point -- otherwise the
        # slower point is dominated and must not be on the front.
        assert register_counts == sorted(set(register_counts), reverse=True)
        assert optimizer.converged

    def test_refinement_fills_stage_gaps(self):
        unrefined = ParetoOptimizer("d", 1000.0, points=3, span=(0.4, 2.0),
                                    refine_rounds=0)
        refined = ParetoOptimizer("d", 1000.0, points=3, span=(0.4, 2.0),
                                  refine_rounds=3)
        drive(unrefined, self.staircase, width=2)
        drive(refined, self.staircase, width=2)
        assert len(refined.front()) >= len(unrefined.front())
        assert len(refined.outcomes) > len(unrefined.outcomes)

    def test_best_is_the_fastest_clock_on_the_front(self):
        optimizer = ParetoOptimizer("d", 1000.0, points=6)
        drive(optimizer, self.staircase)
        best = optimizer.best
        assert best is not None
        assert best.clock_period_ps == min(
            p.clock_period_ps for p in optimizer.front())

    def test_all_infeasible_is_done_but_not_converged(self):
        optimizer = ParetoOptimizer("d", 1000.0, points=4)
        drive(optimizer, lambda period: outcome(period, False))
        assert optimizer.done
        assert not optimizer.converged
        assert optimizer.best is None
        assert optimizer.front() == []

    @pytest.mark.parametrize("kwargs", [
        {"start_clock_ps": 0.0},
        {"start_clock_ps": 100.0, "points": 1},
        {"start_clock_ps": 100.0, "span": (2.0, 0.5)},
        {"start_clock_ps": 100.0, "span": (0.0, 2.0)},
        {"start_clock_ps": float("nan")},
        {"start_clock_ps": float("inf")},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            ParetoOptimizer("d", **kwargs)
