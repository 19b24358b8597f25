"""Search strategies over black-box clock-period probes.

An optimizer never evaluates anything itself: :meth:`Optimizer.next_batch`
proposes up to ``limit`` clock periods, the driver evaluates them (possibly
in parallel) and feeds every result back through
:meth:`Optimizer.process_outcome`, and ``done``/``best`` report
convergence.  Proposing *batches* rather than single points is what makes
``--jobs N`` useful: a bisection that only ever asks one question at a time
cannot use more than one worker, so :class:`MinClockOptimizer` speculates
-- it splits the current bracket into ``limit + 1`` equal parts (or probes
a geometric ladder while still bracketing) and every answer tightens the
bracket no matter which speculative point lands where.

The shape follows xeda's fmax search (FmaxOptimizer: bracket init,
resolution stopping; dse_runner: ``next_batch`` / ``process_outcome``
over a worker pool), specialised to deterministic feasibility probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.dse.warm import ProbeOutcome


@dataclass(frozen=True)
class BestPoint:
    """The best point an optimizer has found so far."""

    clock_period_ps: float
    outcome: ProbeOutcome


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the latency / register-count trade-off front."""

    clock_period_ps: float
    num_stages: int
    num_registers: int


@runtime_checkable
class Optimizer(Protocol):
    """The propose / observe contract of a DSE search strategy.

    The driver loop is::

        while not optimizer.done:
            batch = optimizer.next_batch(limit=jobs)
            if not batch:
                break
            for period, outcome in zip(batch, evaluate(batch)):
                optimizer.process_outcome(period, outcome)

    ``next_batch`` never re-proposes an already-answered period, and every
    proposed period is answered before the next call (the driver enforces
    this).  ``best`` is ``None`` until a feasible point has been seen.
    """

    design: str

    def next_batch(self, limit: int) -> list[float]:  # pragma: no cover
        ...

    def process_outcome(self, clock_period_ps: float,
                        outcome: ProbeOutcome) -> None:  # pragma: no cover
        ...

    @property
    def done(self) -> bool:  # pragma: no cover - protocol
        ...

    @property
    def best(self) -> BestPoint | None:  # pragma: no cover - protocol
        ...


class MinClockOptimizer:
    """Bracketing + batch-speculative bisection for the minimum feasible clock.

    Phase 1 (bracketing): starting from the design's registry clock period,
    probe a geometric ladder downwards until an infeasible period is seen
    (or upwards, if even the start is infeasible).  Phase 2 (bisection):
    with a bracket ``(infeasible_at, feasible_at)`` in hand, split the gap
    into ``limit + 1`` equal parts per batch and tighten on the answers,
    stopping when the bracket is within ``resolution_ps``.

    Feasibility is the probe's, optionally sharpened by ``max_stages``
    (a feasible schedule deeper than the cap counts as infeasible -- this
    is what makes the search non-trivial, since pure SDC feasibility has
    an analytic answer).  Feasibility need not be monotone under a stage
    cap; a feasible point below the recorded infeasibility floor simply
    drops the floor and resumes bracketing.

    Attributes:
        design: design name (for reporting).
        outcomes: every processed probe, keyed by period.
        feasible_at: lowest feasible period seen (the running answer).
        infeasible_at: highest infeasible period below ``feasible_at``.
    """

    def __init__(self, design: str, start_clock_ps: float,
                 resolution_ps: float = 25.0, bracket_factor: float = 2.0,
                 max_probes: int = 96, max_stages: int | None = None) -> None:
        if not 0 < start_clock_ps < math.inf:
            raise ValueError("start_clock_ps must be positive and finite")
        if not 0 < resolution_ps < math.inf:
            raise ValueError("resolution_ps must be positive and finite")
        if bracket_factor <= 1:
            raise ValueError("bracket_factor must exceed 1")
        if max_probes < 1:
            raise ValueError("max_probes must be at least 1")
        if max_stages is not None and max_stages < 1:
            raise ValueError("max_stages must be at least 1")
        self.design = design
        self.start_clock_ps = float(start_clock_ps)
        self.resolution_ps = float(resolution_ps)
        self.bracket_factor = float(bracket_factor)
        self.max_probes = int(max_probes)
        self.max_stages = max_stages
        self.outcomes: dict[float, ProbeOutcome] = {}
        self.feasible_at: float | None = None
        self.infeasible_at: float | None = None
        self._best_outcome: ProbeOutcome | None = None
        self._pinched = False

    def _is_feasible(self, outcome: ProbeOutcome) -> bool:
        if not outcome.feasible:
            return False
        if self.max_stages is not None and outcome.num_stages is not None:
            return outcome.num_stages <= self.max_stages
        return True

    @property
    def converged(self) -> bool:
        """True when the bracket is tighter than the resolution."""
        return (self.feasible_at is not None
                and self.infeasible_at is not None
                and self.feasible_at - self.infeasible_at
                <= self.resolution_ps)

    @property
    def done(self) -> bool:
        return (self.converged or self._pinched
                or len(self.outcomes) >= self.max_probes)

    @property
    def best(self) -> BestPoint | None:
        if self.feasible_at is None or self._best_outcome is None:
            return None
        return BestPoint(self.feasible_at, self._best_outcome)

    def next_batch(self, limit: int = 1) -> list[float]:
        """Up to ``limit`` fresh periods to probe (empty when done)."""
        limit = max(1, int(limit))
        if self.done:
            return []
        limit = min(limit, self.max_probes - len(self.outcomes))
        if self.feasible_at is not None and self.infeasible_at is not None:
            low, high = self.infeasible_at, self.feasible_at
            gap = high - low
            candidates = [low + gap * step / (limit + 1)
                          for step in range(1, limit + 1)]
        elif self.feasible_at is not None:
            # Bracket downwards from the feasible ceiling.
            candidates = [self.feasible_at / self.bracket_factor ** step
                          for step in range(1, limit + 1)]
        elif self.infeasible_at is not None:
            # Even the start was infeasible: bracket upwards.
            candidates = [self.infeasible_at * self.bracket_factor ** step
                          for step in range(1, limit + 1)]
        else:
            # First batch: the registry period, then a downward ladder.
            candidates = [self.start_clock_ps / self.bracket_factor ** step
                          for step in range(limit)]
        fresh: list[float] = []
        for period in candidates:
            if period > 0 and period not in self.outcomes \
                    and period not in fresh:
                fresh.append(period)
        if not fresh:
            # Floating-point pinch: the bracket cannot be split further.
            self._pinched = True
        return fresh

    def process_outcome(self, clock_period_ps: float,
                        outcome: ProbeOutcome) -> None:
        """Record one probe result and tighten the bracket."""
        period = float(clock_period_ps)
        self.outcomes[period] = outcome
        if self._is_feasible(outcome):
            if self.feasible_at is None or period < self.feasible_at:
                self.feasible_at = period
                self._best_outcome = outcome
                if self.infeasible_at is not None \
                        and self.infeasible_at >= period:
                    # Non-monotone feasibility (stage cap): the floor was
                    # wrong, resume bracketing below the new ceiling.
                    self.infeasible_at = None
        else:
            if (self.feasible_at is None or period < self.feasible_at) and \
                    (self.infeasible_at is None or period > self.infeasible_at):
                self.infeasible_at = period


class ParetoOptimizer:
    """Latency (clock period) vs. register-count front across periods.

    A shorter clock period means a faster, deeper pipeline but more
    register bits; a longer one means fewer registers at lower speed --
    the genuine two-objective trade-off of pipeline scheduling, with both
    objectives cost-like (lower is better).  Phase 1 sweeps an even grid
    of ``points`` periods over ``span`` x the start period.  Each
    refinement round then probes the midpoint between every pair of
    adjacent front points whose stage counts differ by more than one --
    the gaps where undiscovered trade-off points can hide.

    Attributes:
        design: design name (for reporting).
        outcomes: every processed probe, keyed by period.
    """

    def __init__(self, design: str, start_clock_ps: float,
                 points: int = 8, span: tuple[float, float] = (0.5, 2.0),
                 refine_rounds: int = 1) -> None:
        if not 0 < start_clock_ps < math.inf:
            raise ValueError("start_clock_ps must be positive and finite")
        if points < 2:
            raise ValueError("points must be at least 2")
        if not 0 < span[0] < span[1]:
            raise ValueError("span must satisfy 0 < low < high")
        self.design = design
        self.start_clock_ps = float(start_clock_ps)
        self.points = int(points)
        self.span = (float(span[0]), float(span[1]))
        self.outcomes: dict[float, ProbeOutcome] = {}
        self._rounds_left = max(0, int(refine_rounds))
        low = self.start_clock_ps * self.span[0]
        high = self.start_clock_ps * self.span[1]
        self._queue: list[float] = [
            low + (high - low) * index / (self.points - 1)
            for index in range(self.points)]
        self._issued: set[float] = set()
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def converged(self) -> bool:
        """A Pareto sweep converges exactly when it has a non-empty front."""
        return self._done and bool(self.front())

    @property
    def best(self) -> BestPoint | None:
        """The fastest-clock front point (the search's ``min_clock_ps``)."""
        front = self.front()
        if not front:
            return None
        fastest = front[0]
        return BestPoint(fastest.clock_period_ps,
                         self.outcomes[fastest.clock_period_ps])

    def front(self) -> list[ParetoPoint]:
        """The non-dominated (period, registers) points, period ascending.

        Scanning periods ascending, a probe joins the front exactly when
        it has strictly fewer registers than every faster probe -- the
        classic staircase of a two-cost Pareto set.
        """
        front: list[ParetoPoint] = []
        best_registers: int | None = None
        for period in sorted(self.outcomes):
            outcome = self.outcomes[period]
            if not outcome.feasible or outcome.num_stages is None:
                continue
            if best_registers is None \
                    or outcome.num_registers < best_registers:
                best_registers = outcome.num_registers
                front.append(ParetoPoint(period, outcome.num_stages,
                                         outcome.num_registers))
        return front

    def _refinement_candidates(self) -> list[float]:
        front = self.front()
        candidates: list[float] = []
        for left, right in zip(front, front[1:]):
            if abs(left.num_stages - right.num_stages) > 1:
                midpoint = (left.clock_period_ps + right.clock_period_ps) / 2
                if midpoint not in self.outcomes:
                    candidates.append(midpoint)
        return candidates

    def next_batch(self, limit: int = 1) -> list[float]:
        """Up to ``limit`` fresh periods to probe (empty when done)."""
        limit = max(1, int(limit))
        while not self._queue and not self._issued and not self._done:
            if self._rounds_left <= 0:
                self._done = True
                break
            self._rounds_left -= 1
            self._queue = self._refinement_candidates()
        batch: list[float] = []
        while self._queue and len(batch) < limit:
            period = self._queue.pop(0)
            if period in self.outcomes or period in self._issued \
                    or period in batch:
                continue
            batch.append(period)
        self._issued.update(batch)
        return batch

    def process_outcome(self, clock_period_ps: float,
                        outcome: ProbeOutcome) -> None:
        """Record one probe result."""
        period = float(clock_period_ps)
        self.outcomes[period] = outcome
        self._issued.discard(period)
