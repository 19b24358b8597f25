"""Minimum-feasible-II search over a persistent scheduling problem.

Modulo scheduling adds one difference constraint per loop back-edge,
``s_src - s_phi <= II * distance - 1``, so for a fixed graph and clock the
feasible region only *grows* with the initiation interval: II feasibility
is monotone.  That makes the minimum II a bracket-and-bisect search over a
single :class:`~repro.sdc.problem.ScheduleProblem` -- each probe is a
:meth:`~repro.sdc.problem.ScheduleProblem.rebase_ii` (an in-place patch of
the loop bounds, never a rebuild) followed by one
:func:`~repro.sdc.solver.solve_problem` call.  This is the same
bound-patch discipline the ISDC loop uses for ``retarget``, applied to the
II axis.
"""

from __future__ import annotations

from typing import Callable

from repro.sdc.problem import ScheduleProblem
from repro.sdc.solver import SdcInfeasibleError, solve_problem

ProbeCallback = Callable[[int, bool, dict[int, int] | None], None]


def _probe(problem: ScheduleProblem, ii: int,
           on_probe: ProbeCallback | None) -> dict[int, int] | None:
    """Solve the problem rebased at ``ii``; None when infeasible."""
    problem.rebase_ii(ii)
    try:
        stages = solve_problem(problem)
    except SdcInfeasibleError:
        stages = None
    if on_probe is not None:
        on_probe(ii, stages is not None, stages)
    return stages


def min_feasible_ii(problem: ScheduleProblem, max_ii: int | None = None,
                    on_probe: ProbeCallback | None = None
                    ) -> tuple[int, dict[int, int]]:
    """Find the smallest feasible initiation interval of ``problem``.

    Probes II = 1 first (feed-forward graphs and loops whose recurrences
    fit one cycle stop after a single solve), then doubles the candidate
    until feasible and bisects the bracket.  Every probe reuses the same
    problem via :meth:`~repro.sdc.problem.ScheduleProblem.rebase_ii`, so
    the cost per probe is one bound patch and one solve.

    The search cap defaults to ``len(graph) + 1``: with unit distances the
    recurrence constraint ``s_src - s_phi <= II * d - 1`` is implied by the
    dependency chain once II exceeds the longest path, so any graph that is
    schedulable at all (for the given clock) is schedulable by then -- a
    larger II can only relax the loop constraints further.

    Args:
        problem: the persistent scheduling problem (its graph may or may
            not carry back-edges).
        max_ii: optional explicit search cap (>= 1).
        on_probe: optional callback ``(ii, feasible, stages)`` invoked after
            every probe, in probe order -- the DSE layer records probe
            traces through this.

    Returns:
        ``(ii, stages)`` for the minimum feasible II.  The problem is left
        rebased at that II.

    Raises:
        SdcInfeasibleError: if no II up to the cap is feasible (the clock
            period itself is unschedulable for this graph).
        ValueError: if ``max_ii`` is not positive.
    """
    cap = len(problem.graph) + 1 if max_ii is None else int(max_ii)
    if cap < 1:
        raise ValueError(f"max_ii must be >= 1, got {max_ii}")

    stages = _probe(problem, 1, on_probe)
    if stages is not None:
        return 1, stages

    # Bracket: double until feasible (or the cap says give up).
    low = 1  # known infeasible
    high = 2
    best: dict[int, int] | None = None
    while high <= cap:
        stages = _probe(problem, high, on_probe)
        if stages is not None:
            best = stages
            break
        low = high
        high *= 2
    if best is None:
        if high // 2 < cap:  # cap not yet probed by the doubling sequence
            stages = _probe(problem, cap, on_probe)
            if stages is not None:
                low, high, best = high // 2, cap, stages
        if best is None:
            raise SdcInfeasibleError(
                f"no feasible initiation interval up to {cap} for graph "
                f"{problem.graph.name!r}")

    # Bisect (low infeasible, high feasible with schedule `best`).
    while high - low > 1:
        mid = (low + high) // 2
        stages = _probe(problem, mid, on_probe)
        if stages is not None:
            high, best = mid, stages
        else:
            low = mid
    if problem.ii != high:
        # Leave the problem rebased at the answer (the last probe may have
        # been an infeasible midpoint).
        problem.rebase_ii(high)
    return high, best
