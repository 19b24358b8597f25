"""The DSE driver: per-design searches over per-worker probe caches.

One design's search is one function: :func:`search_clock` (``minclock``
and ``pareto``: loop ``next_batch`` -> evaluate -> ``process_outcome``
until the optimizer converges) or :func:`search_min_ii` (``min-ii``).
:func:`run_dse` runs them over a list of designs with batches fanned out
over a persistent process pool (:class:`~repro.parallel.PersistentPool`);
the scheduling service runs the same functions over one in-process
cache, so its answers are the offline per-design entries.  Every worker
process keeps its own module-global :class:`~repro.dse.warm.ProblemCache`
so warm-start state accumulates worker-locally across batches and designs.
Because warm-started probes are byte-identical to cold ones, the schedule
results never depend on which worker (or which donor period) served a
probe -- only the provenance counters do.

Batch *width* is decoupled from worker count by ``speculate``: the
optimizer always proposes ``speculate`` periods per batch (default: the
job count), so ``--jobs 1`` and ``--jobs 8`` with the same ``--speculate``
probe the same period sequence and produce the same deterministic payload
(:func:`deterministic_payload` strips the provenance/timing fields that
legitimately differ).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.dse.optimizer import (
    MinClockOptimizer,
    Optimizer,
    ParetoOptimizer,
    ParetoPoint,
)
from repro.dse.warm import ProbeOutcome, ProblemCache
from repro.parallel import PersistentPool

MODES = ("minclock", "pareto", "min-ii")

#: Per-process cache, keyed by latency weight (the one config knob that
#: changes solve results).  Worker processes are forked lazily on first
#: use, so each inherits whatever the parent had and then diverges.
_CACHES: dict[float, ProblemCache] = {}


def worker_cache(latency_weight: float = 1e-3) -> ProblemCache:
    """This process's :class:`ProblemCache` for a latency weight."""
    cache = _CACHES.get(latency_weight)
    if cache is None:
        cache = ProblemCache(latency_weight=latency_weight)
        _CACHES[latency_weight] = cache
    return cache


def reset_worker_caches() -> None:
    """Drop this process's caches (test isolation helper)."""
    _CACHES.clear()


def evaluate_probe(item: tuple[str, float]) -> ProbeOutcome:
    """Pool entry point: evaluate one ``(design, period)`` probe."""
    design, clock_period_ps = item
    return worker_cache().probe(design, clock_period_ps)


def evaluate_min_ii(design: str) -> DesignSearchResult:
    """Pool entry point: run one design's whole minimum-II search in-worker.

    Unlike clock probes (one LP solve each, batched by the optimizer), a
    min-II search is an inherently sequential bisection over *one* shared
    problem -- so the unit of parallelism is the design, and the II-axis
    warm-start reuse (``rebase_ii`` rhs patches) happens inside the worker.
    """
    return search_min_ii(worker_cache(), design)


@dataclass
class DesignSearchResult:
    """Everything one design's search produced.

    ``min_clock_ps``, ``converged``, the probe schedule fields and
    ``front`` are deterministic; ``stats`` (warm-start provenance) and
    ``elapsed_s`` depend on worker layout and wall clock.
    """

    design: str
    mode: str
    start_clock_ps: float
    min_clock_ps: float | None
    converged: bool
    probes: list[ProbeOutcome]
    min_ii: int | None = None
    front: list[ParetoPoint] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_payload(self) -> dict:
        """JSON payload row; see :func:`deterministic_payload` for the core."""
        return {
            "design": self.design,
            "mode": self.mode,
            "start_clock_ps": self.start_clock_ps,
            "min_clock_ps": self.min_clock_ps,
            "min_ii": self.min_ii,
            "converged": self.converged,
            "num_probes": len(self.probes),
            "probes": [outcome.to_payload()
                       for outcome in sorted(
                           self.probes,
                           key=lambda o: o.clock_period_ps)],
            "front": [{"clock_period_ps": point.clock_period_ps,
                       "num_stages": point.num_stages,
                       "num_registers": point.num_registers}
                      for point in self.front],
            "warm": dict(self.stats),
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class DseResult:
    """The result of one :func:`run_dse` call."""

    mode: str
    resolution_ps: float
    max_stages: int | None
    jobs: int
    speculate: int
    designs: list[DesignSearchResult]
    elapsed_s: float = 0.0

    def to_payload(self) -> dict:
        """The ``dse`` experiment payload body (serialize schema >= 5)."""
        return {
            "mode": self.mode,
            "resolution_ps": self.resolution_ps,
            "max_stages": self.max_stages,
            "speculate": self.speculate,
            "designs": [result.to_payload() for result in self.designs],
        }


#: Per-design payload keys that legitimately vary with worker layout or
#: wall clock; everything else must be byte-identical across ``jobs``.
NONDETERMINISTIC_KEYS = ("warm", "elapsed_s")

#: Body schema of ``dse-probe`` artifact-store records.
DSE_PROBE_BODY_SCHEMA = 1


def probe_key(design: str, mode: str, clock_period_ps: float,
              max_stages: int | None = None, ii: int | None = None) -> str:
    """Content key of one DSE probe in the unified artifact store.

    Identity is the *question asked* -- design, search mode, probed clock
    period and the stage bound that changes feasibility -- never the
    answer, so re-running a search overwrites rather than duplicates its
    probes (probe outcomes are deterministic for a fixed question).  In
    ``min-ii`` mode the probed II candidate is part of the question (all
    candidates share one clock period); for clock-axis modes the II is an
    answer and stays out of the key, which also keeps pre-II record keys
    unchanged.
    """
    from repro.store import content_key

    identity = {"design": design, "mode": mode,
                "clock_period_ps": clock_period_ps,
                "max_stages": max_stages}
    if ii is not None:
        identity["ii"] = ii
    return content_key(identity)


def probe_records(result: "DseResult") -> list:
    """``dse-probe`` store records of every probe a search evaluated.

    Bodies carry the deterministic probe payload plus the identity fields
    (design/mode/max_stages); warm-start provenance stays out, so records
    from ``--jobs 1`` and ``--jobs 8`` runs are byte-identical.
    """
    from repro.store import StoreRecord

    records = []
    for design in result.designs:
        for outcome in sorted(design.probes, key=lambda o: o.clock_period_ps):
            body = dict(outcome.to_payload())
            body["design"] = design.design
            body["mode"] = design.mode
            body["max_stages"] = result.max_stages
            records.append(StoreRecord(
                kind="dse-probe",
                key=probe_key(design.design, design.mode,
                              outcome.clock_period_ps, result.max_stages,
                              ii=outcome.ii if design.mode == "min-ii"
                              else None),
                schema=DSE_PROBE_BODY_SCHEMA, body=body))
    return records


def deterministic_payload(payload: dict) -> dict:
    """The payload with the provenance/timing fields stripped.

    Two :func:`run_dse` calls with the same designs, mode and ``speculate``
    produce equal deterministic payloads regardless of ``jobs`` (warm-start
    byte parity makes probe results worker-independent; only the
    provenance counters and wall-clock fields differ).
    """
    stripped = dict(payload)
    stripped["designs"] = [
        {key: value for key, value in design.items()
         if key not in NONDETERMINISTIC_KEYS}
        for design in payload.get("designs", ())]
    return stripped


def _design_stats(probes: list[ProbeOutcome]) -> dict[str, float]:
    """Aggregate warm-start provenance counters over one design's probes."""
    memo_hits = sum(1 for o in probes if o.memo_hit)
    warm_solves = sum(1 for o in probes if o.warm_patched)
    reused = sum(1 for o in probes if o.solution_reuse)
    lp_rebuilds = sum(1 for o in probes if o.lp_rebuild)
    budget_skips = sum(1 for o in probes
                       if not o.feasible and o.reason == "budget"
                       and not o.memo_hit)
    served = memo_hits + warm_solves + lp_rebuilds
    return {
        "memo_hits": memo_hits,
        "warm_solves": warm_solves,
        "reused_solutions": reused,
        "lp_rebuilds": lp_rebuilds,
        "budget_skips": budget_skips,
        "bound_patches": sum(o.bound_patches for o in probes),
        "warm_hit_rate": (memo_hits + warm_solves) / served if served else 0.0,
        "solve_time_s": sum(o.solve_time_s for o in probes),
    }


def make_optimizer(mode: str, design: str, start_clock_ps: float,
                   resolution_ps: float = 25.0, max_stages: int | None = None,
                   max_probes: int = 96, points: int = 8) -> Optimizer:
    """Construct the optimizer for one design by mode name.

    Raises:
        ValueError: for an unknown mode.
    """
    if mode == "minclock":
        return MinClockOptimizer(design, start_clock_ps,
                                 resolution_ps=resolution_ps,
                                 max_probes=max_probes,
                                 max_stages=max_stages)
    if mode == "pareto":
        return ParetoOptimizer(design, start_clock_ps, points=points)
    raise ValueError(f"unknown DSE mode {mode!r}; expected one of "
                     + ", ".join(MODES))


def drive_optimizer(optimizer: Optimizer, evaluate, width: int
                    ) -> list[ProbeOutcome]:
    """Run one optimizer to convergence over an ``evaluate(batch)`` callable.

    ``evaluate`` receives a list of clock periods and returns the matching
    :class:`ProbeOutcome` list (in order).  Returns every probe outcome in
    evaluation order.
    """
    probes: list[ProbeOutcome] = []
    while not optimizer.done:
        batch = optimizer.next_batch(width)
        if not batch:
            break
        for period, outcome in zip(batch, evaluate(batch)):
            optimizer.process_outcome(period, outcome)
            probes.append(outcome)
    return probes


def search_clock(design: str, mode: str, start_clock_ps: float, evaluate,
                 speculate: int, resolution_ps: float = 25.0,
                 max_stages: int | None = None, max_probes: int = 96,
                 points: int = 8) -> DesignSearchResult:
    """One design's ``minclock`` or ``pareto`` search.

    ``evaluate(batch)`` answers a list of clock periods with the matching
    :class:`ProbeOutcome` list: :func:`run_dse` fans batches out over its
    pool, the service probes one in-process cache.  The probed period
    sequence depends only on ``speculate`` (the batch width), never on
    who evaluates it.
    """
    started = time.perf_counter()
    optimizer = make_optimizer(mode, design, start_clock_ps,
                               resolution_ps=resolution_ps,
                               max_stages=max_stages, max_probes=max_probes,
                               points=points)
    probes = drive_optimizer(optimizer, evaluate, speculate)
    best = optimizer.best
    front = optimizer.front() if mode == "pareto" else []
    return DesignSearchResult(
        design=design, mode=mode, start_clock_ps=start_clock_ps,
        min_clock_ps=best.clock_period_ps if best else None,
        converged=optimizer.converged, probes=probes, front=front,
        stats=_design_stats(probes),
        elapsed_s=time.perf_counter() - started)


def search_min_ii(cache: ProblemCache, design: str,
                  clock_period_ps: float | None = None) -> DesignSearchResult:
    """One design's minimum-II search (:meth:`ProblemCache.min_ii_search`).

    The search runs at ``clock_period_ps``, or at the design's registry
    clock when omitted; ``probes`` holds one outcome per II candidate.
    """
    started = time.perf_counter()
    final, probes = cache.min_ii_search(design, clock_period_ps)
    return DesignSearchResult(
        design=design, mode="min-ii", start_clock_ps=final.clock_period_ps,
        min_clock_ps=None, min_ii=final.ii if final.feasible else None,
        converged=final.feasible, probes=probes,
        stats=_design_stats(probes),
        elapsed_s=time.perf_counter() - started)


def run_dse(designs: list[str], mode: str = "minclock", jobs: int = 1,
            speculate: int | None = None, resolution_ps: float = 25.0,
            max_stages: int | None = None, max_probes: int = 96,
            points: int = 8, verbose: bool = False) -> DseResult:
    """Search every design and return the combined :class:`DseResult`.

    Args:
        designs: Table-I registry names, ``gen:``/``loop:`` specs or
            ``.ir`` file paths.
        mode: ``"minclock"``, ``"pareto"`` or ``"min-ii"``.
        jobs: worker processes; clock modes evaluate one probe batch in
            parallel, ``min-ii`` runs one whole design search per task.
        speculate: batch width (periods proposed per round); defaults to
            ``jobs``.  Fixing it decouples the probed period sequence from
            the worker count.
        resolution_ps: min-clock convergence threshold (bracket width).
        max_stages: optional pipeline-depth cap sharpening feasibility.
        max_probes: per-design probe budget (min-clock mode).
        points: grid size of the Pareto sweep.
        verbose: print one summary line per design as it finishes.
    """
    if mode not in MODES:
        raise ValueError(f"unknown DSE mode {mode!r}; expected one of "
                         + ", ".join(MODES))
    # Resolve every design name before doing any work, so a typo in the
    # last design does not waste the whole search.
    from repro.designs.generator import case_from_name
    cases = [(name, case_from_name(name)) for name in designs]

    jobs = max(1, int(jobs))
    width = max(1, int(speculate) if speculate is not None else jobs)
    started = time.perf_counter()
    results: list[DesignSearchResult] = []

    def searches(pool: PersistentPool):
        if mode == "min-ii":
            # The min-II search is sequential per design (a bisection over
            # one shared problem), so the pool parallelises across designs
            # and each worker runs a whole search.
            yield from pool.map(evaluate_min_ii, [name for name, _ in cases])
            return
        for name, case in cases:
            def evaluate(batch: list[float]) -> list[ProbeOutcome]:
                return pool.map(evaluate_probe,
                                [(name, period) for period in batch])

            yield search_clock(name, mode, case.clock_period_ps, evaluate,
                               width, resolution_ps=resolution_ps,
                               max_stages=max_stages, max_probes=max_probes,
                               points=points)

    with PersistentPool(jobs) as pool:
        for result in searches(pool):
            results.append(result)
            if verbose:
                print(_summary_line(result))
    return DseResult(mode=mode, resolution_ps=float(resolution_ps),
                     max_stages=max_stages, jobs=jobs, speculate=width,
                     designs=results,
                     elapsed_s=time.perf_counter() - started)


def _summary_line(result: DesignSearchResult) -> str:
    """The ``--verbose`` line of one finished design search."""
    if result.mode == "min-ii":
        # An empty trace means the budget check refused the clock outright.
        minimum = (f"II {result.min_ii}" if result.min_ii is not None
                   else f"infeasible ({'lp' if result.probes else 'budget'})")
        return (f"[dse] {result.design}: {minimum} after "
                f"{len(result.probes)} II probes ({result.elapsed_s:.2f}s)")
    minimum = (f"{result.min_clock_ps:.1f} ps"
               if result.min_clock_ps is not None else "n/a")
    return (f"[dse] {result.design}: min clock {minimum} after "
            f"{len(result.probes)} probes "
            f"(warm hit rate {result.stats['warm_hit_rate']:.0%}, "
            f"{result.elapsed_s:.2f}s)")
