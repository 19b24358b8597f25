"""Workload ``service-mixed``: seeded Poisson replay into the service.

An in-process :class:`~repro.service.SchedulingService` (``jobs=1``, store
on) answers ``schedule`` requests over Table-I rows times a clock ladder.
Every ``FRESH_EVERY``-th arrival asks a point nobody asked yet, in one
fixed order (ladder step by ladder step across the designs), so every
seed gives the worker the same cold builds and warm starts, spread evenly
over the replay; the other arrivals revisit a point already asked, and
``BURST_SHARE`` of all arrivals are bursts of identical requests that
must coalesce.  The seed sets arrival times, hot draws and bursts.
``sha256`` is left out: one of its cold solves takes 0.3--1 s and would
hold the single worker for a whole second of the replay.

A run serves the request list from a fresh state each time (new service,
store and pool worker):

* ``CLOSED_PASSES`` times in a closed loop, one caller awaiting each
  request before the next (``wall_s`` is the median pass);
* once in an open loop at ``NOMINAL_RPS``: a generator process releases
  each arrival at its due time and latency is timed from the due time
  (``service.p50_ms``, ``service.p99_ms``);
* in open loops at rising rates, bisected until the rates that pass and
  fail ``LIMIT_MS`` are within ``RESOLUTION`` (``service.max_rps``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from layers import install_store_spans, split_lines
from measure import percentile, process_peak_rss_mb
from tracing import Tracer

NAME = "service-mixed"

#: Clock periods asked per design, as multiples of its Table-I clock.
CLOCK_LADDER = (1.0, 1.1, 0.9, 1.25, 0.8, 1.5, 0.85, 1.2)
EXCLUDED = ("sha256",)
#: One arrival in this many asks a new point (90% hot draws).
FRESH_EVERY = 10
BURST_SHARE = 0.2
BURST_SIZES = (2, 3, 4)
#: Arrivals per replay (about 1400 requests with the bursts).
ARRIVALS = 1000
NOMINAL_RPS = 200.0
CLOSED_PASSES = 5
#: The limit ``max_rps`` is held to: p99 latency from due time, and the
#: time the last answer may take after the last arrival was due (longer
#: means a backlog was left).
LIMIT_MS = 500.0
#: The search stops when passing and failing rates are this close.
RESOLUTION = 1.15
#: A nominal replay whose generator ran later than this (p99) measured
#: the generator rather than the service: it is marked invalid and
#: repeated, up to ``NOMINAL_RETRIES`` times; a last late one is reported
#: as invalid.  Lateness is a fault of the measurement, not of an answer,
#: so it never fails the run.  With three busy processes on two cores the
#: generator is sometimes descheduled for a scheduler tick (4 ms).
LATE_LIMIT_MS = 10.0
NOMINAL_RETRIES = 2


def build_trace(seed: int) -> list[tuple[float, list[dict]]]:
    """``(due offset at 1 arrival/s, requests)`` per arrival.

    Offsets are cumulative unit-rate exponential gaps, so one trace
    serves every offered rate by scaling.
    """
    from repro.designs.suite import table1_suite

    rng = random.Random(seed)
    fresh = [(case.name, round(case.clock_period_ps * scale, 3))
             for scale in CLOCK_LADDER
             for case in table1_suite() if case.name not in EXCLUDED]
    fresh.reverse()
    seen: list[tuple[str, float]] = []
    trace = []
    offset = 0.0
    for arrival in range(ARRIVALS):
        offset += rng.expovariate(1.0)
        if arrival % FRESH_EVERY == 0 and fresh:
            design, clock = fresh.pop()
            seen.append((design, clock))
        else:
            design, clock = seen[rng.randrange(len(seen))]
        copies = (rng.choice(BURST_SIZES) if rng.random() < BURST_SHARE
                  else 1)
        trace.append((offset, [{"kind": "schedule", "design": design,
                                "clock_period_ps": clock,
                                "id": f"a{arrival}.{copy}"}
                               for copy in range(copies)]))
    return trace


class State:
    def __init__(self, seed: int) -> None:
        self.trace = build_trace(seed)
        self.requests = [request for _, burst in self.trace
                         for request in burst]
        self.tmp = Path(tempfile.mkdtemp(prefix="service-",
                                         dir=scratch_root()))
        self.stores = 0
        self.worker_pid: int | None = None
        self.worker_peak_mb = 0.0
        self.references: dict[str, str] = {}


def scratch_root() -> Path:
    root = Path(__file__).resolve().parent.parent / ".perfbench"
    root.mkdir(exist_ok=True)
    return root


def _worker_pid() -> int:
    return os.getpid()


def close_worker(state: State) -> None:
    """Record the pool worker's peak memory, then shut the pool down."""
    from repro.parallel import close_shared_pool

    if state.worker_pid is not None:
        state.worker_peak_mb = max(state.worker_peak_mb,
                                   process_peak_rss_mb(state.worker_pid))
        state.worker_pid = None
    close_shared_pool()


def fresh_service(state: State):
    """A new service, store and pool worker (forked from this process).

    A new worker per replay drops its warm-start caches and spreads the
    replays over as many processes, so one process that runs slow for its
    whole life moves one sample of the median, not all of them.
    """
    from repro.dse.search import reset_worker_caches
    from repro.parallel import shared_pool
    from repro.service import SchedulingService, ServiceConfig

    close_worker(state)
    executor = shared_pool(1).executor()
    state.worker_pid = executor.submit(_worker_pid).result(timeout=60)
    executor.submit(reset_worker_caches).result(timeout=60)
    state.stores += 1
    store = state.tmp / f"store-{state.stores}.jsonl"
    return SchedulingService(ServiceConfig(jobs=1, store_path=str(store)))


def setup(seed: int, expected: dict) -> State:
    """Imports, trace, pool fork and one untimed warm-up request.

    The warm-up asks a ``gen:`` design that is not in the trace, first
    offline here (so every worker forked later starts with the solver
    loaded), then through a throw-away service, store and worker; it
    caches nothing a timed request reads.
    """
    from repro.designs.generator import GeneratorParams
    from repro.service.worker import reference_result

    state = State(seed)
    warm = {"kind": "schedule", "clock_period_ps": 2500.0,
            "design": GeneratorParams(seed=10_000, depth=3, width=2).name}
    reference_result(dict(warm, latency_weight=1e-3))

    async def warm_up() -> None:
        service = fresh_service(state)
        await service.start()
        try:
            await service.handle(warm)
        finally:
            await service.stop()

    asyncio.run(warm_up())
    return state


def teardown(state: State) -> None:
    close_worker(state)
    shutil.rmtree(state.tmp, ignore_errors=True)


# ------------------------------------------------------------------ replays

class Replay:
    """What one pass over the trace observed."""

    def __init__(self, rate: float | None) -> None:
        self.rate = rate
        self.latencies: list[float] = []
        self.by_served: dict[str, list[float]] = {}
        self.lateness: list[float] = []
        self.failures: list[str] = []
        self.responses: list[tuple[dict, dict]] = []
        self.wall_s = 0.0
        self.drain_s = 0.0
        self.stats: dict = {}

    def record(self, request: dict, response: dict, latency: float) -> None:
        self.responses.append((request, response))
        if not response.get("ok"):
            self.failures.append(f"{request['id']}: {response.get('error')}: "
                                 f"{response.get('message')}")
            return
        self.latencies.append(latency)
        self.by_served.setdefault(response["served"], []).append(latency)

    @property
    def p99_ms(self) -> float | None:
        value = percentile(self.latencies, 0.99)
        return None if value is None else value * 1e3

    def meets_limit(self) -> bool:
        p99 = self.p99_ms
        return (not self.failures and p99 is not None and p99 <= LIMIT_MS
                and self.drain_s * 1e3 <= LIMIT_MS
                and late_p99_ms([self]) <= LATE_LIMIT_MS)


async def _closed_loop(service, requests: list[dict], replay: Replay) -> None:
    for request in requests:
        begin = time.perf_counter()
        response = await service.handle(request)
        replay.record(request, response, time.perf_counter() - begin)


async def _open_loop(service, trace, rate: float, replay: Replay) -> None:
    """Release each arrival at its due time; latency counts from due time."""
    import loadgen

    loop = asyncio.get_running_loop()
    tasks: list[asyncio.Task] = []
    released = loop.create_future()
    offsets = [offset / rate for offset, _ in trace]
    origin = None
    pending = bytearray()
    generator = subprocess.Popen(
        [sys.executable, str(Path(loadgen.__file__).resolve())],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    generator.stdin.write(json.dumps(offsets).encode())
    generator.stdin.close()
    fd = generator.stdout.fileno()

    async def client(request: dict, due: float) -> None:
        response = await service.handle(request)
        replay.record(request, response, time.perf_counter() - due)

    def release() -> None:
        nonlocal origin
        chunk = os.read(fd, 65536)
        if not chunk:  # the generator exited before releasing everything
            loop.remove_reader(fd)
            released.set_exception(RuntimeError(
                f"load generator exited after {len(replay.lateness)} of "
                f"{len(trace)} arrivals"))
            return
        pending.extend(chunk)
        if origin is None and len(pending) >= loadgen.ORIGIN.size:
            origin, = loadgen.ORIGIN.unpack_from(pending)
            del pending[:loadgen.ORIGIN.size]
        size = loadgen.RECORD.size
        while origin is not None and len(pending) >= size:
            index, lateness = loadgen.RECORD.unpack_from(pending)
            del pending[:size]
            replay.lateness.append(lateness)
            due = origin + offsets[index]
            for request in trace[index][1]:
                tasks.append(loop.create_task(client(request, due)))
        if len(replay.lateness) == len(trace):
            loop.remove_reader(fd)
            released.set_result(None)

    loop.add_reader(fd, release)
    try:
        await released
        await asyncio.gather(*tasks)
    finally:
        loop.remove_reader(fd)
        if generator.poll() is None:
            generator.kill()
        generator.wait()
        generator.stdout.close()
    replay.drain_s = max(0.0, time.perf_counter() - origin - offsets[-1])


def replay(state: State, rate: float | None, tracer: Tracer | None = None
           ) -> Replay:
    """One pass from a fresh state: closed loop when ``rate`` is None."""
    result = Replay(rate)

    async def drive() -> None:
        service = fresh_service(state)
        await service.start()
        try:
            started = time.perf_counter()
            if rate is None:
                await _closed_loop(service, state.requests, result)
            else:
                await _open_loop(service, state.trace, rate, result)
            result.wall_s = time.perf_counter() - started
            result.stats = service.stats.snapshot()
        finally:
            await service.stop()

    if tracer is not None:
        install_store_spans(tracer)
    try:
        asyncio.run(drive())
    finally:
        if tracer is not None:
            tracer.restore()
    return result


def search_max_rps(state: State, nominal: Replay) -> tuple[float, list[Replay]]:
    """Highest rate meeting the limit: double or halve from nominal, bisect."""
    passing = NOMINAL_RPS if nominal.meets_limit() else None
    failing = None if passing else NOMINAL_RPS
    trials = []
    while (passing is None or failing is None
           or failing / passing > RESOLUTION):
        if failing is None:
            rate = passing * 2
        elif passing is None:
            rate = failing / 2
        else:
            rate = math.sqrt(passing * failing)
        trial = replay(state, rate)
        trials.append(trial)
        if trial.meets_limit():
            passing = rate
        else:
            failing = rate
        if passing is None and failing <= NOMINAL_RPS / 4:
            return 0.0, trials  # slower rates would outlast the run
    return passing, trials


# ------------------------------------------------------------------- checks

def check_results(state: State, replays: list[Replay]) -> list[str]:
    """Each unique served answer must equal the offline reference, bytes."""
    from repro.service.worker import reference_result
    from repro.store import canonical_json

    problems = []
    for one in replays:
        for request, response in one.responses:
            if not response.get("ok"):
                continue
            reference = state.references.get(response["key"])
            if reference is None:
                reference = canonical_json(reference_result({
                    "kind": "schedule", "design": request["design"],
                    "clock_period_ps": float(request["clock_period_ps"]),
                    "latency_weight": 1e-3}))
                state.references[response["key"]] = reference
            if canonical_json(response["result"]) != reference:
                problems.append(f"{request['id']} ({request['design']} at "
                                f"{request['clock_period_ps']} ps): served "
                                "result differs from the offline reference")
    return problems


def check_counts(state: State, replays: list[Replay]) -> list[str]:
    """Every fresh service computes each unique question exactly once."""
    unique = len({(r["design"], r["clock_period_ps"]) for r in state.requests})
    return [f"replay at {one.rate or 'closed loop'}: cold_done "
            f"{one.stats.get('cold_done')} != {unique} unique questions "
            "(a cache survived between replays?)"
            for one in replays
            if not one.failures and one.stats.get("cold_done") != unique]


def late_p99_ms(replays: list[Replay]) -> float:
    lateness = [value for one in replays for value in one.lateness]
    value = percentile(lateness, 0.99)
    return 0.0 if value is None else value * 1e3


def summarize(state: State, replays: list[Replay], counted: list[Replay]):
    """Failures, attempted and failed over the counted (fixed-work) replays."""
    failures = check_results(state, replays) + check_counts(state, replays)
    attempted = sum(len(one.responses) for one in counted)
    failed = sum(len(one.failures) for one in counted)
    failures.extend(f for one in counted for f in one.failures)
    return failures, attempted, failed


def describe(one: Replay) -> str:
    p50 = median(one.latencies) * 1e3 if one.latencies else float("nan")
    p99 = one.p99_ms
    label = f"{one.rate:8.1f} req/s" if one.rate else "closed loop   "
    return (f"{label}  p50 {p50:8.3f} ms  p99 "
            f"{'n/a' if p99 is None else f'{p99:8.3f}'} ms  drain "
            f"{one.drain_s * 1e3:7.1f} ms  failed {len(one.failures)}  "
            f"n {len(one.latencies)}  wall {one.wall_s:.3f} s"
            + (f"  late p99 {late_p99_ms([one]):.3f} ms" if one.rate else "")
            + ("  PASS" if one.rate and one.meets_limit() else ""))


def serve_all(state: State) -> dict:
    """The closed-loop passes, the nominal replay and the rate search."""
    closed = [replay(state, None) for _ in range(CLOSED_PASSES)]
    invalid = []
    nominal = replay(state, NOMINAL_RPS)
    while (late_p99_ms([nominal]) > LATE_LIMIT_MS
           and len(invalid) < NOMINAL_RETRIES):
        invalid.append(nominal)
        nominal = replay(state, NOMINAL_RPS)
    max_rps, trials = search_max_rps(state, nominal)
    return {"closed": closed, "nominal": nominal, "trials": trials,
            "invalid": invalid, "max_rps": max_rps}


def outcome(state: State, runs: dict, extra: list[Replay]) -> dict:
    """Checks, counts and the human-readable report of :func:`serve_all`."""
    closed, nominal = runs["closed"], runs["nominal"]
    replays = closed + runs["invalid"] + [nominal] + runs["trials"] + extra
    failures, attempted, failed = summarize(state, replays,
                                            closed + [nominal] + extra)
    p99 = nominal.p99_ms
    late = late_p99_ms([nominal])
    notes = [describe(one) + ("  INVALID: generator late, repeated"
                              if one in runs["invalid"] else "")
             for one in replays] + [
        f"p50_ms {median(nominal.latencies) * 1e3:.3f} ms and p99_ms "
        f"{'n/a' if p99 is None else f'{p99:.3f}'} ms at "
        f"{NOMINAL_RPS:g} req/s from due time "
        f"({len(nominal.latencies)} samples); closed-loop p50 "
        f"{median([median(one.latencies) for one in closed]) * 1e3:.3f} ms",
        f"max_rps {runs['max_rps']:.1f} 1/s (p99 and drain within "
        f"{LIMIT_MS:g} ms, rates bisected to {RESOLUTION:g}x)",
        f"worker peak RSS {worker_peak_rss(state):.1f} MB"]
    if late > LATE_LIMIT_MS:
        notes.append(f"INVALID: the nominal replay's generator ran late (p99 "
                     f"{late:.3f} ms > {LATE_LIMIT_MS:g} ms) after "
                     f"{NOMINAL_RETRIES} repeats, so its p50_ms and p99_ms "
                     "measure the generator; the answers were checked")
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "notes": notes,
            "metrics": {"wall_s": median([one.wall_s for one in closed])}}


def measure(state: State, seconds: float) -> dict:
    return outcome(state, serve_all(state), [])


def worker_peak_rss(state: State) -> float:
    current = (process_peak_rss_mb(state.worker_pid)
               if state.worker_pid is not None else 0.0)
    return max(state.worker_peak_mb, current)


def trace(state: State, seconds: float) -> dict:
    """:func:`measure`'s replays plus one traced closed-loop pass."""
    runs = serve_all(state)
    tracer = Tracer()
    traced = replay(state, None, tracer)
    result = outcome(state, runs, [traced])
    nominal, stats = runs["nominal"], runs["nominal"].stats
    plain_wall = result["metrics"]["wall_s"]
    store = tracer.summary().get("store.put", {})
    metrics = {
        "service.p50_ms": median(nominal.latencies) * 1e3,
        "service.p99_ms": nominal.p99_ms or 0.0,
        "service.max_rps": runs["max_rps"],
        "service.warm_hit_rate": stats["warm_hit_rate"],
        "service.coalesce_rate": stats["coalesce_rate"],
        "service.mean_batch": stats["mean_batch"],
        "service.rejected": stats["rejected"],
        "service.deadline_misses": stats["deadline_misses"],
        "service.cold_done": stats["cold_done"],
        "service.worker_peak_rss_mb": worker_peak_rss(state),
        "bench.late_p99_ms": late_p99_ms([nominal]),
        "store.put.s": store.get("total_s", 0.0),
        "store.put.calls": store.get("calls", 0),
        "trace.wall_s": traced.wall_s,
        "trace.overhead": traced.wall_s / plain_wall - 1.0,
    }
    for served in ("warm", "coalesced", "cold"):
        samples = nominal.by_served.get(served, [])
        metrics[f"service.{served}.p50_ms"] = (median(samples) * 1e3
                                               if samples else 0.0)
    cold_p90 = percentile(nominal.by_served.get("cold", []), 0.90)
    metrics["service.cold.p90_ms"] = 0.0 if cold_p90 is None else cold_p90 * 1e3
    result["metrics"] = metrics
    result["tracer"] = tracer
    result["notes"] += split_lines(tracer, traced.wall_s)
    return result
