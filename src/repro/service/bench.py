"""Replay-driven load generator and benchmark of the scheduling service.

::

    python -m repro.service.bench [--replay STORE.jsonl] [--requests N]
        [--dup K] [--hot-fraction F] [--concurrency C] [--jobs N]
        [--seed S] [--out BENCH_service.json]
        [--min-hit-rate F] [--min-warm-speedup X] [--require-coalescing]

The workload replays a campaign's (design x clock-period) points -- from
a recorded run store / payload via ``--replay``, or the built-in quick
campaign's points widened by a clock ladder -- as ``schedule`` requests
with a configurable hot/cold mix: a seeded RNG revisits already-asked
points with probability ``--hot-fraction`` and each drawn point is
submitted ``--dup`` times back-to-back, so the run exercises all three
serving layers (warm hits, coalesced duplicates, batched cold misses).

The result payload (schema-9 ``service`` experiment envelope, written by
``--out``) records sustained requests/s, p50/p95 latency, warm hit rate,
coalesce rate and the warm-vs-cold speedup; ``runner report`` loads it
and ``report diff`` gates those metrics direction-aware.  The committed
``BENCH_service.json`` at the repo root is one such payload.

Every run also cross-checks served results against offline references
(:func:`repro.service.worker.reference_result`) byte-for-byte unless
``--no-check`` is given, and the ``--min-*`` / ``--require-coalescing``
gates turn regressions into a non-zero exit for CI.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.daemon import SchedulingService, ServiceConfig
from repro.service.worker import reference_result
from repro.store import canonical_json

#: Clock multipliers widening each replayed campaign point into a small
#: DSE-like neighbourhood (more unique points, still one design build).
CLOCK_LADDER = (0.85, 1.0, 1.2, 1.5)


def quick_pairs(num_designs: int = 4) -> list[tuple[str, float]]:
    """The built-in workload: quick-campaign points x the clock ladder."""
    from repro.campaign.spec import quick_spec

    base: list[tuple[str, float]] = []
    for job in quick_spec(num_designs=num_designs).jobs():
        pair = (job.design, float(job.config["clock_period_ps"]))
        if pair not in base:
            base.append(pair)
    return [(design, round(clock * scale, 3))
            for design, clock in base for scale in CLOCK_LADDER]


def replay_pairs(path: str | Path) -> list[tuple[str, float]]:
    """(design, clock) points of a recorded campaign store / payload.

    Loads through the report frame (any supported input kind) and keeps
    each row's design/clock axes, deduplicated in row order.

    Raises:
        ValueError: the input yields no (design, clock) points.
    """
    from repro.report.frame import load_any

    pairs: list[tuple[str, float]] = []
    for row in load_any(path).rows:
        design = row.axes.get("design")
        clock = row.axes.get("clock_period_ps")
        if design and clock is not None:
            pair = (design, float(clock))
            if pair not in pairs:
                pairs.append(pair)
    if not pairs:
        raise ValueError(f"{path} contains no (design, clock_period_ps) "
                         "points to replay")
    return pairs


def build_workload(pairs: list[tuple[str, float]], requests: int,
                   hot_fraction: float, dup: int,
                   seed: int) -> list[dict]:
    """The request sequence: seeded hot/cold draws, ``dup``-way bursts.

    ``requests`` counts *draws*; each draw is submitted ``dup`` times
    back-to-back (adjacent requests reach the service concurrently, so
    duplicate bursts are what proves coalescing).
    """
    rng = random.Random(seed)
    fresh = list(pairs)
    seen: list[tuple[str, float]] = []
    workload: list[dict] = []
    for draw in range(requests):
        if seen and (not fresh or rng.random() < hot_fraction):
            design, clock = seen[rng.randrange(len(seen))]
        else:
            design, clock = fresh.pop(0)
            seen.append((design, clock))
        for burst in range(max(1, dup)):
            workload.append({"kind": "schedule", "design": design,
                             "clock_period_ps": clock,
                             "id": f"r{draw}.{burst}"})
    return workload


@dataclass
class ServiceBenchResult:
    """Everything one benchmark run measured."""

    workload_name: str
    submitted: int
    unique: int
    dup: int
    hot_fraction: float
    concurrency: int
    config: ServiceConfig
    elapsed_s: float = 0.0
    ok: int = 0
    errors: int = 0
    served: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    warm_latencies_s: list[float] = field(default_factory=list)
    cold_latencies_s: list[float] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    parity_checked: int = 0

    @property
    def requests_per_s(self) -> float:
        return self.submitted / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def warm_hit_rate(self) -> float:
        return self.served.get("warm", 0) / self.ok if self.ok else 0.0

    @property
    def coalesce_rate(self) -> float:
        return (self.served.get("coalesced", 0) / self.submitted
                if self.submitted else 0.0)

    @property
    def cold_computed(self) -> int:
        return int(self.stats.get("cold_done", self.served.get("cold", 0)))

    def _percentile(self, fraction: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def warm_speedup(self) -> float:
        """Mean cold latency over mean warm latency (same request shape)."""
        if not self.warm_latencies_s or not self.cold_latencies_s:
            return 0.0
        warm = sum(self.warm_latencies_s) / len(self.warm_latencies_s)
        cold = sum(self.cold_latencies_s) / len(self.cold_latencies_s)
        return cold / warm if warm > 0 else 0.0

    def to_payload(self) -> dict:
        """The ``service`` experiment payload body (since serialize schema 8)."""
        return {
            "workload": {
                "name": self.workload_name,
                "submitted": self.submitted,
                "unique": self.unique,
                "dup": self.dup,
                "hot_fraction": self.hot_fraction,
                "concurrency": self.concurrency,
                "jobs": self.config.jobs,
                "batch_window_ms": self.config.batch_window_ms,
                "max_batch": self.config.max_batch,
            },
            "requests_per_s": self.requests_per_s,
            "p50_latency_s": self._percentile(0.50),
            "p95_latency_s": self._percentile(0.95),
            "warm_hit_rate": self.warm_hit_rate,
            "coalesce_rate": self.coalesce_rate,
            "warm_speedup": self.warm_speedup,
            "warm_latency_s": (sum(self.warm_latencies_s)
                               / len(self.warm_latencies_s)
                               if self.warm_latencies_s else 0.0),
            "cold_latency_s": (sum(self.cold_latencies_s)
                               / len(self.cold_latencies_s)
                               if self.cold_latencies_s else 0.0),
            "ok": self.ok,
            "errors": self.errors,
            "served": dict(self.served),
            "cold_computed": self.cold_computed,
            "parity_checked": self.parity_checked,
            "elapsed_s": self.elapsed_s,
            "service_stats": dict(self.stats),
        }


async def run_bench(config: ServiceConfig, workload: list[dict],
                    workload_name: str, unique: int, dup: int,
                    hot_fraction: float, concurrency: int = 12,
                    check: int = 2) -> ServiceBenchResult:
    """Drive one in-process service with ``concurrency`` client tasks.

    ``check`` served results (first-seen schedule requests) are compared
    byte-for-byte against the offline reference after the run.

    Raises:
        AssertionError: a served result differed from its offline
            reference (determinism violation -- never acceptable).
    """
    service = SchedulingService(config)
    await service.start()
    result = ServiceBenchResult(
        workload_name=workload_name, submitted=len(workload), unique=unique,
        dup=dup, hot_fraction=hot_fraction, concurrency=concurrency,
        config=config)
    responses: list[dict | None] = [None] * len(workload)
    indexes = iter(range(len(workload)))

    async def client() -> None:
        for position in indexes:
            started = time.perf_counter()
            response = await service.handle(workload[position])
            latency = time.perf_counter() - started
            responses[position] = response
            if response.get("ok"):
                result.ok += 1
                result.latencies_s.append(latency)
                served = response.get("served", "")
                result.served[served] = result.served.get(served, 0) + 1
                if served == "warm":
                    result.warm_latencies_s.append(latency)
                elif served == "cold":
                    result.cold_latencies_s.append(latency)
            else:
                result.errors += 1

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(max(1, concurrency))))
    result.elapsed_s = time.perf_counter() - started
    result.stats = service.stats.snapshot()
    await service.stop()

    if check > 0:
        checked_keys: set[str] = set()
        for position, response in enumerate(responses):
            if len(checked_keys) >= check:
                break
            if not response or not response.get("ok"):
                continue
            key = response.get("key")
            if key is None or key in checked_keys:
                continue
            checked_keys.add(key)
            raw = dict(workload[position])
            raw.pop("id", None)
            identity = {"kind": raw["kind"], "design": raw["design"],
                        "clock_period_ps": float(raw["clock_period_ps"]),
                        "latency_weight": config.latency_weight}
            reference = reference_result(identity)
            assert (canonical_json(response["result"])
                    == canonical_json(reference)), (
                f"served result for {raw} differs from the offline "
                "reference -- determinism violation")
        result.parity_checked = len(checked_keys)
    return result


def format_bench(result: ServiceBenchResult) -> str:
    """One human-readable summary block."""
    payload = result.to_payload()
    lines = [
        f"service bench: {result.workload_name} -- {result.submitted} "
        f"requests ({result.unique} unique, dup {result.dup}, hot "
        f"{result.hot_fraction:.0%}, {result.concurrency} clients, "
        f"{result.config.jobs} workers)",
        f"  throughput    {result.requests_per_s:10.1f} req/s "
        f"({result.elapsed_s:.2f}s)",
        f"  latency       p50 {payload['p50_latency_s'] * 1e3:8.3f} ms   "
        f"p95 {payload['p95_latency_s'] * 1e3:8.3f} ms",
        f"  warm hits     {result.served.get('warm', 0):6d} "
        f"({result.warm_hit_rate:.1%} of ok)   mean "
        f"{payload['warm_latency_s'] * 1e3:.3f} ms",
        f"  coalesced     {result.served.get('coalesced', 0):6d} "
        f"({result.coalesce_rate:.1%} of submitted)",
        f"  cold computed {result.cold_computed:6d} "
        f"(mean {payload['cold_latency_s'] * 1e3:.3f} ms; warm speedup "
        f"{result.warm_speedup:.1f}x)",
        f"  errors        {result.errors:6d}   parity checked "
        f"{result.parity_checked}",
    ]
    return "\n".join(lines)


def bench_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.service.bench``; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.service.bench",
        description="Benchmark the scheduling service with a replayed "
                    "campaign workload (hot/cold mix, duplicate bursts).")
    parser.add_argument("--replay", metavar="PATH",
                        help="replay the (design, clock) points of this "
                             "campaign store / payload instead of the "
                             "built-in quick workload")
    parser.add_argument("--requests", type=int, default=300, metavar="N",
                        help="workload draws; each is submitted --dup times "
                             "(default: 300)")
    parser.add_argument("--dup", type=int, default=2, metavar="K",
                        help="duplicate burst size per draw -- concurrent "
                             "identical requests that must coalesce "
                             "(default: 2)")
    parser.add_argument("--hot-fraction", type=float, default=0.9,
                        metavar="F",
                        help="probability a draw revisits an already-asked "
                             "point (default: 0.9)")
    parser.add_argument("--concurrency", type=int, default=12, metavar="C",
                        help="concurrent client tasks (default: 12)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="service worker processes (default: 2)")
    parser.add_argument("--batch-window-ms", type=float, default=5.0,
                        metavar="W", help="service batch window (default: 5)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="workload RNG seed (default: 0)")
    parser.add_argument("--no-check", dest="check", action="store_false",
                        help="skip the offline parity cross-check")
    parser.add_argument("--out", metavar="PATH",
                        help="write the schema-9 'service' payload here "
                             "(e.g. BENCH_service.json)")
    parser.add_argument("--min-hit-rate", type=float, default=0.0,
                        metavar="F",
                        help="fail (exit 1) below this warm hit rate")
    parser.add_argument("--min-warm-speedup", type=float, default=0.0,
                        metavar="X",
                        help="fail (exit 1) below this warm-vs-cold speedup")
    parser.add_argument("--require-coalescing", action="store_true",
                        help="fail (exit 1) unless duplicates provably "
                             "coalesced (coalesced > 0 and cold "
                             "computations < submitted requests)")
    arguments = parser.parse_args(argv)
    if arguments.requests < 1 or arguments.dup < 1:
        parser.error("--requests and --dup must be at least 1")
    if not 0.0 <= arguments.hot_fraction <= 1.0:
        parser.error("--hot-fraction must be in [0, 1]")

    if arguments.replay:
        pairs = replay_pairs(arguments.replay)
        workload_name = Path(arguments.replay).name
    else:
        pairs = quick_pairs()
        workload_name = "quick"
    workload = build_workload(pairs, arguments.requests,
                              arguments.hot_fraction, arguments.dup,
                              arguments.seed)
    unique = len({(raw["design"], raw["clock_period_ps"])
                  for raw in workload})
    config = ServiceConfig(jobs=arguments.jobs,
                           batch_window_ms=arguments.batch_window_ms)

    started = time.perf_counter()
    try:
        result = asyncio.run(run_bench(
            config, workload, workload_name=workload_name, unique=unique,
            dup=arguments.dup, hot_fraction=arguments.hot_fraction,
            concurrency=arguments.concurrency,
            check=2 if arguments.check else 0))
    finally:
        from repro.parallel import close_shared_pool

        close_shared_pool()
    elapsed = time.perf_counter() - started
    print(format_bench(result))

    if arguments.out:
        from repro.experiments.serialize import experiment_payload

        payload = experiment_payload("service", result, quick=False,
                                     jobs=config.jobs, elapsed_s=elapsed)
        path = Path(arguments.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")

    failures = []
    if result.errors:
        failures.append(f"{result.errors} requests errored")
    if result.warm_hit_rate < arguments.min_hit_rate:
        failures.append(f"warm hit rate {result.warm_hit_rate:.1%} < "
                        f"--min-hit-rate {arguments.min_hit_rate:.1%}")
    if arguments.min_warm_speedup and (result.warm_speedup
                                       < arguments.min_warm_speedup):
        failures.append(f"warm speedup {result.warm_speedup:.1f}x < "
                        f"--min-warm-speedup {arguments.min_warm_speedup}x")
    if arguments.require_coalescing:
        if result.served.get("coalesced", 0) <= 0:
            failures.append("no requests coalesced")
        if result.cold_computed >= result.submitted:
            failures.append(f"cold computations ({result.cold_computed}) "
                            "not below submitted requests "
                            f"({result.submitted})")
    if failures:
        print("service bench FAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(bench_main())
