"""The scheduling-service daemon core: cache, coalescing, cold misses.

:class:`SchedulingService` is front-end-agnostic: front ends feed decoded
JSON request objects to :meth:`SchedulingService.handle` and get response
dicts back.  A compute request flows through three layers::

    handle() -> warm cache hit?  ------------------> respond "warm"
             -> identical request in flight?  -----> await it, "coalesced"
             -> queue_limit cold misses pending? --> typed "overloaded"
             -> one task: worker pool -> resolve the future,
                cache + persist the result

The warm cache is a plain dict keyed by content-addressed request keys
(:meth:`~repro.service.protocol.ServiceRequest.key`), preloaded from the
artifact store's ``service-result`` records at startup and appended to as
cold results land -- so a restarted daemon is warm from its first
request.  Coalescing shares one :class:`asyncio.Future` per in-flight
key; any number of concurrent duplicates cost exactly one computation.

Each cold miss is one task that submits its work to the process-wide
persistent worker pool (:func:`repro.parallel.shared_pool`) and resolves
its waiters.  At most ``queue_limit`` cold computations are pending or
running at once; further cold misses are refused with a typed
``overloaded`` error.  A worker crash fails the requests that were on the
broken pool (typed ``worker-crash`` errors) and replaces the pool once;
the daemon keeps serving.

Deadlines wrap the caller's wait, not the computation:
``asyncio.wait_for(asyncio.shield(future), ...)`` -- a timed-out client
gets a typed ``deadline`` error while the solve continues and still
populates the cache for the next asker.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from repro.parallel import PersistentPool, shared_pool
from repro.sdc.flow import check_latency_weight
from repro.service import protocol
from repro.service.protocol import (ServiceRequest, error_response, normalize,
                                    ok_response, parse_request,
                                    service_result_record, work_item)
from repro.service.worker import evaluate_request
from repro.store import ArtifactStore


@dataclass
class ServiceConfig:
    """Tunables of one :class:`SchedulingService`.

    Attributes:
        jobs: worker processes of the cold-miss pool.
        queue_limit: cold computations pending or running at once, at
            most; further cold misses are rejected with a typed
            ``overloaded`` error (backpressure).
        deadline_s: default per-request deadline (``0`` disables).
        latency_weight: LP tie-breaking weight filled into every request.
        resolution_ps: default min-clock convergence threshold.
        speculate: default min-clock batch width (fixed width keeps
            results independent of ``jobs``).
        max_probes: default min-clock probe budget.
        store_path: artifact store persisting ``service-result`` records
            (warm restarts); in-memory only when ``None``.
        allow_crash_probes: honour the crash-injection design
            (:data:`~repro.service.protocol.CRASH_DESIGN`); tests only.

    Raises:
        ValueError: a count is below 1, ``resolution_ps`` is not a
            positive finite number, or ``deadline_s`` is negative or not
            finite.
    """

    jobs: int = 2
    queue_limit: int = 128
    deadline_s: float = 300.0
    latency_weight: float = 1e-3
    resolution_ps: float = 25.0
    speculate: int = 4
    max_probes: int = 96
    store_path: str | None = None
    allow_crash_probes: bool = False

    def __post_init__(self) -> None:
        for name in ("jobs", "queue_limit", "speculate", "max_probes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if not (math.isfinite(self.resolution_ps) and self.resolution_ps > 0):
            raise ValueError("resolution_ps must be a positive finite "
                             f"number, got {self.resolution_ps}")
        if not (math.isfinite(self.deadline_s) and self.deadline_s >= 0):
            raise ValueError("deadline_s must be a finite number >= 0, "
                             f"got {self.deadline_s}")
        self.latency_weight = check_latency_weight(self.latency_weight)


@dataclass
class ServiceStats:
    """Counters the daemon maintains (all monotonic within one run)."""

    requests: int = 0
    bad_requests: int = 0
    warm_hits: int = 0
    coalesced: int = 0
    cold_submitted: int = 0
    cold_done: int = 0
    cold_errors: int = 0
    rejected: int = 0
    deadline_misses: int = 0
    worker_crashes: int = 0
    internal_errors: int = 0
    store_errors: int = 0
    client_disconnects: int = 0
    preloaded: int = 0

    def snapshot(self) -> dict:
        """Plain-dict view (the ``stats`` request's result payload)."""
        payload = {name: getattr(self, name) for name in self.__dataclass_fields__}
        served = self.warm_hits + self.coalesced + self.cold_done
        payload["warm_hit_rate"] = self.warm_hits / served if served else 0.0
        payload["coalesce_rate"] = (self.coalesced / self.requests
                                    if self.requests else 0.0)
        # Requests per pool dispatch: every cold miss is its own dispatch.
        payload["mean_batch"] = 1.0 if self.cold_submitted else 0.0
        return payload


class _ServiceError:
    """A typed failure resolved into a waiter future (never cached)."""

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        self.message = message


@dataclass
class _Pending:
    """One cold miss travelling to the pool."""

    key: str
    request: ServiceRequest
    future: asyncio.Future


class SchedulingService:
    """The daemon core (see the module docstring for the data flow)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self._results: dict[str, dict] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._cold_tasks: set[asyncio.Task] = set()
        self._closing: asyncio.Event | None = None
        self._store: ArtifactStore | None = None
        self._pool: PersistentPool | None = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Open the store and preload the warm cache."""
        if self._pool is not None:
            raise RuntimeError("service already started")
        self._closing = asyncio.Event()
        self._pool = shared_pool(self.config.jobs)
        if self.config.store_path is not None:
            self._store = ArtifactStore(
                self.config.store_path).open_for_append(tolerant=True)
            for record in self._store.kind("service-result"):
                result = record.body.get("result")
                if isinstance(result, dict):
                    self._results[record.key] = result
            self.stats.preloaded = len(self._results)

    @property
    def closing(self) -> bool:
        """Whether a shutdown has been requested."""
        return self._closing is not None and self._closing.is_set()

    def request_shutdown(self) -> None:
        """Flag the daemon as draining (front ends watch this event)."""
        if self._closing is not None:
            self._closing.set()

    async def wait_closing(self) -> None:
        """Block until a shutdown is requested."""
        if self._closing is None:
            raise RuntimeError("service not started")
        await self._closing.wait()

    async def stop(self) -> None:
        """Drain and stop: refuse new work, finish running cold misses.

        The shared worker pool is *not* closed -- the service does not
        own it (:func:`repro.parallel.close_shared_pool` is the owner's
        call, made by the CLI on process exit).
        """
        if self._pool is None:
            return
        self.request_shutdown()
        if self._cold_tasks:
            await asyncio.gather(*self._cold_tasks, return_exceptions=True)
        self._pool = None

    # ------------------------------------------------------------- serving

    def refuse(self, message: str) -> dict:
        """Answer input that never decoded to a request (a bad request)."""
        self.stats.requests += 1
        self.stats.bad_requests += 1
        return error_response(protocol.ERROR_BAD_REQUEST, message)

    async def handle(self, raw: object) -> dict:
        """Serve one decoded request object; always returns a response."""
        if self._pool is None or self._closing is None:
            raise RuntimeError("service not started")
        self.stats.requests += 1
        started = time.perf_counter()
        try:
            request = normalize(parse_request(raw),
                                resolution_ps=self.config.resolution_ps,
                                speculate=self.config.speculate,
                                max_probes=self.config.max_probes,
                                latency_weight=self.config.latency_weight,
                                allow_crash=self.config.allow_crash_probes)
        except protocol.ProtocolError as error:
            self.stats.bad_requests += 1
            client_id = None
            if isinstance(raw, dict) and isinstance(raw.get("id"), (str, int)):
                client_id = str(raw["id"])
            return error_response(protocol.ERROR_BAD_REQUEST, str(error),
                                  client_id=client_id)

        if request.kind == "ping":
            return ok_response(request, {"pong": True}, served="inline")
        if request.kind == "stats":
            return ok_response(request, self.stats.snapshot(), served="inline")
        if request.kind == "shutdown":
            self.request_shutdown()
            return ok_response(request, {"closing": True}, served="inline")
        if self.closing:
            return error_response(protocol.ERROR_SHUTDOWN,
                                  "daemon is shutting down", request=request)

        key = request.key()
        cached = self._results.get(key)
        if cached is not None:
            self.stats.warm_hits += 1
            return ok_response(request, cached, served="warm",
                               latency_s=time.perf_counter() - started)

        future = self._inflight.get(key)
        if future is not None:
            self.stats.coalesced += 1
            served = "coalesced"
        elif len(self._inflight) >= self.config.queue_limit:
            self.stats.rejected += 1
            return error_response(
                protocol.ERROR_OVERLOADED,
                f"{self.config.queue_limit} cold misses already pending; "
                "retry later", request=request)
        else:
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            task = asyncio.create_task(
                self._compute(_Pending(key=key, request=request,
                                       future=future)),
                name="service-cold")
            self._cold_tasks.add(task)
            task.add_done_callback(self._cold_tasks.discard)
            self.stats.cold_submitted += 1
            served = "cold"

        deadline = (request.deadline_s if request.deadline_s is not None
                    else self.config.deadline_s)
        try:
            if deadline > 0:
                outcome = await asyncio.wait_for(asyncio.shield(future),
                                                 timeout=deadline)
            else:
                outcome = await asyncio.shield(future)
        except asyncio.TimeoutError:
            self.stats.deadline_misses += 1
            return error_response(
                protocol.ERROR_DEADLINE,
                f"no result within {deadline:.3f}s (the computation "
                "continues and its result will be cached)", request=request)

        if isinstance(outcome, _ServiceError):
            return error_response(outcome.code, outcome.message,
                                  request=request)
        return ok_response(request, outcome, served=served,
                           latency_s=time.perf_counter() - started)

    # ------------------------------------------------------------ cold path

    async def _compute(self, item: _Pending) -> None:
        """Run one cold miss on the pool and resolve its waiters."""
        pool = self._pool
        assert pool is not None
        executor = pool.executor()
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                executor, evaluate_request, work_item(item.request))
        except BrokenExecutor:
            # Every request on the dead pool lands here; only the first
            # one to report replaces the pool and counts the crash.
            if pool.recover(executor):
                self.stats.worker_crashes += 1
            self._fail(item, _ServiceError(
                protocol.ERROR_WORKER_CRASH,
                "a worker process died; the pool was replaced, retry the "
                "request"))
        except Exception as error:
            self.stats.internal_errors += 1
            self._fail(item, _ServiceError(
                protocol.ERROR_INTERNAL, f"{type(error).__name__}: {error}"))
        else:
            if "error" in outcome:
                self._fail(item, _ServiceError(outcome["error"],
                                               outcome.get("message", "")))
            else:
                self._finish(item, outcome["result"])

    def _finish(self, item: _Pending, result: dict) -> None:
        """Cache, persist and deliver one cold result (success path).

        Results are deterministic, so even infeasible answers are cached;
        only *errors* (crashes, unresolvable designs) are never cached.
        """
        self._results[item.key] = result
        self.stats.cold_done += 1
        if self._store is not None:
            try:
                self._store.put(service_result_record(item.request, result))
            except OSError:
                self.stats.store_errors += 1  # keep serving from memory
        self._inflight.pop(item.key, None)
        if not item.future.done():
            item.future.set_result(result)

    def _fail(self, item: _Pending, error: _ServiceError) -> None:
        """Deliver a typed error to the waiters (nothing is cached)."""
        self.stats.cold_errors += 1
        self._inflight.pop(item.key, None)
        if not item.future.done():
            # set_result (not set_exception): abandoned futures must not
            # log "exception was never retrieved" after a deadline miss.
            item.future.set_result(error)


__all__ = ["SchedulingService", "ServiceConfig", "ServiceStats"]
