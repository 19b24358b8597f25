"""Shared process-pool helpers for batch evaluation and experiment fan-out.

All helpers guarantee *deterministic result ordering*: results come back in
the order of the submitted items regardless of which worker finished first.
``jobs=1`` (or a single item) always takes a serial in-process fast path, so
callers can thread a ``jobs`` knob through unconditionally.

The pool prefers the ``fork`` start method (cheap, no re-import of the
package in workers) and falls back to the platform default where ``fork`` is
unavailable.  Submitted callables and arguments must be picklable.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used by all pools (``fork`` when available)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def effective_jobs(jobs: int, num_items: int) -> int:
    """Clamp a requested worker count to something worth spawning."""
    return max(1, min(int(jobs), num_items))


def parallel_map(function: Callable[[_T], _R], items: Sequence[_T],
                 jobs: int = 1) -> list[_R]:
    """``[function(item) for item in items]`` over a transient process pool.

    Args:
        function: picklable callable applied to every item.
        items: the work items (picklable when ``jobs > 1``).
        jobs: maximum worker processes; ``1`` runs serially in-process.

    Returns:
        Results in item order.
    """
    workers = effective_jobs(jobs, len(items))
    if workers <= 1:
        return [function(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=pool_context()) as executor:
        return list(executor.map(function, items))


class PersistentPool:
    """A lazily-created, reusable process pool with ordered ``map``.

    Batch evaluation calls arrive once per ISDC iteration; keeping the
    workers alive across calls amortises the fork cost over the whole loop.
    The pool is created on first use and torn down via :meth:`close` (also
    invoked by ``with`` and on garbage collection).

    Worker processes accumulate per-process state (the DSE worker caches,
    the service :class:`~repro.dse.warm.ProblemCache`), which is exactly
    why long-lived callers share one pool via :func:`shared_pool` instead
    of respawning per batch.

    Args:
        jobs: maximum number of worker processes.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        self._executor: Executor | None = None

    def executor(self) -> Executor:
        """The live :class:`ProcessPoolExecutor`, created on first use.

        Exposed for callers that need future-level control (the service
        daemon's ``run_in_executor`` bridge); everyone else should prefer
        :meth:`map` / :meth:`imap_unordered`.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs,
                                                 mp_context=pool_context())
        return self._executor

    def map(self, function: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        """Apply ``function`` to every item, preserving item order."""
        workers = effective_jobs(self.jobs, len(items))
        if workers <= 1:
            return [function(item) for item in items]
        return list(self.executor().map(function, items))

    def imap_unordered(self, function: Callable[[_T], _R],
                       items: Sequence[_T]) -> Iterator[tuple[int, _R]]:
        """Yield ``(index, function(item))`` pairs as items finish.

        The streaming counterpart of :meth:`map`, which lets callers
        checkpoint incrementally (the campaign executor's per-job run
        store): serial in item order when ``jobs <= 1`` or for a single
        item, completion order otherwise, so callers needing determinism
        must re-order by the yielded index.
        """
        workers = effective_jobs(self.jobs, len(items))
        if workers <= 1:
            for index, item in enumerate(items):
                yield index, function(item)
            return
        executor = self.executor()
        futures = {executor.submit(function, item): index
                   for index, item in enumerate(items)}
        for future in as_completed(futures):
            yield futures[future], future.result()

    def resize(self, jobs: int) -> None:
        """Grow the pool to at least ``jobs`` workers.

        A no-op when the pool is already wide enough; otherwise the old
        executor (if any) is shut down and a wider one is created lazily
        on next use.  Shrinking is never done -- idle workers are cheap
        and per-worker caches are valuable.
        """
        jobs = max(1, int(jobs))
        if jobs <= self.jobs:
            return
        self.close()
        self.jobs = jobs

    def recover(self, broken: Executor) -> bool:
        """Replace a broken executor with a fresh one (crash recovery).

        After a worker dies mid-task, :class:`ProcessPoolExecutor` marks
        itself broken and fails every pending and later submission.
        Dropping it lets the next :meth:`executor` call fork a healthy
        pool; per-worker caches are lost, which only costs warm-start
        state.  Every caller that saw the crash reports it, so only a
        ``broken`` executor that is still the live one is dropped.

        Returns:
            Whether ``broken`` was the live executor (and was dropped).
        """
        if broken is not self._executor:
            return False
        broken.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        return True

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass


#: The process-wide pool behind :func:`shared_pool`.
_SHARED_POOL: PersistentPool | None = None


def shared_pool(jobs: int) -> PersistentPool:
    """The process-wide persistent pool, grown to at least ``jobs`` workers.

    Campaign shards and service cold misses draw from this one pool, so
    worker processes (and their per-worker warm-start caches) survive
    across call sites instead of being respawned per batch.  (DSE probe
    batches do not: :func:`repro.dse.search.run_dse` opens its own
    :class:`PersistentPool`.)  The pool only ever grows; call
    :func:`close_shared_pool` to tear it down (tests, daemon shutdown).

    Callers must not :meth:`PersistentPool.close` the returned pool --
    they do not own it.
    """
    global _SHARED_POOL
    if _SHARED_POOL is None:
        _SHARED_POOL = PersistentPool(jobs)
    else:
        _SHARED_POOL.resize(jobs)
    return _SHARED_POOL


def close_shared_pool() -> None:
    """Shut down the process-wide pool (idempotent; it re-forks on next use)."""
    global _SHARED_POOL
    if _SHARED_POOL is not None:
        _SHARED_POOL.close()
        _SHARED_POOL = None


__all__ = ["PersistentPool", "close_shared_pool", "effective_jobs",
           "parallel_map", "pool_context", "shared_pool"]
