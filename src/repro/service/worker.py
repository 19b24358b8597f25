"""Pool-side evaluators of the scheduling service (the cold path).

One module-level entry point, :func:`evaluate_request`, is shipped to the
process-wide persistent pool (:func:`repro.parallel.shared_pool`) with a
plain-dict work spec (:func:`repro.service.protocol.work_item`).  Each
worker process keeps the same module-global
:class:`~repro.dse.warm.ProblemCache` the DSE driver uses
(:func:`repro.dse.search.worker_cache`), so service cold misses
warm-start against everything the worker has already answered --
including probes evaluated for *other* requests of the same design.  The
cache keeps answers, not constraint systems: a long-lived worker holds
one template problem per design it has seen and one schedule per
(design, clock) it has solved, never one system per answer.

Every result builder returns only deterministic fields: warm-start
provenance and wall-clock never enter a result payload, so the served
answer is byte-identical to the offline reference regardless of which
worker (or which donor period) computed it:

* ``schedule`` results are one :meth:`ProblemCache.probe`, equal to a
  :meth:`ProblemCache.cold_probe` payload;
* ``min-clock`` / ``min-ii`` results run the DSE driver's own per-design
  search (:func:`~repro.dse.search.search_clock` /
  :func:`~repro.dse.search.search_min_ii`) over the worker's cache, so
  they equal the per-design entries of the offline ``runner dse`` payload
  after :func:`~repro.dse.search.deterministic_payload` stripping.
"""

from __future__ import annotations

import os

from repro.dse.search import (NONDETERMINISTIC_KEYS, DesignSearchResult,
                              search_clock, search_min_ii, worker_cache)
from repro.dse.warm import ProbeOutcome, ProblemCache
from repro.service.protocol import (ERROR_BAD_DESIGN, ERROR_BAD_REQUEST)


def schedule_result(outcome: ProbeOutcome) -> dict:
    """The deterministic payload of one schedule request.

    The probe's deterministic row plus the design name and the full
    node -> stage schedule (string keys, sorted, so the JSON form is
    canonical and byte-comparable).
    """
    result = outcome.to_payload()
    result["design"] = outcome.design
    if outcome.stages is not None:
        result["stages"] = {str(node_id): stage
                            for node_id, stage in sorted(outcome.stages.items())}
    return result


def _strip(result: DesignSearchResult) -> dict:
    payload = result.to_payload()
    return {key: value for key, value in payload.items()
            if key not in NONDETERMINISTIC_KEYS}


def min_clock_result(cache: ProblemCache, work: dict) -> dict:
    """One design's min-clock search, every probe on ``cache`` in-process."""
    design = work["design"]
    return _strip(search_clock(
        design, "minclock", cache.context(design).default_clock_ps,
        lambda batch: [cache.probe(design, period) for period in batch],
        work["speculate"], resolution_ps=work["resolution_ps"],
        max_stages=work["max_stages"], max_probes=work["max_probes"]))


def min_ii_result(cache: ProblemCache, work: dict) -> dict:
    """One design's minimum-II search (sequential by nature, one worker)."""
    return _strip(search_min_ii(cache, work["design"],
                                work["clock_period_ps"]))


def evaluate_request(work: dict) -> dict:
    """Pool entry point: evaluate one work spec, never raising.

    Returns ``{"result": <deterministic payload>}`` on success or a
    controlled ``{"error": <code>, "message": ...}`` for questions that
    cannot be answered (an unresolvable design name).  Unexpected
    exceptions propagate -- the daemon maps them to ``internal`` errors
    without caching.
    """
    if work.get("crash"):  # fault injection: die like a real worker crash
        os._exit(13)
    cache = worker_cache(work["latency_weight"])
    kind = work["kind"]
    try:
        if kind == "schedule":
            outcome = cache.probe(work["design"], work["clock_period_ps"])
            return {"result": schedule_result(outcome)}
        if kind == "min-clock":
            return {"result": min_clock_result(cache, work)}
        if kind == "min-ii":
            return {"result": min_ii_result(cache, work)}
    except (KeyError, ValueError, OSError) as error:
        # Design resolution failures (unknown registry name, malformed
        # gen:/loop: spec, missing .ir file) are the caller's fault.
        return {"error": ERROR_BAD_DESIGN,
                "message": f"{type(error).__name__}: {error}"}
    return {"error": ERROR_BAD_REQUEST, "message": f"unknown kind {kind!r}"}


def reference_result(request_identity: dict) -> dict:
    """The offline reference answer for one request identity (no service).

    Evaluates the same work spec on a *fresh* cache in this process --
    the parity baseline the service tests and perfbench's answer checks
    compare served results against.  ``schedule`` requests
    additionally bypass every warm path via
    :meth:`~repro.dse.warm.ProblemCache.cold_probe`.
    """
    work = request_identity
    cache = ProblemCache(latency_weight=work["latency_weight"])
    if work["kind"] == "schedule":
        outcome = cache.cold_probe(work["design"], work["clock_period_ps"])
        return schedule_result(outcome)
    if work["kind"] == "min-clock":
        return min_clock_result(cache, work)
    if work["kind"] == "min-ii":
        return min_ii_result(cache, work)
    raise ValueError(f"unknown kind {work['kind']!r}")


__all__ = ["evaluate_request", "min_clock_result", "min_ii_result",
           "reference_result", "schedule_result"]
