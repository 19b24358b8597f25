"""The high-throughput scheduling service.

A long-lived asyncio daemon (``runner serve``) answers schedule /
min-clock / min-II requests over a JSON line protocol (stdin or TCP, with
a minimal HTTP view of the same requests).  Three layers make it fast:

* a process-wide **warm result cache** keyed by content-addressed request
  keys and persisted as ``service-result`` records in the unified
  artifact store, so identical questions are answered without touching a
  solver -- across requests *and* across daemon restarts;
* **request coalescing**: concurrent identical requests share one
  in-flight computation instead of racing duplicate solves;
* **cold-miss execution**: each miss is submitted to the process-wide
  persistent worker pool (:func:`repro.parallel.shared_pool`), at most
  ``queue_limit`` at once, and each worker keeps its own
  :class:`~repro.dse.warm.ProblemCache`, so cold requests still
  warm-start against everything that worker has solved before.

Results are deterministic: a served payload is byte-identical to the
offline ``runner dse`` / scheduler answer for the same question,
independent of worker count and ``PYTHONHASHSEED`` (the
parity suite under ``tests/service/`` enforces this).

* :mod:`repro.service.protocol` -- request parsing, content keys,
  response envelopes and error codes;
* :mod:`repro.service.worker` -- the pool-side evaluators (schedule /
  min-clock / min-II result builders);
* :mod:`repro.service.daemon` -- :class:`SchedulingService` (cache,
  coalescing, backpressure, deadlines, crash recovery);
* :mod:`repro.service.frontends` -- the stdin and TCP/HTTP front ends;
* :mod:`repro.service.cli` -- the ``runner serve`` subcommand.

See ``docs/service.md`` for the protocol and operational details.  The
service's hit-rate, speedup and throughput gates live in
``benchmarks/test_speedup_gates.py``; end-to-end serving timings are
measured by ``perfbench/`` (see ``perfbench/README.md``).
"""

from repro.service.daemon import SchedulingService, ServiceConfig, ServiceStats
from repro.service.protocol import (COMPUTE_KINDS, REQUEST_KINDS,
                                    ProtocolError, ServiceRequest,
                                    error_response, ok_response,
                                    parse_request)

__all__ = [
    "COMPUTE_KINDS",
    "REQUEST_KINDS",
    "ProtocolError",
    "SchedulingService",
    "ServiceConfig",
    "ServiceRequest",
    "ServiceStats",
    "error_response",
    "ok_response",
    "parse_request",
]
