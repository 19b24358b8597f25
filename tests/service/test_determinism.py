"""Service responses must be deterministic: independent of the worker
count and interpreter hash randomisation -- and
byte-identical to the offline answers for the same questions.

The cross-process checks run the daemon in subprocesses (different
``PYTHONHASHSEED`` values and ``jobs`` settings) and compare canonical
JSON of the ``result`` payloads, mirroring
``tests/isdc/test_hashseed_determinism.py``.
"""

import asyncio
import json
import os
import subprocess
import sys

from repro.service.daemon import SchedulingService, ServiceConfig
from repro.service.protocol import normalize, parse_request
from repro.service.worker import reference_result
from repro.store import canonical_json

from tests.service.certify import certify_schedule_answer

LOOP = "loop:seed=1,depth=4,width=3,bits=16,inputs=2,phis=2,dist=1,clock=2500"

#: One request per compute kind; the loop design exercises min-ii.
REQUESTS = [
    {"kind": "schedule", "design": "rrot", "clock_period_ps": 2000},
    {"kind": "schedule", "design": "rrot", "clock_period_ps": 1500},  # infeasible
    {"kind": "min-clock", "design": "rrot"},
    {"kind": "min-ii", "design": LOOP},
]

_SERVICE_SCRIPT = r"""
import asyncio, json, sys
from repro.parallel import close_shared_pool
from repro.service.daemon import SchedulingService, ServiceConfig
from repro.store import canonical_json

from tests.service.certify import certify_schedule_answer

jobs = int(sys.argv[1])
requests = json.loads(sys.argv[2])

async def main():
    service = SchedulingService(ServiceConfig(jobs=jobs))
    await service.start()
    try:
        # Concurrently, so the cold misses overlap on the pool.
        responses = await asyncio.gather(*(service.handle(dict(raw))
                                           for raw in requests))
        for response in responses:
            assert response["ok"] is True, response
        return [response["result"] for response in responses]
    finally:
        await service.stop()

try:
    print(canonical_json(asyncio.run(main())))
finally:
    close_shared_pool()
"""


def _run_service(jobs, hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SERVICE_SCRIPT, str(jobs),
         json.dumps(REQUESTS)],
        env=env, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_results_are_independent_of_jobs_and_hashseed():
    baseline = _run_service(1, "0")
    results = json.loads(baseline)
    assert len(results) == len(REQUESTS)
    assert results[0]["feasible"] is True
    assert results[1]["feasible"] is False
    # More workers, different hash seeds: same bytes.
    assert _run_service(3, "0") == baseline
    assert _run_service(1, "31337") == baseline
    assert _run_service(2, "random") == baseline


def _normalized(raw):
    config = ServiceConfig()
    return normalize(parse_request(raw),
                     resolution_ps=config.resolution_ps,
                     speculate=config.speculate,
                     max_probes=config.max_probes,
                     latency_weight=config.latency_weight)


def test_service_results_match_the_offline_answers():
    async def served():
        service = SchedulingService(ServiceConfig(jobs=1))
        await service.start()
        try:
            return await asyncio.gather(*(service.handle(dict(raw))
                                          for raw in REQUESTS))
        finally:
            await service.stop()

    responses = asyncio.run(served())
    for raw, response in zip(REQUESTS, responses):
        assert response["ok"] is True, response
        offline = reference_result(_normalized(raw).identity())
        assert canonical_json(response["result"]) == canonical_json(offline), \
            f"service and offline answers diverge for {raw}"
        if raw["kind"] == "schedule":
            certify_schedule_answer(response["result"])
