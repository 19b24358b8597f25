"""Daemon-core tests: cache layers, backpressure, fault injection.

No pytest-asyncio in the container, so every test drives its own event
loop with :func:`asyncio.run`.
"""

import asyncio
import random
import re
from pathlib import Path

import pytest

from repro.parallel import close_shared_pool
from repro.service.daemon import SchedulingService, ServiceConfig
from repro.service.protocol import CRASH_DESIGN
from repro.service.worker import reference_result
from repro.store import ArtifactStore, canonical_json

from tests.service.certify import certify_schedule_answer

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
DESIGN = "rrot"
CLOCK = 2000.0  # feasible for rrot (its min clock is ~1620 ps)

#: (design, clock) questions the coalescing tests ask.
QUESTIONS = [(DESIGN, CLOCK), ("rrot", 2400.0), ("crc32", 3000.0)]


@pytest.fixture(scope="module", autouse=True)
def _shared_pool_cleanup():
    yield
    close_shared_pool()


def _schedule(design=DESIGN, clock=CLOCK, **extra):
    return {"kind": "schedule", "design": design,
            "clock_period_ps": clock, **extra}


async def _started(config):
    service = SchedulingService(config)
    await service.start()
    return service


async def _drained(service, *, timeout_s=60.0):
    """Wait for every in-flight computation to land (or error)."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while service._inflight:
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.01)


def _reference(design, clock):
    """Canonical JSON of the offline answer to one schedule question."""
    return canonical_json(reference_result(
        {"kind": "schedule", "design": design,
         "clock_period_ps": float(clock),
         "latency_weight": ServiceConfig().latency_weight}))


@pytest.mark.parametrize("design, clock", QUESTIONS)
def test_coalescing_then_warm(design, clock):
    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        try:
            burst = await asyncio.gather(*(
                service.handle(_schedule(design, clock, id=i))
                for i in range(3)))
            assert [r["ok"] for r in burst] == [True] * 3
            assert sorted(r["served"] for r in burst) == [
                "coalesced", "coalesced", "cold"]
            # All three answers are the same object's payload.
            assert burst[0]["result"] == burst[1]["result"] == burst[2]["result"]
            assert {r["id"] for r in burst} == {"0", "1", "2"}
            # ... and byte-identical to the offline answer.
            assert canonical_json(burst[0]["result"]) == \
                _reference(design, clock)

            again = await service.handle(_schedule(design, clock))
            assert again["served"] == "warm"
            assert again["result"] == burst[0]["result"]
            # Cold, coalesced and warm answers each pass the certificate.
            for response in burst + [again]:
                certify_schedule_answer(response["result"])

            stats = service.stats
            assert (stats.cold_submitted, stats.coalesced,
                    stats.warm_hits) == (1, 2, 1)
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_mixed_workload_serves_all_three_layers():
    """Seeded hot/cold draws in duplicate bursts from concurrent clients:
    no errors, every layer used, fewer cold computations than requests,
    and every answer byte-identical to the offline reference."""
    rng = random.Random(0)
    draws = QUESTIONS + [rng.choice(QUESTIONS) for _ in range(27)]
    workload = [_schedule(design, clock, id=f"r{draw}.{burst}")
                for draw, (design, clock) in enumerate(draws)
                for burst in range(2)]

    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        pending = iter(workload)
        responses = []

        async def client():
            for request in pending:
                responses.append(await service.handle(request))

        try:
            await asyncio.gather(*(client() for _ in range(6)))
            return responses, service.stats
        finally:
            await service.stop()

    responses, stats = asyncio.run(scenario())
    assert len(responses) == len(workload)
    assert all(response["ok"] for response in responses)
    served = {response["served"] for response in responses}
    assert served == {"cold", "coalesced", "warm"}
    assert 0 < stats.cold_done <= len(QUESTIONS) < stats.requests
    references = {question: _reference(*question) for question in QUESTIONS}
    by_id = {response["id"]: response for response in responses}
    for request in workload:
        question = (request["design"], request["clock_period_ps"])
        assert canonical_json(by_id[request["id"]]["result"]) == \
            references[question]
    certified = set()
    for response in responses:
        answer = (response["served"], canonical_json(response["result"]))
        if answer not in certified:
            certify_schedule_answer(response["result"])
            certified.add(answer)
    assert {served for served, _ in certified} == {"cold", "coalesced", "warm"}


def test_queue_full_is_a_typed_rejection():
    async def scenario():
        service = await _started(ServiceConfig(jobs=1, queue_limit=1))
        try:
            # Distinct clock periods -> distinct keys, no coalescing.  The
            # first cold miss is still pending when the other two arrive,
            # so only it fits under the limit.
            results = await asyncio.gather(
                *(service.handle(_schedule(clock=CLOCK + i, id=i))
                  for i in range(3)))
            by_id = {r["id"]: r for r in results}
            assert by_id["0"]["ok"] is True
            for i in ("1", "2"):
                assert by_id[i]["ok"] is False
                assert by_id[i]["error"] == "overloaded"
            assert service.stats.rejected == 2
            # A rejected request key holds no stale in-flight entry: the
            # same question succeeds once there is room.
            retry = await service.handle(_schedule(clock=CLOCK + 1))
            assert retry["ok"] is True and retry["served"] == "cold"
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_queue_limit_holds_across_event_loop_turns():
    """Cold misses arriving one loop turn apart still count against
    ``queue_limit`` while earlier ones are pending or running."""
    # A fresh single worker with cold caches keeps the first (min-clock)
    # question running for far longer than the requests below take to
    # arrive.
    close_shared_pool()
    questions = [{"kind": "min-clock", "design": "crc32", "id": "busy"}] + [
        _schedule(clock=CLOCK + 10 * i, id=i) for i in range(4)]

    async def scenario():
        service = await _started(ServiceConfig(jobs=1, queue_limit=2))
        try:
            pending = []
            for question in questions:
                pending.append(asyncio.create_task(service.handle(question)))
                await asyncio.sleep(0.001)
            results = await asyncio.gather(*pending)
            assert [r["ok"] for r in results] == [True, True, False, False,
                                                  False]
            for response in results[2:]:
                assert response["error"] == "overloaded"
            assert service.stats.rejected == 3
            assert service.stats.cold_submitted == 2

            # Once there is room, a rejected question is served cold.
            retry = await service.handle(questions[2])
            assert retry["ok"] is True and retry["served"] == "cold"
            assert canonical_json(retry["result"]) == \
                _reference(DESIGN, CLOCK + 10)
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_deadline_miss_still_caches_the_result():
    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        try:
            missed = await service.handle(_schedule(deadline_s=1e-4))
            assert missed["ok"] is False
            assert missed["error"] == "deadline"
            assert service.stats.deadline_misses == 1

            # The shielded computation kept running; once it lands the
            # identical question is a warm hit.
            await _drained(service)
            assert service.stats.cold_done == 1
            warm = await service.handle(_schedule())
            assert warm["ok"] is True and warm["served"] == "warm"
            certify_schedule_answer(warm["result"])
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_worker_crash_fails_the_batch_and_recovers():
    # The shared pool only grows: drop one an earlier test module left
    # with more workers, so both requests below share one worker.
    close_shared_pool()

    async def scenario():
        service = await _started(ServiceConfig(jobs=1,
                                               allow_crash_probes=True))
        try:
            crash = {"kind": "schedule", "design": CRASH_DESIGN,
                     "clock_period_ps": 1000, "id": "boom"}
            # Both requests reach the single worker's executor before it
            # dies; the crash takes the bystander down with a typed error
            # rather than a hang, and replaces the pool once.
            results = await asyncio.gather(service.handle(crash),
                                           service.handle(_schedule(id="ok")))
            for response in results:
                assert response["ok"] is False
                assert response["error"] == "worker-crash"
            assert service.stats.worker_crashes == 1

            # The pool was replaced: the same innocent request now works,
            # cold (errors are never cached).
            retry = await service.handle(_schedule())
            assert retry["ok"] is True and retry["served"] == "cold"
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_bad_design_is_a_typed_error_and_never_cached():
    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        try:
            first = await service.handle(_schedule(design="no-such-design"))
            assert first["ok"] is False and first["error"] == "bad-design"
            second = await service.handle(_schedule(design="no-such-design"))
            assert second["ok"] is False and second["error"] == "bad-design"
            assert service.stats.cold_errors == 2  # recomputed, not cached
        finally:
            await service.stop()
    asyncio.run(scenario())


@pytest.mark.parametrize("design", [
    "gen:seed=1,depth=2,width=2,fanout=1,bits=8,inputs=2,clock=nan,mix=add1",
    "gen:seed=1,depth=2,width=2,fanout=1,bits=8,inputs=2,clock=inf,mix=add1",
    "loop:seed=1,depth=4,width=2,bits=8,inputs=2,phis=1,clock=nan",
    "loop:seed=1,depth=4,width=2,bits=8,inputs=2,phis=1,clock=inf",
])
def test_non_finite_design_clock_is_a_bad_design(design):
    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        try:
            for request in (_schedule(design=design),
                            {"kind": "min-ii", "design": design},
                            {"kind": "min-clock", "design": design}):
                response = await service.handle(request)
                assert response["ok"] is False, request
                assert response["error"] == "bad-design", request
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_infinite_ir_file_clock_is_a_bad_design(tmp_path):
    text = (EXAMPLES / "loop_accum.ir").read_text()
    assert "clock " in text
    design = tmp_path / "loop_accum_inf.ir"
    design.write_text(re.sub(r"(?m)^clock .*$", "clock inf", text))

    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        try:
            for request in (_schedule(design=str(design)),
                            {"kind": "min-ii", "design": str(design)},
                            {"kind": "min-clock", "design": str(design)}):
                response = await service.handle(request)
                assert response["ok"] is False, request
                assert response["error"] == "bad-design", request
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_control_requests_and_shutdown():
    async def scenario():
        service = await _started(ServiceConfig(jobs=1))
        try:
            pong = await service.handle({"kind": "ping"})
            assert pong["ok"] is True and pong["result"] == {"pong": True}
            stats = await service.handle({"kind": "stats"})
            assert stats["result"]["requests"] == 2

            closing = await service.handle({"kind": "shutdown"})
            assert closing["result"] == {"closing": True}
            assert service.closing
            refused = await service.handle(_schedule())
            assert refused["ok"] is False
            assert refused["error"] == "shutting-down"
        finally:
            await service.stop()
    asyncio.run(scenario())


def test_warm_restart_from_the_artifact_store(tmp_path):
    store_path = str(tmp_path / "service.jsonl")

    async def first_run():
        service = await _started(ServiceConfig(jobs=1,
                                               store_path=store_path))
        try:
            response = await service.handle(_schedule())
            assert response["served"] == "cold"
            return response
        finally:
            await service.stop()

    async def second_run():
        service = await _started(ServiceConfig(jobs=1,
                                               store_path=store_path))
        try:
            assert service.stats.preloaded == 1
            response = await service.handle(_schedule())
            assert response["served"] == "warm"
            return response
        finally:
            await service.stop()

    cold = asyncio.run(first_run())
    warm = asyncio.run(second_run())
    assert warm["result"] == cold["result"]
    assert warm["key"] == cold["key"]
    certify_schedule_answer(cold["result"])
    certify_schedule_answer(warm["result"])

    records = list(ArtifactStore.load(store_path).kind("service-result"))
    assert len(records) == 1
    assert records[0].key == cold["key"]
    assert records[0].body["result"] == cold["result"]
