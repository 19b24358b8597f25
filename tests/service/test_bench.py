"""Benchmark-harness tests: workload generation, a small real run, the
schema-8 ``service`` payload and its report-frame rows.
"""

import asyncio
import json

import pytest

from repro.parallel import close_shared_pool
from repro.report.frame import load_any
from repro.service.bench import (CLOCK_LADDER, ServiceBenchResult,
                                 bench_main, build_workload, quick_pairs,
                                 replay_pairs, run_bench)
from repro.service.daemon import ServiceConfig

PAIRS = [("rrot", 2000.0), ("rrot", 2400.0), ("crc32", 3000.0)]


@pytest.fixture(scope="module", autouse=True)
def _shared_pool_cleanup():
    yield
    close_shared_pool()


class TestWorkload:
    def test_quick_pairs_spread_the_clock_ladder(self):
        pairs = quick_pairs(num_designs=2)
        assert len(pairs) == len(set(pairs))
        assert len(pairs) % len(CLOCK_LADDER) == 0
        for design, _ in pairs:
            assert isinstance(design, str) and design

    def test_build_workload_counts_and_bursts(self):
        workload = build_workload(PAIRS, requests=10, hot_fraction=0.5,
                                  dup=3, seed=1)
        assert len(workload) == 30
        # Burst members are identical questions with distinct ids.
        first_burst = workload[:3]
        assert len({(w["design"], w["clock_period_ps"])
                    for w in first_burst}) == 1
        assert [w["id"] for w in first_burst] == ["r0.0", "r0.1", "r0.2"]

    def test_build_workload_is_seed_deterministic(self):
        kwargs = dict(requests=20, hot_fraction=0.8, dup=2)
        assert (build_workload(PAIRS, seed=7, **kwargs)
                == build_workload(PAIRS, seed=7, **kwargs))
        assert (build_workload(PAIRS, seed=7, **kwargs)
                != build_workload(PAIRS, seed=8, **kwargs))

    def test_hot_fraction_one_asks_one_unique_question(self):
        workload = build_workload(PAIRS, requests=10, hot_fraction=1.0,
                                  dup=1, seed=0)
        assert len({(w["design"], w["clock_period_ps"])
                    for w in workload}) == 1

    def test_replay_pairs_rejects_pointless_input(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "schema": 8, "experiment": "service", "quick": False, "jobs": 1,
            "solver": "full", "elapsed_s": 0.0, "store_key": "0" * 32,
            "data": {"workload": {"name": "x", "submitted": 0, "unique": 0,
                                  "dup": 1, "hot_fraction": 0.0,
                                  "concurrency": 1, "jobs": 1,
                                  "batch_window_ms": 0.0, "max_batch": 1},
                     "requests_per_s": 0.0, "p50_latency_s": 0.0,
                     "p95_latency_s": 0.0, "warm_hit_rate": 0.0,
                     "coalesce_rate": 0.0, "warm_speedup": 0.0,
                     "warm_latency_s": 0.0, "cold_latency_s": 0.0,
                     "ok": 0, "errors": 0, "served": {}, "cold_computed": 0,
                     "parity_checked": 0, "elapsed_s": 0.0,
                     "service_stats": {}}}))
        with pytest.raises(ValueError, match="no .design"):
            replay_pairs(path)


def test_small_run_exercises_all_three_layers():
    workload = build_workload(PAIRS, requests=30, hot_fraction=0.9, dup=2,
                              seed=0)
    result = asyncio.run(run_bench(
        ServiceConfig(jobs=1), workload, workload_name="unit",
        unique=len(PAIRS), dup=2, hot_fraction=0.9, concurrency=6, check=1))
    assert result.ok == len(workload) and result.errors == 0
    assert result.served.get("warm", 0) > 0
    assert result.served.get("coalesced", 0) > 0
    assert 0 < result.cold_computed <= len(PAIRS)
    assert result.cold_computed < result.submitted  # coalescing proven
    assert result.parity_checked == 1
    assert result.warm_speedup > 1.0

    payload = result.to_payload()
    assert payload["workload"]["submitted"] == len(workload)
    assert payload["requests_per_s"] > 0
    assert payload["p50_latency_s"] <= payload["p95_latency_s"]
    assert payload["warm_hit_rate"] == pytest.approx(result.warm_hit_rate)


def test_bench_main_writes_a_loadable_payload(tmp_path):
    out = tmp_path / "BENCH_service.json"
    code = bench_main(["--requests", "20", "--dup", "2", "--jobs", "1",
                       "--concurrency", "4", "--no-check",
                       "--out", str(out), "--require-coalescing"])
    assert code == 0
    envelope = json.loads(out.read_text())
    assert envelope["schema"] == 9
    assert envelope["experiment"] == "service"
    assert envelope["data"]["served"].get("coalesced", 0) > 0

    frame = load_any(out)
    assert len(frame.rows) == 1
    row = frame.rows[0]
    assert row.axes["design"] == "service:quick"
    assert row.metrics["requests_per_s"] > 0
    assert set(row.metrics) >= {"requests_per_s", "p50_latency_s",
                                "p95_latency_s", "warm_hit_rate",
                                "coalesce_rate", "warm_speedup"}


def test_gate_failures_exit_nonzero():
    code = bench_main(["--requests", "4", "--dup", "1", "--jobs", "1",
                       "--concurrency", "2", "--hot-fraction", "0.0",
                       "--no-check", "--min-hit-rate", "0.99"])
    assert code == 1
