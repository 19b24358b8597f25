"""Warm-vs-cold byte parity and determinism of the DSE layer.

The warm-start engine's core contract: a probe served by any warm path
(memo, clone + rebase, plateau solution reuse) returns *exactly* the
schedule a from-scratch cold solve returns -- same stages dict, same stage
count, same register count -- at every probed period, in any probe order.
A hypothesis sweep drives randomized clock orders over seeded generated
designs; real min-clock searches are replayed probe by probe against fully
cold solves; subprocess tests pin hash-seed independence and ``--jobs``
independence of the deterministic payload.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.designs.generator import case_from_name
from repro.dse.optimizer import MinClockOptimizer
from repro.dse.search import deterministic_payload, drive_optimizer, run_dse
from repro.dse.warm import ProblemCache
from tests.sdc.certificate import verify_schedule_certificate

#: Designs whose warm searches the warm-vs-cold speedup gate times
#: (``benchmarks/test_speedup_gates.py``): plateaus wide enough that warm
#: starting pays.
GATED_DESIGNS = ("rrot", "ML-core datapath1", "hsv2rgb")

#: Narrow-plateau designs: crc32's ceil-bucket boundaries sit ~0.02 ps
#: apart near its minimum clock, so nearly every rebase patches bounds.
EXTENDED_DESIGNS = (
    "crc32",
    "gen:seed=3,depth=8,width=6,fanout=2,bits=16,inputs=4,clock=2500,"
    "mix=add4+sub2+xor3+and2+or2+rotr1",
)


def gen_design(seed: int) -> str:
    return (f"gen:seed={seed},depth=5,width=3,fanout=2,bits=8,inputs=3,"
            "clock=2000,mix=add3+xor2+sub1+rotr1")


def assert_probe_parity(warm, cold):
    """The deterministic fields of a warm probe must equal the cold ones."""
    assert warm.feasible == cold.feasible
    assert warm.reason == cold.reason
    assert warm.num_stages == cold.num_stages
    assert warm.num_registers == cold.num_registers
    assert warm.stages == cold.stages  # byte-identical schedule


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_warm_equals_cold_in_any_probe_order(data):
    seed = data.draw(st.integers(min_value=0, max_value=5), label="seed")
    design = gen_design(seed)
    cache = ProblemCache()
    context = cache.context(design)
    low = context.lower_bound_ps * 0.9   # includes budget-infeasible probes
    high = context.default_clock_ps * 1.6
    grid = [round(low + (high - low) * step / 7, 3) for step in range(8)]
    order = data.draw(st.permutations(grid), label="probe order")
    for period in order:
        warm = cache.probe(design, period)
        cold = cache.cold_probe(design, period)
        assert_probe_parity(warm, cold)
    # Re-probing the whole grid is served entirely by the memo -- and still
    # byte-identical.
    for period in grid:
        again = cache.probe(design, period)
        assert again.memo_hit
        assert_probe_parity(again, cache.cold_probe(design, period))


@functools.cache
def warm_search(design: str, start_clock_ps: float | None = None,
                resolution_ps: float = 1.0, speculate: int = 4):
    """One warm min-clock search: ``(converged, probes)``.

    ``start_clock_ps`` defaults to the design's own clock period.
    """
    if start_clock_ps is None:
        start_clock_ps = case_from_name(design).clock_period_ps
    cache = ProblemCache()
    optimizer = MinClockOptimizer(design, start_clock_ps,
                                  resolution_ps=resolution_ps)
    probes = drive_optimizer(
        optimizer,
        lambda batch: [cache.probe(design, period) for period in batch],
        width=speculate)
    return optimizer.converged, tuple(probes)


@pytest.mark.parametrize("search", [
    ("rrot", 2500.0, 5.0, 3),
    *((design, None, 1.0, 4) for design in GATED_DESIGNS + EXTENDED_DESIGNS),
], ids=lambda search: f"{search[0]}@{search[2]:g}ps/x{search[3]}")
def test_warm_equals_cold_across_real_design_search(search):
    """End-to-end: a real min-clock search converges, every probe is
    identical to a cold solve from a fresh cache (nothing shared), and
    every feasible probe's schedule passes the from-scratch certificate."""
    design = search[0]
    converged, probes = warm_search(*search)
    assert converged
    warm_served = [p for p in probes if p.warm_patched or p.memo_hit]
    assert warm_served, "search too short to exercise any warm path"
    for probe in probes:
        assert_probe_parity(
            probe, ProblemCache().cold_probe(design, probe.clock_period_ps))
    context = ProblemCache().context(design)
    for probe in probes:
        if probe.feasible:
            verify_schedule_certificate(
                context.graph, context.matrix, context.index_of,
                probe.clock_period_ps - context.register_overhead_ps,
                probe.ii, probe.stages)


def test_warm_searches_rebuild_fewer_lps():
    """Over the gated designs, warm starting skips >= 30% of the LP
    rebuilds a cache-less tool pays (one per non-budget probe)."""
    probes = [probe for design in GATED_DESIGNS
              for probe in warm_search(design)[1]]
    lp_probes = sum(1 for p in probes if p.reason != "budget")
    rebuilds = sum(1 for p in probes if p.lp_rebuild)
    assert lp_probes > 0
    assert 1.0 - rebuilds / lp_probes >= 0.3, (rebuilds, lp_probes)


@pytest.mark.parametrize("mode, designs", [
    ("minclock", [gen_design(7)]),
    ("pareto", ["rrot", gen_design(7)]),
])
def test_jobs_do_not_change_the_deterministic_payload(mode, designs):
    """--jobs 1 and --jobs 2 probe identical periods at fixed --speculate."""
    kwargs = dict(mode=mode, speculate=3, resolution_ps=10.0,
                  max_probes=48)
    serial = run_dse(designs, jobs=1, **kwargs)
    parallel = run_dse(designs, jobs=2, **kwargs)
    assert deterministic_payload(serial.to_payload()) \
        == deterministic_payload(parallel.to_payload())


_DSE_SCRIPT = r"""
import json, sys
from repro.dse.search import deterministic_payload, run_dse

design = ("gen:seed=3,depth=5,width=3,fanout=2,bits=8,inputs=3,"
          "clock=2000,mix=add3+xor2+sub1+rotr1")
result = run_dse([design], mode="minclock", jobs=1, speculate=2,
                 resolution_ps=10.0)
json.dump(deterministic_payload(result.to_payload()), sys.stdout,
          sort_keys=True)
"""


def _run_under_seed(script: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("other_seed", ["31337", "random"])
def test_dse_payload_is_hashseed_independent(other_seed):
    baseline = _run_under_seed(_DSE_SCRIPT, "0")
    payload = json.loads(baseline)
    assert payload["designs"][0]["min_clock_ps"] is not None
    assert _run_under_seed(_DSE_SCRIPT, other_seed) == baseline
