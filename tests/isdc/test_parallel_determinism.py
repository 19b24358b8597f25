"""ISDC results do not depend on where the loop runs.

``--jobs`` parallelises one level above the loop: whole designs (or campaign
jobs, or DSE probes) are shipped to forked workers, each running its own
serial ISDC loop.  A loop run in a worker must produce the byte-identical
history (wall-clock fields aside) of the same loop run in-process, and every
run starts from a cold in-memory cache.
"""

import dataclasses
import pickle

import pytest

from repro.designs.suite import table1_suite
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.parallel import parallel_map

DESIGNS = ("rrot", "crc32")


def _case(name):
    return next(case for case in table1_suite() if case.name == name)


def _canonical_history(result):
    """The history with wall-clock fields zeroed (everything else compared)."""
    return [dataclasses.replace(record, runtime_s=0.0, solver_runtime_s=0.0,
                                synthesis_runtime_s=0.0)
            for record in result.history]


def _run(name: str):
    """One serial ISDC loop (module-level so it pickles into the pool)."""
    case = _case(name)
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=4, max_iterations=3,
                        patience=3, track_estimation_error=True)
    scheduler = IsdcScheduler(config)
    result = scheduler.schedule(case.build())
    stats = scheduler.feedback.cache.stats
    return {
        "history": pickle.dumps(_canonical_history(result)),
        "registers": result.final_report.num_registers,
        "stage_delays_ps": result.final_report.stage_delays_ps,
        "initial_slack_ps": result.initial_report.slack_ps,
        "evaluated": result.subgraphs_evaluated,
        "stats": (stats.hits, stats.misses, stats.synth_runs),
    }


@pytest.mark.parametrize("design", DESIGNS)
def test_jobs_do_not_change_isdc_histories(design):
    serial = _run(design)
    parallel = parallel_map(_run, [design, design], jobs=2)
    assert parallel == [serial, serial]


def test_every_run_starts_from_a_cold_cache():
    """The cache is an in-memory memo per loop: a second loop over the same
    design re-synthesises exactly what the first did, and every miss is one
    synthesis run."""
    first, second = _run("rrot"), _run("rrot")
    _, misses, synth_runs = first["stats"]
    assert misses > 0
    assert synth_runs == misses == first["evaluated"]
    assert second == first


def test_estimator_backend_runs_the_loop():
    """Quick mode: the cheap backend drives the whole loop end to end."""
    case = _case("rrot")
    config = IsdcConfig(clock_period_ps=case.clock_period_ps,
                        subgraphs_per_iteration=4, max_iterations=2,
                        patience=2, track_estimation_error=False,
                        use_characterized_delays=False, backend="estimator")
    result = IsdcScheduler(config).schedule(case.build())
    assert result.iterations >= 0
    assert result.final_report.num_registers <= \
        result.initial_report.num_registers
