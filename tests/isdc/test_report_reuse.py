"""The final pipeline reports are served from the loop's evaluation cache.

Every stage set of every schedule in the history goes through the cache
while the loop tracks estimation error, so the two reports at the end of
:meth:`IsdcScheduler.schedule` synthesise nothing new; the reports stay
equal to ones computed straight from the backend, and
``subgraphs_evaluated`` keeps counting the loop's syntheses only.
"""

from __future__ import annotations

import pytest

from repro.designs.ml_core import build_ml_core_datapath1
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.sdc.pipeline import PipelineAnalyzer
from repro.synth.backend import create_backend


class CountingBackend:
    """Forwards to a backend, counting the subgraphs it is asked for."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.library = inner.library
        self.subgraphs = 0

    def evaluate_batch(self, graph, node_sets, names=None):
        self.subgraphs += len(node_sets)
        return self.inner.evaluate_batch(graph, node_sets, names)


def _run(track_estimation_error: bool):
    """Schedule datapath1, recording backend work and cache state per report.

    Returns ``(scheduler, result, per_report)`` where ``per_report`` holds
    one ``(backend subgraphs, synth_runs before)`` pair per ``report()``.
    """
    scheduler = IsdcScheduler(IsdcConfig(
        clock_period_ps=2500.0, track_estimation_error=track_estimation_error))
    cache = scheduler.feedback.cache
    counting = CountingBackend(cache.backend)
    cache.backend = counting
    per_report: list[tuple[int, int]] = []
    report = scheduler.analyzer.report

    def counted_report(schedule):
        before, synth_runs = counting.subgraphs, cache.stats.synth_runs
        result = report(schedule)
        per_report.append((counting.subgraphs - before, synth_runs))
        return result

    scheduler.analyzer.report = counted_report
    result = scheduler.schedule(build_ml_core_datapath1())
    return scheduler, result, per_report


@pytest.fixture(scope="module")
def tracked():
    return _run(track_estimation_error=True)


@pytest.fixture(scope="module")
def untracked():
    return _run(track_estimation_error=False)


def test_default_config_reports_make_no_backend_calls(tracked):
    scheduler, result, per_report = tracked
    assert scheduler.analyzer.flow is scheduler.feedback.cache
    assert [work for work, _ in per_report] == [0, 0]
    assert result.subgraphs_evaluated == scheduler.feedback.evaluations


def test_untracked_evaluations_exclude_report_syntheses(untracked):
    scheduler, result, per_report = untracked
    assert len(per_report) == 2
    synth_runs_before_reports = per_report[0][1]
    assert result.subgraphs_evaluated == synth_runs_before_reports
    # Whatever the reports did synthesise went through the cache.
    report_work = sum(work for work, _ in per_report)
    assert scheduler.feedback.evaluations == (synth_runs_before_reports
                                              + report_work)


@pytest.mark.parametrize("run", ["tracked", "untracked"])
def test_reports_equal_a_raw_backend_analyzer(run, request):
    scheduler, result, _ = request.getfixturevalue(run)
    raw = PipelineAnalyzer(flow=create_backend("local", scheduler.library),
                           library=scheduler.library)
    assert result.initial_report == raw.report(result.initial_schedule)
    assert result.final_report == raw.report(result.final_schedule)
