"""Report engine: the read side of the campaign/sweep platform.

The campaign engine (:mod:`repro.campaign`) produces checkpointed JSONL
run stores; the experiment runner produces ``--json`` payloads.  This
package turns both into paper-style comparisons:

* :mod:`repro.report.frame` -- load any mix of stores and payloads into
  one unified in-memory frame of (axes, metrics) rows;
* :mod:`repro.report.aggregate` -- group by campaign axes and reduce
  metrics with geomean/mean/p50/p95;
* :mod:`repro.report.diff` -- join two frames on content-addressed job
  ids and gate on regressions (the CI contract);
* :mod:`repro.report.render` -- Markdown/CSV/JSON/ASCII output;
* :mod:`repro.report.cli` -- the ``runner report`` subcommand.

See ``python -m repro.experiments.runner report --help`` and
``docs/cli.md``.
"""

from repro.report.aggregate import (AggregateGroup, AggregateReport,
                                    DEFAULT_REDUCERS, REDUCERS, aggregate)
from repro.report.diff import (DEFAULT_THRESHOLD, DiffReport, JobDelta,
                               diff_frames)
from repro.report.frame import (AXES, METRICS, MetricSpec, ReportFrame,
                                ReportRow, load_any, load_experiment_payload,
                                load_frames, metric_spec, resolve_axis)
from repro.report.render import (FORMATS, render_aggregate, render_diff)

__all__ = [
    "AXES",
    "AggregateGroup",
    "AggregateReport",
    "DEFAULT_REDUCERS",
    "DEFAULT_THRESHOLD",
    "DiffReport",
    "FORMATS",
    "JobDelta",
    "METRICS",
    "MetricSpec",
    "REDUCERS",
    "ReportFrame",
    "ReportRow",
    "aggregate",
    "diff_frames",
    "load_any",
    "load_experiment_payload",
    "load_frames",
    "metric_spec",
    "render_aggregate",
    "render_diff",
    "resolve_axis",
]
