"""The unified report frame: campaign stores and ``--json`` payloads as rows.

Every analysis in :mod:`repro.report` operates on one in-memory shape, the
:class:`ReportFrame`: a flat list of :class:`ReportRow`, one per (design x
configuration) run, regardless of whether the run came from a unified
:class:`~repro.store.ArtifactStore` holding campaign/payload records (a
campaign run store is one) or an experiment ``--json`` payload (envelope
schemas 1-9).  A row carries

* a content-addressed ``job_id`` (the campaign job id, or a synthesised
  digest for table1 rows) that baseline diffs join on,
* the campaign *axes* (``design``, ``clock_period_ps``, ``extraction``,
  ``expansion``, ``subgraphs_per_iteration``, ``backend``,
  plus the ``source`` file it was loaded from), and
* the numeric *metrics* (register/stage/slack before and after, iteration
  and true-synthesis-evaluation counts, wall-clock runtimes where the
  source records them).

Loading is schema-tolerant: fields newer than the payload simply produce
rows without those metrics, so schema-1 payloads and schema-7 payloads
aggregate side by side.

A tiny in-memory example (runnable)::

    >>> row = ReportRow(job_id="ab12", source="demo", axes={"design": "rrot"},
    ...                 metrics={"registers_final": 12.0})
    >>> frame = ReportFrame([row])
    >>> frame.metric_names()
    ['registers_final']
    >>> frame.rows[0].value("design")
    'rrot'
    >>> frame.rows[0].value("registers_final")
    12.0
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import safejson

#: Grouping axes a frame row may carry (besides metrics).
AXES = ("source", "design", "clock_period_ps", "extraction", "expansion",
        "subgraphs_per_iteration", "backend")

#: Axis aliases accepted by the CLI (`m` is the paper's subgraph budget).
AXIS_ALIASES = {"m": "subgraphs_per_iteration", "clock": "clock_period_ps"}


@dataclass(frozen=True)
class MetricSpec:
    """Direction and description of one report metric.

    Attributes:
        higher_is_better: orientation for regression detection (``False``
            for cost-like metrics such as registers or runtime).
        description: one-line meaning, surfaced by ``report --help``.
    """

    higher_is_better: bool
    description: str


#: Metrics the loaders know how to extract, with their orientation.
METRICS: dict[str, MetricSpec] = {
    "registers_initial": MetricSpec(False, "pipeline registers of the SDC baseline schedule"),
    "registers_final": MetricSpec(False, "pipeline registers after the ISDC loop"),
    "register_ratio": MetricSpec(False, "final/initial register ratio (paper Table I)"),
    "register_reduction": MetricSpec(True, "fractional register reduction, 1 - ratio"),
    "stages_initial": MetricSpec(False, "pipeline stages of the SDC baseline schedule"),
    "stages_final": MetricSpec(False, "pipeline stages after the ISDC loop"),
    "stage_ratio": MetricSpec(False, "final/initial stage ratio"),
    "slack_initial_ps": MetricSpec(False, "worst-stage slack of the baseline schedule"),
    "slack_final_ps": MetricSpec(False, "worst-stage slack after the ISDC loop"),
    "iterations": MetricSpec(False, "ISDC feedback iterations actually run"),
    "evaluations": MetricSpec(False, "true synthesis runs (cache answers excluded)"),
    "runtime_s": MetricSpec(False, "wall-clock runtime of the job/row"),
    "solver_time_s": MetricSpec(False, "cumulative LP re-solve time (schema >= 2)"),
    "synthesis_time_s": MetricSpec(False, "cumulative subgraph synthesis time (schema >= 2)"),
    "min_clock_ps": MetricSpec(False, "minimum feasible clock period found by the DSE search"),
    "min_ii": MetricSpec(False, "minimum feasible initiation interval found by the DSE min-ii search"),
    "dse_probes": MetricSpec(False, "clock-period probes the DSE search evaluated"),
    "warm_hit_rate": MetricSpec(True, "fraction of DSE probes served warm (memo or patched re-solve)"),
    "lp_rebuilds": MetricSpec(False, "DSE probes that needed a full LP rebuild"),
}


def metric_spec(name: str) -> MetricSpec:
    """Look up a metric's orientation/description.

    Raises:
        ValueError: for an unknown metric, naming the known ones.
    """
    try:
        return METRICS[name]
    except KeyError:
        known = ", ".join(sorted(METRICS))
        raise ValueError(f"unknown metric {name!r}; known metrics: {known}")


def resolve_axis(name: str) -> str:
    """Canonicalise an axis name (resolving CLI aliases).

    Raises:
        ValueError: for an unknown axis, naming the known ones.
    """
    canonical = AXIS_ALIASES.get(name, name)
    if canonical not in AXES:
        known = ", ".join(AXES + tuple(sorted(AXIS_ALIASES)))
        raise ValueError(f"unknown axis {name!r}; known axes: {known}")
    return canonical


@dataclass(frozen=True)
class ReportRow:
    """One (design x configuration) run in the unified frame.

    Attributes:
        job_id: content-addressed identity the baseline diff joins on.
        source: label of the file the row was loaded from.
        axes: axis name -> value (missing axes are simply absent).
        metrics: metric name -> numeric value (missing metrics absent).
    """

    job_id: str
    source: str
    axes: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def value(self, key: str):
        """Axis or metric value by name (``source`` included); None if absent."""
        if key == "source":
            return self.source
        if key in self.axes:
            return self.axes[key]
        return self.metrics.get(key)


@dataclass
class ReportFrame:
    """A flat collection of :class:`ReportRow` (order = load order)."""

    rows: list[ReportRow] = field(default_factory=list)

    def metric_names(self) -> list[str]:
        """Sorted names of metrics present on at least one row."""
        names: set[str] = set()
        for row in self.rows:
            names.update(row.metrics)
        return sorted(names)

    def by_job_id(self) -> dict[str, ReportRow]:
        """Map job id -> row (first occurrence wins on duplicates)."""
        index: dict[str, ReportRow] = {}
        for row in self.rows:
            index.setdefault(row.job_id, row)
        return index

    def extend(self, other: "ReportFrame") -> "ReportFrame":
        """Append another frame's rows (in place) and return self."""
        self.rows.extend(other.rows)
        return self


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _derived_metrics(metrics: dict) -> None:
    """Fill ratio/reduction metrics in place where the inputs exist."""
    initial = metrics.get("registers_initial")
    final = metrics.get("registers_final")
    if initial and final is not None and initial > 0:
        metrics["register_ratio"] = final / initial
        metrics["register_reduction"] = 1.0 - final / initial
    s_initial = metrics.get("stages_initial")
    s_final = metrics.get("stages_final")
    if s_initial and s_final is not None and s_initial > 0:
        metrics["stage_ratio"] = s_final / s_initial


def _campaign_row(source: str, job_id: str, design: str, config: dict,
                  result: dict, runtime_s: float | None) -> ReportRow:
    """Build a frame row from one campaign job's (config, result) payloads."""
    axes = {"design": design}
    for axis in ("clock_period_ps", "extraction", "expansion",
                 "subgraphs_per_iteration", "backend"):
        if axis in config:
            axes[axis] = config[axis]
    metrics: dict = {}
    initial = result.get("initial", {})
    final = result.get("final", {})
    for key, payload, name in (
            ("registers", initial, "registers_initial"),
            ("registers", final, "registers_final"),
            ("stages", initial, "stages_initial"),
            ("stages", final, "stages_final"),
            ("slack_ps", initial, "slack_initial_ps"),
            ("slack_ps", final, "slack_final_ps")):
        if key in payload:
            metrics[name] = float(payload[key])
    for key in ("iterations", "evaluations"):
        if key in result:
            metrics[key] = float(result[key])
    if runtime_s is not None:
        metrics["runtime_s"] = float(runtime_s)
    _derived_metrics(metrics)
    return ReportRow(job_id=job_id, source=source, axes=axes, metrics=metrics)


def _job_configs_from_spec(spec_payload: dict) -> dict[str, dict]:
    """Re-expand a store header's spec into job id -> config payload.

    Store job records carry only ``(job_id, design, result)``; the axes live
    in the header's spec.  Re-expanding the spec recovers them.  An
    unparseable spec (e.g. from a newer writer) degrades to no axes rather
    than failing the load.
    """
    from repro.campaign.spec import CampaignSpec

    try:
        spec = CampaignSpec.from_dict(spec_payload)
        return {job.job_id: job.config for job in spec.jobs()}
    except (TypeError, ValueError):
        return {}


def _table1_rows(source: str, envelope: dict) -> list[ReportRow]:
    rows = []
    for raw in envelope.get("data", {}).get("rows", []):
        design = raw.get("benchmark", "")
        clock = raw.get("clock_period_ps")
        axes = {"design": design}
        if clock is not None:
            axes["clock_period_ps"] = clock
        metrics: dict = {}
        for key, name in (("sdc_registers", "registers_initial"),
                          ("isdc_registers", "registers_final"),
                          ("sdc_stages", "stages_initial"),
                          ("isdc_stages", "stages_final"),
                          ("sdc_slack_ps", "slack_initial_ps"),
                          ("isdc_slack_ps", "slack_final_ps"),
                          ("isdc_iterations", "iterations"),
                          ("isdc_evaluations", "evaluations"),
                          ("isdc_time_s", "runtime_s"),
                          ("isdc_solver_time_s", "solver_time_s"),
                          ("isdc_synthesis_time_s", "synthesis_time_s")):
            if key in raw:
                metrics[name] = float(raw[key])
        _derived_metrics(metrics)
        # Synthesised join key: stable across runs of the same benchmark row.
        job_id = _digest({"experiment": "table1", "design": design,
                          "clock_period_ps": clock})
        rows.append(ReportRow(job_id=job_id, source=source, axes=axes,
                              metrics=metrics))
    return rows


def _dse_rows(source: str, envelope: dict) -> list[ReportRow]:
    data = envelope.get("data", {})
    mode = data.get("mode", "minclock")
    rows = []
    for raw in data.get("designs", []):
        design = raw.get("design", "")
        axes = {"design": design}
        start = raw.get("start_clock_ps")
        if start is not None:
            axes["clock_period_ps"] = start
        metrics: dict = {}
        if raw.get("min_clock_ps") is not None:
            metrics["min_clock_ps"] = float(raw["min_clock_ps"])
        if raw.get("min_ii") is not None:
            metrics["min_ii"] = float(raw["min_ii"])
        if "num_probes" in raw:
            metrics["dse_probes"] = float(raw["num_probes"])
        warm = raw.get("warm", {})
        for key, name in (("warm_hit_rate", "warm_hit_rate"),
                          ("lp_rebuilds", "lp_rebuilds"),
                          ("solve_time_s", "solver_time_s")):
            if key in warm:
                metrics[name] = float(warm[key])
        if "elapsed_s" in raw:
            metrics["runtime_s"] = float(raw["elapsed_s"])
        # Synthesised join key: stable across runs of the same search, so
        # `report diff` can gate a branch's min_clock_ps against main's.
        job_id = _digest({"experiment": "dse", "design": design,
                          "mode": mode, "start_clock_ps": start})
        rows.append(ReportRow(job_id=job_id, source=source, axes=axes,
                              metrics=metrics))
    return rows


def _campaign_payload_rows(source: str, envelope: dict) -> list[ReportRow]:
    return [
        _campaign_row(source=source, job_id=job.get("job_id", ""),
                      design=job.get("design", ""),
                      config=job.get("config", {}),
                      result=job.get("result", {}),
                      runtime_s=None)
        for job in envelope.get("data", {}).get("jobs", [])
    ]


def _payload_envelope_rows(label: str, envelope: dict,
                           origin: str) -> list[ReportRow]:
    """Rows of one runner payload envelope; raises for row-less payloads."""
    experiment = envelope.get("experiment")
    if experiment == "campaign":
        return _campaign_payload_rows(label, envelope)
    if experiment == "table1":
        return _table1_rows(label, envelope)
    if experiment == "dse":
        return _dse_rows(label, envelope)
    raise ValueError(
        f"cannot build report rows from the {experiment!r} payload in "
        f"{origin}; supported experiments: campaign, dse, table1")


def load_experiment_payload(path: str | Path,
                            source: str | None = None) -> ReportFrame:
    """Load a runner ``--json`` payload (envelope schemas 1-9) into a frame.

    Supported experiments: ``campaign`` (one row per job, axes from each
    job's config), ``table1`` (one row per benchmark, SDC columns as the
    ``*_initial`` metrics) and ``dse`` (one row per searched design with
    the ``min_clock_ps`` / warm-start metrics).  The figure payloads
    carry curves rather than per-run records and are rejected with a
    clear error.

    Raises:
        ValueError: not a runner payload, or an unsupported experiment.
    """
    path = Path(path)
    label = source if source is not None else path.name
    envelope = safejson.loads(path.read_text())
    if not isinstance(envelope, dict) or "experiment" not in envelope:
        raise ValueError(f"{path} is not a runner --json payload "
                         "(no 'experiment' field)")
    rows = _payload_envelope_rows(label, envelope, str(path))
    rows.sort(key=lambda row: row.job_id)
    return ReportFrame(rows)


def load_artifact_store(path: str | Path,
                        source: str | None = None) -> ReportFrame:
    """Load a unified artifact store (:mod:`repro.store`) into a frame.

    Campaign records (``campaign-header`` + ``campaign-job``) become one
    row per job -- axes re-expanded from each header's spec,
    ``runtime_s`` from the job bodies; a store holding
    several campaigns loads them all (job ids are content-addressed, so
    they cannot collide).  Archived ``payload`` records contribute rows
    for the row-shaped experiments (campaign/table1/dse); figure payloads
    and other record kinds (``dse-probe``, ``service-result``) carry no
    per-run rows and are skipped.  Every campaign header goes through
    :meth:`~repro.campaign.store.RunStore.validated_header`, so a store
    of another campaign schema is refused, not read with no axes.

    Raises:
        FileNotFoundError: no file at ``path``.
        StoreMismatchError: a campaign header of a foreign schema.
        ValueError: mid-file corruption (strict store load), or campaign
            job records with no campaign header to give them axes.
    """
    from repro.campaign.store import RunStore
    from repro.store import ArtifactStore

    path = Path(path)
    label = source if source is not None else path.name
    store = ArtifactStore.load(path)
    headers = list(store.kind("campaign-header"))
    jobs = list(store.kind("campaign-job"))
    if jobs and not headers:
        raise ValueError(f"{path} holds campaign jobs but no campaign header")
    configs: dict[str, dict] = {}
    for header in headers:
        body = RunStore.validated_header(header, path)
        configs.update(_job_configs_from_spec(body.get("spec", {})))
    rows = []
    for record in jobs:
        body = record.body
        rows.append(_campaign_row(
            source=label, job_id=record.key,
            design=body.get("design", ""),
            config=configs.get(record.key, {}),
            result=body.get("result", {}),
            runtime_s=body.get("runtime_s")))
    for record in store.kind("payload"):
        try:
            rows.extend(_payload_envelope_rows(label, record.body, str(path)))
        except ValueError:
            continue  # archived figure/report payloads carry no rows
    rows.sort(key=lambda row: row.job_id)
    return ReportFrame(rows)


def load_any(path: str | Path, source: str | None = None) -> ReportFrame:
    """Load any supported input kind by sniffing the first line.

    A first line that is a whole JSON object other than a runner payload
    marks a JSON-lines file, which must be a unified artifact store; the
    store's strict load names the first line that is not a record envelope
    (:class:`~repro.store.StoreFormatError`).  Anything else must be a
    runner ``--json`` payload.

    Raises:
        FileNotFoundError: no file at ``path``.
        StoreFormatError: a JSON-lines file that is not a unified store.
        ValueError: neither a store nor a supported payload.
    """
    path = Path(path)
    with path.open() as handle:
        first_line = handle.readline()
    try:
        first = safejson.loads(first_line)
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and "experiment" not in first:
        return load_artifact_store(path, source=source)
    return load_experiment_payload(path, source=source)


def load_frames(paths: Iterable[str | Path]) -> ReportFrame:
    """Load and concatenate several inputs into one frame.

    Rows are labelled with their file's basename; when two inputs share a
    basename (``runs/main/sweep.jsonl`` vs ``runs/branch/sweep.jsonl``)
    the full path is used instead, so the ``source`` axis always
    distinguishes the inputs.
    """
    paths = [Path(path) for path in paths]
    names = [path.name for path in paths]
    frame = ReportFrame()
    for path, name in zip(paths, names):
        label = name if names.count(name) == 1 else str(path)
        frame.extend(load_any(path, source=label))
    return frame


__all__ = [
    "AXES",
    "AXIS_ALIASES",
    "METRICS",
    "MetricSpec",
    "ReportFrame",
    "ReportRow",
    "load_any",
    "load_artifact_store",
    "load_experiment_payload",
    "load_frames",
    "metric_spec",
    "resolve_axis",
]
