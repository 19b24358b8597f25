"""Machine-readable payloads for the experiment harnesses.

Every experiment result converts to a plain-JSON-serialisable dict so runs
can be archived, diffed and consumed by the benchmark suite (``--json PATH``
on :mod:`repro.experiments.runner`).  The payload envelope is::

    {
      "schema": 9,
      "experiment": "<name>",
      "store_key": "<hex>",  # content key of (experiment, data), see repro.store
      "quick": bool,
      "jobs": int,
      "elapsed_s": float,
      "data": {...}          # experiment-specific, see the builders below
    }

Wall-clock fields (``elapsed_s`` and the per-row ``*_time_s`` columns,
including the ``table1`` per-phase ``isdc_solver_time_s`` /
``isdc_synthesis_time_s`` split) are the only values expected to differ
between runs or ``--jobs`` settings; all schedule-quality
figures are deterministic.  The ``campaign`` experiment's ``data`` section
carries no wall-clock fields at all: it is byte-identical across runs,
resumes and ``PYTHONHASHSEED`` values.

Schema history: 2 added the ``solver`` envelope field and the ``table1``
per-phase timing columns; 3 added the ``campaign`` experiment payload and
the ``table1`` per-row ``isdc_evaluations`` column (true synthesis runs,
disk-cache answers excluded); 4 added the ``report`` payload (the
aggregate-summary and baseline-diff bodies of :mod:`repro.report`, whose
``data.kind`` field -- ``"summary"`` or ``"diff"`` -- discriminates the
two shapes); 5 added the ``dse`` payload (per-design clock-period search
results from :mod:`repro.dse`, whose ``warm`` / ``elapsed_s`` fields are
the only run-dependent values -- see
:func:`repro.dse.search.deterministic_payload`); 6 added the
``store_key`` envelope field -- the payload's content key in the unified
artifact store (:func:`repro.store.payload_key` over the ``experiment``
and ``data`` fields only, so wall-clock envelope fields never perturb
it), letting archived ``payload`` store records and loose ``--json``
files cross-reference; 7 added pipelined-loop (initiation-interval)
scheduling: the ``dse`` payload grows the ``min-ii`` mode (per-design
``min_ii`` and per-probe ``ii`` fields), and design axes accept
``loop:`` generated-loop specs and textual-IR ``.ir`` file paths
alongside Table-I rows and ``gen:`` specs; 8 added the ``service``
payload (the scheduling-service benchmark of :mod:`repro.service.bench`:
throughput, p50/p95 latency, warm hit / coalesce rates and the
warm-vs-cold speedup -- all wall-clock-derived by nature, gated
direction-aware by ``runner report diff``); 9 removed the ``solver``
envelope field (the ISDC loop has one re-solve path).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.campaign.executor import CampaignRunResult
from repro.experiments.fig1 import DesignPoint, profile_summary
from repro.experiments.fig5 import AblationCurve
from repro.experiments.fig7 import EstimationAccuracyResult
from repro.experiments.fig8 import AigCorrelationResult
from repro.experiments.table1 import TableOneResult
from repro.store import payload_key

SCHEMA_VERSION = 9


def _table1_payload(result: TableOneResult) -> dict[str, Any]:
    return {
        "rows": [asdict(row) for row in result.rows],
        "summary": {
            "register_ratio": result.register_ratio,
            "stage_ratio": result.stage_ratio,
            "slack_ratio": result.slack_ratio,
            "runtime_ratio": result.runtime_ratio,
        },
    }


def _profile_payload(points: list[DesignPoint]) -> dict[str, Any]:
    return {
        "points": [asdict(point) for point in points],
        "summary": profile_summary(points),
    }


def _ablation_payload(curves: dict[tuple[str, int], AblationCurve]
                      ) -> dict[str, Any]:
    return {
        "curves": [asdict(curve) for _, curve in sorted(curves.items())],
    }


def _accuracy_payload(result: EstimationAccuracyResult) -> dict[str, Any]:
    return {
        "isdc_error": result.isdc_error,
        "sdc_error": result.sdc_error,
        "per_design": result.per_design,
    }


def _correlation_payload(result: AigCorrelationResult) -> dict[str, Any]:
    return {
        "num_points": len(result.points),
        "correlation": result.correlation,
        "ps_per_level": result.ps_per_level,
        "intercept_ps": result.intercept_ps,
        "points": [asdict(point) for point in result.points],
    }


def _campaign_payload(result: CampaignRunResult) -> dict[str, Any]:
    # The store's final payload is already canonical and wall-clock-free.
    return result.payload


def _report_payload(result: Any) -> dict[str, Any]:
    # AggregateReport and DiffReport both serialise themselves; their
    # payloads are discriminated by the "kind" field (summary vs diff).
    return result.to_payload()


def _dse_payload(result: Any) -> dict[str, Any]:
    # A repro.dse.search.DseResult serialises itself; min_clock_ps, the
    # probe schedule fields and the Pareto front are deterministic, the
    # per-design "warm"/"elapsed_s" fields are provenance/wall clock.
    return result.to_payload()


def _service_payload(result: Any) -> dict[str, Any]:
    # A repro.service.bench.ServiceBenchResult serialises itself.  Unlike
    # the other experiments this payload is *measurement*, not schedule
    # quality: every figure is wall-clock-derived, and report diff gates
    # it with thresholds rather than byte equality.
    return result.to_payload()


_PAYLOAD_BUILDERS = {
    "campaign": _campaign_payload,
    "dse": _dse_payload,
    "service": _service_payload,
    "report": _report_payload,
    "table1": _table1_payload,
    "fig1": _profile_payload,
    "fig5": _ablation_payload,
    "fig6": _ablation_payload,
    "fig7": _accuracy_payload,
    "fig8": _correlation_payload,
}


def experiment_payload(name: str, result: Any, quick: bool = False,
                       jobs: int = 1, elapsed_s: float = 0.0) -> dict[str, Any]:
    """Wrap one experiment's result in the machine-readable envelope.

    Args:
        name: experiment name (``table1``, ``fig1``/``5``/``6``/``7``/``8``,
            ``campaign``, ``report``, ``dse`` or ``service``).
        result: the raw object the experiment's ``run_*`` function returned.
        quick: whether reduced settings were used.
        jobs: worker processes the run was configured with.
        elapsed_s: wall-clock duration of the run.

    Raises:
        ValueError: for an unknown experiment name.
    """
    try:
        builder = _PAYLOAD_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_PAYLOAD_BUILDERS))
        raise ValueError(f"unknown experiment {name!r}; expected one of {known}")
    envelope = {
        "schema": SCHEMA_VERSION,
        "experiment": name,
        "quick": quick,
        "jobs": jobs,
        "elapsed_s": elapsed_s,
        "data": builder(result),
    }
    # The content key covers (experiment, data) only -- adding it to the
    # envelope cannot perturb it, and neither can wall-clock fields.
    envelope["store_key"] = payload_key(envelope)
    return envelope


__all__ = ["SCHEMA_VERSION", "experiment_payload"]
