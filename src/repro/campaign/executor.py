"""The sharded campaign executor: runs sweep jobs with checkpointed resume.

Jobs are shipped to worker processes as ``(design name, config payload)``
pairs -- both plain picklable data -- and re-built worker-side through the
design registry (:func:`repro.designs.generator.case_from_name`) and
:meth:`~repro.isdc.config.IsdcConfig.from_payload`.  Results stream back in
completion order and are checkpointed into the :class:`~repro.campaign.store.RunStore`
immediately, so an interrupted campaign resumes from its completed jobs.

Each job's ``result`` payload contains only deterministic quantities
(schedules, register/stage trajectories, true synthesis counts); wall-clock
time is recorded beside it.  The final payload is assembled in the spec's
canonical job order, independent of completion order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RunStore
from repro.designs.generator import case_from_name
from repro.isdc.config import IsdcConfig
from repro.isdc.scheduler import IsdcScheduler
from repro.parallel import shared_pool


def execute_job(design: str, config_payload: dict) -> dict:
    """Run one campaign job and return its deterministic result payload."""
    case = case_from_name(design)
    config = IsdcConfig.from_payload(config_payload)
    result = IsdcScheduler(config).schedule(case.build())
    final = result.final_schedule
    return {
        "design": design,
        "initial": {
            "stages": result.initial_report.num_stages,
            "registers": result.initial_report.num_registers,
            "slack_ps": result.initial_report.slack_ps,
        },
        "final": {
            "stages": result.final_report.num_stages,
            "registers": result.final_report.num_registers,
            "slack_ps": result.final_report.slack_ps,
        },
        "iterations": result.iterations,
        "evaluations": result.subgraphs_evaluated,
        "registers_by_iteration": result.register_trajectory(),
        "stages_by_iteration": [record.num_stages for record in result.history],
        "schedule": {str(node_id): stage
                     for node_id, stage in sorted(final.stages.items())},
    }


def _execute_payload(payload: tuple[str, dict]) -> dict:
    """Worker-side entry point (module-level so it pickles into the pool)."""
    return execute_job(*payload)


@dataclass
class CampaignRunResult:
    """Outcome of one :func:`run_campaign` invocation.

    Attributes:
        spec: the campaign that ran.
        payload: the deterministic final payload
            (:meth:`~repro.campaign.store.RunStore.final_payload`).
        executed: jobs actually run by this invocation.
        skipped: jobs answered by the store's checkpoints (resume).
        elapsed_s: wall-clock time of this invocation.
        job_runtimes_s: job id -> wall-clock runtime of the jobs run here.
    """

    spec: CampaignSpec
    payload: dict
    executed: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0
    job_runtimes_s: dict[str, float] = field(default_factory=dict)


def run_campaign(spec: CampaignSpec, store: RunStore | None = None,
                 jobs: int = 1, resume: bool = False,
                 verbose: bool = False) -> CampaignRunResult:
    """Execute (or finish) a campaign sweep.

    Args:
        spec: the sweep description.
        store: run store for checkpoints; an in-memory store is used when
            omitted (no durability, no resume across processes).
        jobs: worker processes sharding the sweep's jobs; results and the
            final payload are identical for any value.
        resume: continue from the store's completed jobs instead of
            refusing to touch an existing store file.
        verbose: print one line per completed job.

    Raises:
        FileExistsError: the store file exists and ``resume`` is false.
        StoreMismatchError: the store belongs to a different campaign.
    """
    start = time.perf_counter()
    store = store if store is not None else RunStore()
    all_jobs = spec.jobs()  # expanded once, shared with every store call
    store.open(spec, resume=resume, jobs=all_jobs)

    pending = store.missing(spec, jobs=all_jobs)
    skipped = len(all_jobs) - len(pending)

    runtimes: dict[str, float] = {}
    payloads = [(job.design, job.config) for job in pending]
    previous = time.perf_counter()
    # Shards stream through the process-wide shared pool so consecutive
    # campaigns (and service cold-miss batches) reuse one set of workers
    # instead of respawning per invocation.
    pool = shared_pool(jobs)
    for position, result in pool.imap_unordered(_execute_payload, payloads):
        job = pending[position]
        # Per-job wall clock is exact when serial; under a pool it is the
        # span since the previous completion (throughput, not latency).
        now = time.perf_counter()
        runtime = now - previous
        previous = now
        store.record(job, result, runtime)
        runtimes[job.job_id] = runtime
        if verbose:
            print(f"[campaign] {job.job_id} {job.design}: "
                  f"registers {result['initial']['registers']} -> "
                  f"{result['final']['registers']} "
                  f"({result['iterations']} iterations)")

    return CampaignRunResult(
        spec=spec,
        payload=store.final_payload(spec, jobs=all_jobs),
        executed=len(pending),
        skipped=skipped,
        elapsed_s=time.perf_counter() - start,
        job_runtimes_s=runtimes,
    )


__all__ = ["CampaignRunResult", "execute_job", "run_campaign"]
