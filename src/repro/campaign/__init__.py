"""Campaign engine: resumable (design x IsdcConfig) sweeps at scale.

The campaign subsystem turns the one-experiment-at-a-time runner into a
sweep workload: a :class:`~repro.campaign.spec.CampaignSpec` describes the
axes, the executor shards the expanded jobs over a process pool, and the
:class:`~repro.campaign.store.RunStore` checkpoints every completed job to
an append-only JSONL file so interrupted campaigns resume instead of
restarting.  See ``python -m repro.experiments.runner campaign --help``.
"""

from repro.campaign.executor import CampaignRunResult, execute_job, run_campaign
from repro.campaign.spec import CampaignJob, CampaignSpec, quick_spec
from repro.campaign.store import (RunStore, StoreMismatchError,
                                  STORE_SCHEMA_VERSION)

__all__ = [
    "CampaignJob",
    "CampaignRunResult",
    "CampaignSpec",
    "RunStore",
    "StoreMismatchError",
    "STORE_SCHEMA_VERSION",
    "execute_job",
    "quick_spec",
    "run_campaign",
]
