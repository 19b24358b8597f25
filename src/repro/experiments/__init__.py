"""Experiment harnesses regenerating every table and figure of the paper.

Each module reproduces one artefact of the evaluation section:

* :mod:`~repro.experiments.table1` -- Table I (17 benchmarks, SDC vs. ISDC).
* :mod:`~repro.experiments.fig1`  -- Fig. 1 (estimated vs. post-synthesis delay).
* :mod:`~repro.experiments.fig5`  -- Fig. 5 (delay- vs. fanout-driven extraction).
* :mod:`~repro.experiments.fig6`  -- Fig. 6 (path vs. cone vs. window expansion).
* :mod:`~repro.experiments.fig7`  -- Fig. 7 (delay-estimation accuracy over iterations).
* :mod:`~repro.experiments.fig8`  -- Fig. 8 (post-synthesis delay vs. AIG depth).

The harnesses return plain dataclasses / dictionaries so they can be driven
both from the pytest benchmark suite and from the example scripts, and every
module has a ``format_*`` helper producing the ASCII rendition of the paper's
rows/series.
"""

from repro.experiments.tables import geometric_mean, format_table
from repro.experiments.table1 import TableOneRow, TableOneResult, run_table1, format_table1
from repro.experiments.fig1 import DesignPoint, run_delay_profile, profile_summary
from repro.experiments.fig5 import run_extraction_ablation
from repro.experiments.fig6 import run_expansion_ablation
from repro.experiments.fig7 import run_estimation_accuracy
from repro.experiments.fig8 import run_aig_correlation
from repro.experiments.serialize import experiment_payload

__all__ = [
    "experiment_payload",
    "geometric_mean",
    "format_table",
    "TableOneRow",
    "TableOneResult",
    "run_table1",
    "format_table1",
    "DesignPoint",
    "run_delay_profile",
    "profile_summary",
    "run_extraction_ablation",
    "run_expansion_ablation",
    "run_estimation_accuracy",
    "run_aig_correlation",
]
