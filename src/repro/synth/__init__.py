"""Downstream-tool flow: logic synthesis + static timing analysis.

This package is the reproduction's "downstream tool" from the paper's Fig. 2:
it accepts a combinational subgraph of the HLS IR, lowers it to gates,
optimises the logic and reports the post-synthesis critical-path delay.  The
ISDC feedback loop only ever consumes that one number per subgraph, exactly
as the paper's flow consumes the Yosys + OpenSTA report.

Concrete tools plug in behind the :class:`FlowBackend` protocol (see
:mod:`repro.synth.backend`); :class:`SynthesisFlow` is the default
lower -> optimise -> STA pipeline, and :class:`EstimatorBackend` is a cheap
closed-form stand-in for quick mode.
"""

from repro.synth.report import SynthesisReport
from repro.synth.flow import SynthesisFlow
from repro.synth.backend import (
    BACKENDS,
    EstimatorBackend,
    FlowBackend,
    create_backend,
)
from repro.synth.cache import CacheStatistics, EvaluationCache
from repro.synth.estimator import CharacterizedOperatorModel, NaiveDelayEstimator
from repro.synth.fingerprint import canonical_subgraph, subgraph_fingerprint

__all__ = [
    "BACKENDS",
    "CacheStatistics",
    "CharacterizedOperatorModel",
    "EstimatorBackend",
    "EvaluationCache",
    "FlowBackend",
    "NaiveDelayEstimator",
    "SynthesisFlow",
    "SynthesisReport",
    "canonical_subgraph",
    "create_backend",
    "subgraph_fingerprint",
]
