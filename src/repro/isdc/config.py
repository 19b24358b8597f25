"""Configuration of the ISDC iterative scheduler."""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass


class ExtractionStrategy(enum.Enum):
    """How candidate paths are ranked before the top-m are extracted.

    ``DELAY`` ranks by estimated critical-path delay (the intuitive baseline
    the paper argues against); ``FANOUT`` ranks by the paper's Eq. 3 score,
    which prefers wide registers with few consumers.
    """

    DELAY = "delay"
    FANOUT = "fanout"


class ExpansionStrategy(enum.Enum):
    """How a selected path is expanded into the evaluated subgraph.

    ``PATH`` evaluates the nodes on the critical path only; ``CONE`` expands
    to the root's full in-stage input cone; ``WINDOW`` merges cones of other
    same-stage roots that share leaves with the selected cone.
    """

    PATH = "path"
    CONE = "cone"
    WINDOW = "window"


@dataclass
class IsdcConfig:
    """Tunable parameters of the ISDC loop.

    Attributes:
        clock_period_ps: target clock period.
        register_overhead_ps: sequential overhead subtracted from the clock
            period to obtain the combinational timing budget; ``None`` uses
            the technology library's register figure.
        subgraphs_per_iteration: how many subgraphs are extracted and sent to
            the downstream flow per iteration (``m`` in the paper; 4/8/16 are
            the ablation settings, 16 the Table-I setting).
        max_iterations: iteration cap (the paper uses 15 for Table I and 30
            for the ablations).
        patience: stop once register usage has not improved for this many
            consecutive iterations.
        extraction: ranking strategy for candidate paths.
        expansion: subgraph expansion strategy.
        use_characterized_delays: characterise isolated operator delays by
            synthesising single operations (paper-faithful) instead of using
            the closed-form model.
        optimize_subgraphs: run the logic optimiser inside the feedback flow.
        latency_weight: tie-breaking objective weight pulling operations
            earlier in the LP.
        track_estimation_error: record per-iteration delay-estimation error
            (needs one extra stage synthesis per iteration; used by Fig. 7).
        verbose: print a one-line summary per iteration.
        backend: flow-backend registry name for the downstream evaluations
            (``"local"`` for the full synthesis pipeline, ``"estimator"`` for
            the cheap closed-form quick mode).
    """

    clock_period_ps: float = 2500.0
    register_overhead_ps: float | None = None
    subgraphs_per_iteration: int = 16
    max_iterations: int = 15
    patience: int = 3
    extraction: ExtractionStrategy = ExtractionStrategy.FANOUT
    expansion: ExpansionStrategy = ExpansionStrategy.WINDOW
    use_characterized_delays: bool = True
    optimize_subgraphs: bool = True
    latency_weight: float = 1e-3
    track_estimation_error: bool = True
    verbose: bool = False
    backend: str = "local"

    def __post_init__(self) -> None:
        if not 0 < self.clock_period_ps < math.inf:
            raise ValueError("clock_period_ps must be positive and finite")
        if self.register_overhead_ps is not None \
                and not math.isfinite(self.register_overhead_ps):
            raise ValueError("register_overhead_ps must be finite")
        if self.subgraphs_per_iteration < 1:
            raise ValueError("subgraphs_per_iteration must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if not (math.isfinite(self.latency_weight)
                and self.latency_weight >= 0):
            raise ValueError("latency_weight must be finite and >= 0")
        if isinstance(self.extraction, str):
            self.extraction = ExtractionStrategy(self.extraction)
        if isinstance(self.expansion, str):
            self.expansion = ExpansionStrategy(self.expansion)

    def to_payload(self) -> dict:
        """Canonical JSON-serialisable form of this configuration.

        Enums become their string values; field order is the declaration
        order, so ``json.dumps(config.to_payload(), sort_keys=True)`` is a
        stable identity for campaign job ids and spec fingerprints.
        """
        payload = asdict(self)
        payload["extraction"] = self.extraction.value
        payload["expansion"] = self.expansion.value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "IsdcConfig":
        """Rebuild a configuration from :meth:`to_payload` output.

        Raises:
            TypeError: on unknown fields (a payload from a newer schema).
            ValueError: on invalid field values.
        """
        return cls(**payload)
