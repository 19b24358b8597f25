"""Campaign specifications: (design x configuration) sweep descriptions.

A :class:`CampaignSpec` names the axes of a sweep -- designs (Table-I rows
or ``gen:`` generated-design specs), clock periods, extraction/expansion
strategies and per-iteration subgraph budgets -- and
expands their cross product into an ordered list of :class:`CampaignJob`.

Every job carries a *content-addressed id*: the SHA-256 of its canonical
``(design, config)`` JSON.  Ids are therefore stable across interpreter
runs, ``PYTHONHASHSEED`` values and processes, which is what makes the run
store's resume-by-id semantics sound.

Expansion is the ordered cross product of the list-valued axes (designs
outermost, subgraph counts innermost), and a spec round-trips losslessly
through its JSON form::

    >>> spec = CampaignSpec(name="doc", designs=["rrot"],
    ...                     extraction=["fanout", "delay"],
    ...                     subgraph_counts=[4, 8])
    >>> jobs = spec.jobs()
    >>> len(jobs)                        # 2 strategies x 2 budgets
    4
    >>> [job.config["extraction"] for job in jobs]
    ['fanout', 'fanout', 'delay', 'delay']
    >>> restored = CampaignSpec.from_dict(spec.to_dict())
    >>> restored.fingerprint() == spec.fingerprint()
    True
    >>> [job.job_id for job in restored.jobs()] == [j.job_id for j in jobs]
    True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

from repro import safejson
from repro.designs.generator import case_from_name
from repro.isdc.config import IsdcConfig

JOB_ID_BYTES = 16


def _canonical_digest(payload: Any) -> str:
    """Hex digest of a JSON-serialisable payload, independent of hash seeds."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class CampaignJob:
    """One (design, configuration) point of a campaign.

    Attributes:
        index: position in the spec's canonical job order.
        job_id: content-addressed identity (prefix of the SHA-256 of the
            canonical ``(design, config)`` payload).
        design: design name (``gen:`` spec or Table-I row), resolvable by
            :func:`repro.designs.generator.case_from_name` in any process.
        config: canonical :class:`IsdcConfig` payload for the run.
    """

    index: int
    job_id: str
    design: str
    config: dict

    def build_config(self) -> IsdcConfig:
        """Instantiate the job's scheduler configuration."""
        return IsdcConfig.from_payload(self.config)


@dataclass
class CampaignSpec:
    """The axes of a (design x IsdcConfig) sweep.

    List-valued fields are sweep axes (their cross product defines the
    jobs); scalar fields apply to every job.  ``clock_periods_ps`` may
    contain ``None``, meaning "the design's own clock period" (the Table-I
    row figure, or the ``clock=`` field of a ``gen:`` name).

    Attributes:
        name: human-readable campaign name (reports and the store header).
        designs: design names; Table-I rows and/or ``gen:`` specs.
        clock_periods_ps: clock-period axis (``None`` entries use the
            design default).
        extraction: extraction-strategy axis (``"fanout"``/``"delay"``).
        expansion: expansion-strategy axis (``"path"``/``"cone"``/``"window"``).
        subgraph_counts: per-iteration subgraph budget axis (``m``).
        max_iterations: iteration cap applied to every job.
        patience: early-stop patience applied to every job.
        backend: flow backend for every job (``"local"``/``"estimator"``).
        use_characterized_delays: characterise isolated operator delays.
        track_estimation_error: record per-iteration estimation error.
    """

    name: str = "campaign"
    designs: list[str] = field(default_factory=list)
    clock_periods_ps: list[float | None] = field(default_factory=lambda: [None])
    extraction: list[str] = field(default_factory=lambda: ["fanout"])
    expansion: list[str] = field(default_factory=lambda: ["window"])
    subgraph_counts: list[int] = field(default_factory=lambda: [16])
    max_iterations: int = 15
    patience: int = 3
    backend: str = "local"
    use_characterized_delays: bool = True
    track_estimation_error: bool = False

    def __post_init__(self) -> None:
        for axis_name in ("designs", "clock_periods_ps", "extraction",
                          "expansion", "subgraph_counts"):
            if not getattr(self, axis_name):
                raise ValueError(f"field {axis_name!r} must not be empty")

    # ------------------------------------------------------------- expansion

    def jobs(self) -> list[CampaignJob]:
        """The sweep's cross product as an ordered, id-stamped job list.

        Axis order (designs outermost, subgraph counts innermost) fixes the
        canonical job order; a job's identity, however, comes only from its
        content, so reordering axes in a spec re-orders but never re-labels
        work.  Axis points that collapse onto the same content -- e.g. a
        ``clock_periods_ps`` of ``[None, X]`` where ``X`` is a design's own
        default clock -- are deduplicated: one job per distinct id, first
        occurrence wins, so job counts always match the store's id-keyed
        resume semantics.

        Raises:
            ValueError: when a design name or a configuration point is
                invalid (every point is validated through
                :class:`IsdcConfig` at expansion time).
        """
        jobs: list[CampaignJob] = []
        seen: set[str] = set()
        for design in self.designs:
            try:
                case = case_from_name(design)
            except (KeyError, ValueError) as error:
                raise ValueError(f"field 'designs': {error.args[0]}") from None
            for clock in self.clock_periods_ps:
                for extraction in self.extraction:
                    for expansion in self.expansion:
                        for count in self.subgraph_counts:
                            config = IsdcConfig(
                                clock_period_ps=(case.clock_period_ps
                                                 if clock is None
                                                 else float(clock)),
                                subgraphs_per_iteration=count,
                                max_iterations=self.max_iterations,
                                patience=self.patience,
                                extraction=extraction,
                                expansion=expansion,
                                backend=self.backend,
                                use_characterized_delays=(
                                    self.use_characterized_delays),
                                track_estimation_error=(
                                    self.track_estimation_error),
                            ).to_payload()
                            digest = _canonical_digest(
                                {"design": design, "config": config})
                            job_id = digest[:JOB_ID_BYTES * 2]
                            if job_id in seen:
                                continue
                            seen.add(job_id)
                            jobs.append(CampaignJob(
                                index=len(jobs),
                                job_id=job_id,
                                design=design,
                                config=config))
        return jobs

    # ---------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        """Plain JSON-serialisable form (the spec-file format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Build a spec from :meth:`to_dict` output / a parsed spec file.

        Raises:
            TypeError: on a payload that is not a dict, or unknown fields.
            ValueError: on invalid axis values.
        """
        if not isinstance(payload, dict):
            raise TypeError(f"expected a JSON object, got "
                            f"{type(payload).__name__}")
        unknown = sorted(set(payload) - {item.name for item in fields(cls)})
        if unknown:
            raise TypeError(f"unknown field {unknown[0]!r}")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        """Load a JSON spec file.

        Raises:
            OSError: the file cannot be read.
            json.JSONDecodeError: the file is not valid JSON.
            TypeError: on a non-object document or unknown fields.
            ValueError: on invalid axis values.
        """
        return cls.from_dict(safejson.loads(Path(path).read_text()))

    def fingerprint(self) -> str:
        """Content identity of the whole spec (guards resume compatibility)."""
        return _canonical_digest(self.to_dict())


def quick_spec(num_designs: int = 3, seed: int = 0,
               designs: Sequence[str] | None = None) -> CampaignSpec:
    """The built-in smoke campaign: generated designs, estimator backend.

    ``num_designs`` generated designs x 4 configuration points (two
    extraction strategies x two subgraph budgets), small iteration counts
    and the closed-form backend, so the whole sweep finishes in seconds.
    ``designs`` swaps in explicit names (Table-I rows, ``gen:``/``loop:``
    specs, or ``.ir`` file paths) instead of the generated designs while
    keeping the quick configuration axes -- the ``runner campaign
    --design`` path.
    """
    from repro.designs.generator import GeneratorParams

    if designs:
        designs = list(designs)
    else:
        designs = [GeneratorParams(seed=seed + offset, depth=5, width=3).name
                   for offset in range(num_designs)]
    return CampaignSpec(
        name="quick",
        designs=designs,
        extraction=["fanout", "delay"],
        subgraph_counts=[4, 8],
        max_iterations=3,
        patience=3,
        backend="estimator",
        use_characterized_delays=False,
    )


__all__ = ["CampaignJob", "CampaignSpec", "quick_spec"]
