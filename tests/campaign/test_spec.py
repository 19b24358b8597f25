"""Tests for campaign specs: axis expansion, job identity, serialisation."""

import pytest

from repro.campaign.spec import CampaignSpec, quick_spec
from repro.isdc.config import IsdcConfig


def _small_spec(**overrides):
    defaults = dict(
        name="unit",
        designs=["rrot", "crc32"],
        extraction=["fanout", "delay"],
        subgraph_counts=[4, 8],
        max_iterations=2,
        backend="estimator",
        use_characterized_delays=False,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_jobs_are_the_ordered_cross_product():
    spec = _small_spec()
    jobs = spec.jobs()
    assert len(jobs) == 2 * 2 * 2  # designs x extraction x subgraph_counts
    assert [job.index for job in jobs] == list(range(len(jobs)))
    # Designs vary outermost, subgraph counts innermost.
    assert [job.design for job in jobs[:4]] == ["rrot"] * 4
    assert [job.config["subgraphs_per_iteration"] for job in jobs[:2]] == [4, 8]


def test_job_ids_are_content_addressed_and_stable():
    first = {job.job_id for job in _small_spec().jobs()}
    second = {job.job_id for job in _small_spec().jobs()}
    assert first == second
    assert len(first) == 8
    # Reordering an axis re-orders the work but never re-labels it.
    reordered = _small_spec(extraction=["delay", "fanout"])
    assert {job.job_id for job in reordered.jobs()} == first


def test_colliding_axis_points_deduplicate():
    """[None, X] where X is the design's own clock collapses to one job."""
    spec = _small_spec(designs=["rrot"], clock_periods_ps=[None, 2500.0])
    jobs = spec.jobs()
    assert len(jobs) == 4  # extraction x subgraph_counts, clock axis collapsed
    assert len({job.job_id for job in jobs}) == len(jobs)
    assert [job.index for job in jobs] == list(range(len(jobs)))


def test_none_clock_uses_the_design_default():
    spec = _small_spec(designs=["rrot"], clock_periods_ps=[None, 4000.0])
    clocks = {job.config["clock_period_ps"] for job in spec.jobs()}
    assert clocks == {2500.0, 4000.0}  # rrot's Table-I clock plus the override


def test_jobs_validate_through_isdc_config():
    with pytest.raises(ValueError):
        _small_spec(subgraph_counts=[0]).jobs()
    with pytest.raises(ValueError):
        _small_spec(extraction=["simulated-annealing"]).jobs()


def test_unknown_design_rejected_at_expansion():
    # A ValueError (not the registry's KeyError), as the docstring promises.
    with pytest.raises(ValueError, match="designs.*not a benchmark"):
        _small_spec(designs=["not a benchmark"]).jobs()


def test_from_dict_rejects_non_objects_and_unknown_fields():
    with pytest.raises(TypeError, match="JSON object"):
        CampaignSpec.from_dict(["rrot"])
    with pytest.raises(TypeError, match="unknown field 'solvers'"):
        CampaignSpec.from_dict({"designs": ["rrot"], "solvers": ["full"]})


def test_spec_round_trips_through_dict():
    spec = _small_spec()
    clone = CampaignSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.fingerprint() == spec.fingerprint()


def test_fingerprint_tracks_content():
    assert _small_spec().fingerprint() != \
        _small_spec(max_iterations=3).fingerprint()


def test_empty_axes_rejected():
    with pytest.raises(ValueError):
        CampaignSpec(designs=[])
    with pytest.raises(ValueError):
        _small_spec(extraction=[])


def test_quick_spec_is_valid_and_cheap():
    spec = quick_spec()
    jobs = spec.jobs()
    assert len(jobs) == 3 * 4  # 3 generated designs x 4 config points
    for job in jobs:
        config = job.build_config()
        assert isinstance(config, IsdcConfig)
        assert config.backend == "estimator"
        assert config.max_iterations <= 5


def test_job_config_round_trips_through_isdc_config():
    job = _small_spec().jobs()[0]
    assert IsdcConfig.from_payload(job.config).to_payload() == job.config
