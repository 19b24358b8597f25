"""Tests for the ISDC configuration object."""

import pytest

from repro.isdc.config import ExpansionStrategy, ExtractionStrategy, IsdcConfig


def test_defaults_match_paper_table1_setting():
    config = IsdcConfig()
    assert config.subgraphs_per_iteration == 16
    assert config.max_iterations == 15
    assert config.extraction is ExtractionStrategy.FANOUT
    assert config.expansion is ExpansionStrategy.WINDOW


def test_string_strategies_coerced():
    config = IsdcConfig(extraction="delay", expansion="cone")
    assert config.extraction is ExtractionStrategy.DELAY
    assert config.expansion is ExpansionStrategy.CONE


@pytest.mark.parametrize("kwargs", [
    {"clock_period_ps": 0},
    {"clock_period_ps": -1},
    {"subgraphs_per_iteration": 0},
    {"max_iterations": 0},
    {"patience": 0},
    {"clock_period_ps": float("nan")},
    {"clock_period_ps": float("inf")},
    {"register_overhead_ps": float("nan")},
])
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ValueError):
        IsdcConfig(**kwargs)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        IsdcConfig(extraction="magic")
