"""``runner serve`` flag validation: bad numbers fail at startup."""

import math

import pytest

from repro.service import cli
from repro.service.daemon import ServiceConfig


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "0"),
    ("--queue-limit", "0"),
    ("--speculate", "0"),
    ("--max-probes", "0"),
    ("--resolution-ps", "nan"),
    ("--resolution-ps", "-5"),
    ("--deadline-s", "nan"),
])
def test_bad_serve_flag_exits_2_and_serves_nothing(flag, value, monkeypatch,
                                                   capsys):
    async def serve(*args, **kwargs):
        raise AssertionError("the daemon started")

    monkeypatch.setattr(cli, "_serve", serve)
    with pytest.raises(SystemExit) as exit_info:
        cli.serve_main(["--stdin", flag, value])
    assert exit_info.value.code == 2
    field = flag[2:].replace("-", "_")
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("jobs", 0), ("queue_limit", 0), ("queue_limit", -1), ("speculate", 0),
    ("max_probes", 0), ("resolution_ps", math.nan), ("resolution_ps", 0.0),
    ("resolution_ps", -5.0), ("resolution_ps", math.inf),
    ("deadline_s", math.nan), ("deadline_s", math.inf), ("deadline_s", -1.0),
])
def test_service_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


def test_service_config_accepts_a_disabled_deadline():
    assert ServiceConfig(deadline_s=0.0).deadline_s == 0.0
