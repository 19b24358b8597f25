"""The service's search answers are the offline ``runner dse`` entries.

A ``min-clock`` or ``min-ii`` request asked with the daemon's default
knobs must answer exactly what ``run_dse`` writes for that design, after
:func:`~repro.dse.search.deterministic_payload` strips the provenance and
timing keys: the service runs the DSE driver's own per-design search, so
the two can only differ if one of them forks.
"""

import pytest

from repro.dse.search import deterministic_payload, run_dse
from repro.service.daemon import ServiceConfig
from repro.service.protocol import normalize, parse_request
from repro.service.worker import reference_result

DESIGNS = ("rrot", "crc32", "examples/loop_accum.ir")

#: Service kind -> the ``runner dse`` mode answering the same question.
MODES = {"min-clock": "minclock", "min-ii": "min-ii"}


def _served(kind: str, design: str) -> dict:
    config = ServiceConfig()
    request = normalize(parse_request({"kind": kind, "design": design}),
                        resolution_ps=config.resolution_ps,
                        speculate=config.speculate,
                        max_probes=config.max_probes,
                        latency_weight=config.latency_weight)
    return reference_result(request.identity())


def _offline(kind: str, design: str) -> dict:
    config = ServiceConfig()
    result = run_dse([design], mode=MODES[kind], jobs=1,
                     speculate=config.speculate,
                     resolution_ps=config.resolution_ps,
                     max_probes=config.max_probes)
    return deterministic_payload(result.to_payload())["designs"][0]


@pytest.mark.parametrize("kind", sorted(MODES))
@pytest.mark.parametrize("design", DESIGNS)
def test_service_search_answers_equal_the_offline_entries(kind, design):
    served = _served(kind, design)
    assert served == _offline(kind, design)
    assert served["converged"]
