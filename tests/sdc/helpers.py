"""Shared test helpers for the SDC layer."""

from __future__ import annotations

import numpy as np

from repro.sdc.flow import flow_network
from repro.sdc.problem import ScheduleProblem


def flow_arrays(problem: ScheduleProblem) -> list[np.ndarray]:
    """Everything the flow solve of ``problem`` receives, as arrays.

    The kept rows and the flow network built over them: arcs, costs,
    demands and the pins' start values.
    """
    network = flow_network(problem.system, problem.lp_rows,
                           problem.objective)
    return [problem.lp_rows, network.tail, network.head, network.cost,
            network.demand, network.start, network.pinned]


def assert_flow_equal(warm: ScheduleProblem, cold: ScheduleProblem) -> None:
    """``warm`` hands the flow solve exactly what ``cold`` does."""
    for patched, fresh in zip(flow_arrays(warm), flow_arrays(cold)):
        assert patched.dtype == fresh.dtype
        np.testing.assert_array_equal(patched, fresh)
