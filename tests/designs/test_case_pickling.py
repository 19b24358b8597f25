"""Every design case the package builds pickles, so the experiment
harnesses can ship cases to worker processes as they are."""

import pickle
from pathlib import Path

import pytest

from repro.designs.generator import case_from_name
from repro.designs.suite import table1_suite
from repro.ir.textual import graph_to_text

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

NAMED = [
    "gen:seed=3,depth=3,width=2,fanout=2,bits=8,inputs=2",
    "loop:seed=0,depth=4,width=3,bits=16,inputs=2,phis=2",
    str(EXAMPLES / "loop_accum.ir"),
]


def _cases():
    return table1_suite() + [case_from_name(name) for name in NAMED]


@pytest.mark.parametrize("index", range(len(table1_suite()) + len(NAMED)))
def test_case_round_trips_through_pickle(index):
    case = _cases()[index]
    copy = pickle.loads(pickle.dumps(case))
    assert (copy.name, copy.clock_period_ps, copy.scale) == \
        (case.name, case.clock_period_ps, case.scale)
    rebuilt, original = copy.build(), case.build()
    assert rebuilt.name == original.name == case.name
    assert graph_to_text(rebuilt) == graph_to_text(original)
