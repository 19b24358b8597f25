"""perfbench can still trace this tree.

``perfbench/layers.py`` wraps the public calls of every layer by module
attribute and class ``__dict__`` entry; a rename in ``src/`` makes it
raise (``KeyError`` or ``LookupError``) and silently loses the per-layer
metrics of every benchmark run.  This installs all of its spans and
restores them again.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_perfbench_span_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        from layers import (GateCounter, install_compute_spans,
                            install_store_spans)
        from tracing import Tracer

        from repro.sdc.problem import ScheduleProblem
        from repro.sdc.solver import solve_problem
        import repro.sdc.solver as solver

        retarget = ScheduleProblem.__dict__["retarget"]
        tracer = Tracer()
        try:
            install_compute_spans(tracer, GateCounter())
            install_store_spans(tracer)
            assert tracer._patches
            assert ScheduleProblem.__dict__["retarget"] is not retarget
            assert solver.solve_problem is not solve_problem
        finally:
            tracer.restore()
        assert ScheduleProblem.__dict__["retarget"] is retarget
        assert solver.solve_problem is solve_problem
    finally:
        for name in ("layers", "tracing"):
            sys.modules.pop(name, None)
