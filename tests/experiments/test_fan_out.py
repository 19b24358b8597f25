"""``jobs`` parity of the harnesses over design cases of every origin: a
Table-I row, a ``gen:`` design, a ``.ir`` file, a registry design at a
clock other than its Table-I one, and a caller's own ablation graph."""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.designs.generator import case_from_name
from repro.designs.ml_core import build_ml_core_datapath1
from repro.designs.suite import BenchmarkCase, suite_by_name
from repro.experiments.fig1 import run_delay_profile
from repro.experiments.fig6 import run_expansion_ablation
from repro.experiments.fig7 import run_estimation_accuracy
from repro.experiments.table1 import run_table1
from repro.ir.builder import GraphBuilder

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: TableOneRow's wall-clock columns, the only ones ``jobs`` may change.
TIME_FIELDS = ("sdc_time_s", "isdc_time_s", "isdc_solver_time_s",
               "isdc_synthesis_time_s")


def _mixed_cases():
    return [
        suite_by_name("crc32"),
        case_from_name("gen:seed=3,depth=3,width=2,fanout=2,bits=8,inputs=2"),
        case_from_name(str(EXAMPLES / "loop_accum.ir")),
        dataclasses.replace(suite_by_name("rrot"), clock_period_ps=2000.0),
    ]


def _untimed(row):
    return dataclasses.replace(row, **dict.fromkeys(TIME_FIELDS, 0.0))


def test_table1_rows_do_not_depend_on_jobs():
    runs = [run_table1(_mixed_cases(), subgraphs_per_iteration=4,
                       max_iterations=2, jobs=jobs) for jobs in (1, 2)]
    serial, parallel = ([_untimed(row) for row in result.rows]
                        for result in runs)
    assert [row.benchmark for row in serial] == \
        [case.name for case in _mixed_cases()]
    assert serial[-1].clock_period_ps == 2000.0
    assert parallel == serial


def test_delay_profile_does_not_depend_on_jobs():
    serial, parallel = (run_delay_profile(_mixed_cases(), clock_scales=(1.0,),
                                          jobs=jobs) for jobs in (1, 2))
    assert {point.design for point in serial} == \
        {case.name for case in _mixed_cases()}
    assert parallel == serial


def test_estimation_accuracy_does_not_depend_on_jobs():
    serial, parallel = (run_estimation_accuracy(_mixed_cases(),
                                                max_iterations=2,
                                                subgraphs_per_iteration=4,
                                                jobs=jobs)
                        for jobs in (1, 2))
    assert list(serial.per_design) == [case.name for case in _mixed_cases()]
    assert parallel == serial


def test_explicit_design_ablation_does_not_depend_on_jobs():
    design = build_ml_core_datapath1(lanes=4, width=16)
    serial, parallel = (run_expansion_ablation(subgraph_counts=(4,),
                                               iterations=3, design=design,
                                               clock_period_ps=2500.0,
                                               jobs=jobs)
                        for jobs in (1, 2))
    assert len(serial) == 3
    assert parallel == serial


def _adder():
    builder = GraphBuilder("adder")
    total = builder.add(builder.param("x", 8), builder.param("y", 8))
    builder.output(total, name="out")
    return builder.graph


def test_unpicklable_factory_fails_loudly_with_jobs():
    cases = [BenchmarkCase(f"custom{i}", 2500.0, lambda: _adder())
             for i in range(2)]
    assert len(run_table1(cases, max_iterations=1, jobs=1).rows) == 2
    with pytest.raises((pickle.PicklingError, AttributeError)):
        run_table1(cases, max_iterations=1, jobs=2)
