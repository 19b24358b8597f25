"""Tests for the seeded parametric design generator."""

import pytest

from repro.designs.generator import (
    GeneratorParams,
    build_generated_design,
    case_from_name,
    generated_suite,
)
from repro.ir.verify import verify_graph
from repro.synth.fingerprint import subgraph_fingerprint


def _full_fingerprint(graph):
    return subgraph_fingerprint(graph, graph.node_ids())


def test_same_params_build_identical_graphs():
    params = GeneratorParams(seed=7, depth=5, width=3)
    assert _full_fingerprint(build_generated_design(params)) == \
        _full_fingerprint(build_generated_design(params))


def test_different_seeds_build_different_graphs():
    a = build_generated_design(GeneratorParams(seed=1))
    b = build_generated_design(GeneratorParams(seed=2))
    assert _full_fingerprint(a) != _full_fingerprint(b)


def test_generated_graphs_verify_and_have_outputs():
    for case in generated_suite(count=3, seed=11, depth=4, width=3):
        graph = case.build()
        verify_graph(graph)
        assert graph.outputs()


def test_shape_parameters_control_size():
    small = build_generated_design(GeneratorParams(seed=0, depth=3, width=2))
    large = build_generated_design(GeneratorParams(seed=0, depth=8, width=6))
    assert len(large) > len(small)


def test_name_round_trips_through_parser():
    params = GeneratorParams(seed=5, depth=7, width=2, fanout=3, bit_width=8,
                             num_inputs=3, clock_period_ps=5000.0)
    assert GeneratorParams.from_name(params.name) == params


def test_case_from_name_resolves_both_registries():
    generated = case_from_name(GeneratorParams(seed=9).name)
    assert generated.build().outputs()
    assert case_from_name("rrot").name == "rrot"
    with pytest.raises(KeyError):
        case_from_name("no such design")
    with pytest.raises(ValueError):
        case_from_name("gen:seed=oops")


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GeneratorParams(depth=0)
    with pytest.raises(ValueError):
        GeneratorParams(op_mix=(("frobnicate", 1),))


@pytest.mark.parametrize("clock", ["nan", "inf"])
def test_non_finite_clock_rejected(clock):
    name = ("gen:seed=1,depth=2,width=2,fanout=1,bits=8,inputs=2,"
            f"clock={clock},mix=add1")
    with pytest.raises(ValueError):
        case_from_name(name)
    with pytest.raises(ValueError):
        GeneratorParams(clock_period_ps=float(clock))
