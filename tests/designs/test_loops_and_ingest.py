"""Tests for the ``loop:`` design tier and ``.ir`` file ingestion."""

import pytest

from repro.designs.generator import case_from_name
from repro.designs.ingest import ir_file_case, is_ir_path, load_ir_design
from repro.designs.loops import (LoopParams, build_loop_design, loop_case,
                                 loop_suite)
from repro.ir.textual import graph_to_text
from repro.ir.verify import verify_graph


class TestLoopParams:
    def test_name_round_trips(self):
        params = LoopParams(seed=3, depth=5, width=4, bit_width=8,
                            num_inputs=3, num_phis=2, max_distance=2,
                            clock_period_ps=5000.0)
        assert LoopParams.from_name(params.name) == params

    def test_defaults_apply_for_optional_fields(self):
        params = LoopParams.from_name(
            "loop:seed=0,depth=4,width=3,bits=16,inputs=2,phis=2")
        assert params.max_distance == 1
        assert params.clock_period_ps == 2500.0

    def test_malformed_names_raise_value_error(self):
        for bad in ("gen:seed=0", "loop:seed", "loop:seed=x,depth=4",
                    "loop:depth=4"):
            with pytest.raises(ValueError):
                LoopParams.from_name(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LoopParams(num_phis=0)
        with pytest.raises(ValueError):
            LoopParams(num_phis=5, width=3)
        with pytest.raises(ValueError):
            LoopParams(max_distance=0)

    @pytest.mark.parametrize("clock", ["nan", "inf"])
    def test_non_finite_clock_rejected(self, clock):
        name = ("loop:seed=1,depth=4,width=2,bits=8,inputs=2,phis=1,"
                f"clock={clock}")
        with pytest.raises(ValueError):
            case_from_name(name)
        with pytest.raises(ValueError):
            LoopParams(clock_period_ps=float(clock))


class TestBuildLoopDesign:
    def test_same_params_build_identical_graphs(self):
        params = LoopParams(seed=7, max_distance=3)
        assert (graph_to_text(build_loop_design(params))
                == graph_to_text(build_loop_design(params)))

    def test_different_seeds_differ(self):
        a = graph_to_text(build_loop_design(LoopParams(seed=1)))
        b = graph_to_text(build_loop_design(LoopParams(seed=2)))
        assert a != b

    def test_every_suite_member_verifies_and_has_back_edges(self):
        for case in loop_suite(count=3):
            graph = case.build()
            verify_graph(graph)
            assert graph.has_back_edges
            assert len(graph.back_edges()) == 2  # default num_phis

    def test_case_resolves_through_registry(self):
        params = LoopParams(seed=4)
        case = case_from_name(params.name)
        assert case.name == params.name
        assert case.clock_period_ps == params.clock_period_ps
        assert case.build().has_back_edges

    def test_loop_case_names_graph_after_params(self):
        params = LoopParams(seed=11)
        assert loop_case(params).build().name == params.name


class TestIrIngestion:
    def test_is_ir_path(self):
        assert is_ir_path("examples/loop_accum.ir")
        assert not is_ir_path("rrot")

    def test_example_file_loads_with_clock(self):
        graph, clock_ps = load_ir_design("examples/loop_accum.ir")
        assert clock_ps == 2500.0
        assert graph.has_back_edges
        verify_graph(graph)

    def test_missing_file_is_value_error(self):
        with pytest.raises(ValueError, match="not found"):
            load_ir_design("no/such/file.ir")

    def test_parse_error_names_file_and_line(self, tmp_path):
        bad = tmp_path / "bad.ir"
        bad.write_text("design g\nn0 = frobnicate() : 8\n")
        with pytest.raises(ValueError, match=r"bad\.ir.*line 2"):
            load_ir_design(str(bad))

    def test_verification_error_is_value_error(self, tmp_path):
        bad = tmp_path / "orphan_phi.ir"
        bad.write_text("design g\nn0 = constant(value=0) : 8\n"
                       "n1 = phi(n0) : 8\nn2 = output(n1) : 8\n")
        with pytest.raises(ValueError, match="back-edge"):
            load_ir_design(str(bad))

    def test_default_clock_when_directive_missing(self, tmp_path):
        plain = tmp_path / "plain.ir"
        plain.write_text("design g\nn0 = param() : 8\nn1 = output(n0) : 8\n")
        case = ir_file_case(str(plain))
        assert case.clock_period_ps == 2500.0
        assert len(case.build()) == 2

    def test_case_resolves_through_registry(self):
        case = case_from_name("examples/loop_accum.ir")
        assert case.name == "examples/loop_accum.ir"
        assert case.build().has_back_edges
