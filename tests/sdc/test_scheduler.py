"""Tests for the baseline SDC scheduler."""

import math

import pytest

from repro.sdc.scheduler import SdcScheduler, register_weights, users_map
from repro.synth.estimator import CharacterizedOperatorModel
from repro.tech.delay_model import OperatorModel


@pytest.fixture(scope="module")
def model():
    return OperatorModel(pessimism=1.0)


class TestScheduleValidity:
    def test_dependencies_respected(self, adder_chain_graph, model):
        result = SdcScheduler(model, clock_period_ps=1600.0).schedule(adder_chain_graph)
        schedule = result.schedule
        for node in adder_chain_graph.nodes():
            for operand in node.operands:
                assert schedule.stage_of(operand) <= schedule.stage_of(node.node_id)

    def test_timing_constraints_respected(self, adder_chain_graph, model):
        scheduler = SdcScheduler(model, clock_period_ps=1600.0)
        result = scheduler.schedule(adder_chain_graph)
        matrix, index_of = result.delay_matrix, result.index_of
        budget = scheduler.timing_budget_ps
        for u in adder_chain_graph.node_ids():
            for v in adder_chain_graph.node_ids():
                if u == v:
                    continue
                delay = matrix[index_of[u], index_of[v]]
                if delay > budget:
                    required = math.ceil(delay / budget) - 1
                    assert (result.schedule.stage_of(v)
                            - result.schedule.stage_of(u)) >= required

    def test_sources_pinned_to_stage_zero(self, adder_chain_graph, model):
        result = SdcScheduler(model, clock_period_ps=1600.0).schedule(adder_chain_graph)
        for node in adder_chain_graph.nodes():
            if node.is_source:
                assert result.schedule.stage_of(node.node_id) == 0

    def test_single_stage_when_clock_is_huge(self, adder_chain_graph, model):
        result = SdcScheduler(model, clock_period_ps=1e6).schedule(adder_chain_graph)
        assert result.schedule.num_stages == 1

    def test_more_stages_with_faster_clock(self, adder_chain_graph, model):
        slow = SdcScheduler(model, clock_period_ps=4000.0).schedule(adder_chain_graph)
        fast = SdcScheduler(model, clock_period_ps=1600.0).schedule(adder_chain_graph)
        assert fast.schedule.num_stages >= slow.schedule.num_stages

    def test_clock_too_fast_rejected(self, adder_chain_graph, model):
        with pytest.raises(ValueError, match="clock period"):
            SdcScheduler(model, clock_period_ps=300.0).schedule(adder_chain_graph)

    @pytest.mark.parametrize("clock, overhead", [
        (float("nan"), None), (float("inf"), None), (2500.0, float("nan"))])
    def test_non_finite_clock_rejected(self, model, clock, overhead):
        with pytest.raises(ValueError, match="finite"):
            SdcScheduler(model, clock_period_ps=clock,
                         register_overhead_ps=overhead)

    def test_register_overhead_must_fit(self, model):
        with pytest.raises(ValueError):
            SdcScheduler(model, clock_period_ps=100.0, register_overhead_ps=150.0)


class TestObjective:
    def test_register_weights_skip_constants(self, adder_chain_graph):
        builder_weights = register_weights(adder_chain_graph)
        for node in adder_chain_graph.nodes():
            if node.is_source and node.kind.value == "constant":
                assert node.node_id not in builder_weights

    def test_users_map_complete(self, adder_chain_graph):
        users = users_map(adder_chain_graph)
        assert set(users) == set(adder_chain_graph.node_ids())

    def test_characterized_model_schedules_fewer_or_equal_stages(
            self, adder_chain_graph):
        pessimistic = OperatorModel(pessimism=1.5)
        accurate = CharacterizedOperatorModel(pessimism=1.0)
        many = SdcScheduler(pessimistic, clock_period_ps=2500.0).schedule(
            adder_chain_graph)
        few = SdcScheduler(accurate, clock_period_ps=2500.0).schedule(
            adder_chain_graph)
        assert few.schedule.num_stages <= many.schedule.num_stages


class TestScheduleObject:
    def test_stage_node_map_partition(self, adder_chain_graph, model):
        schedule = SdcScheduler(model, clock_period_ps=1600.0).schedule(
            adder_chain_graph).schedule
        mapping = schedule.stage_node_map()
        all_nodes = sorted(nid for nodes in mapping.values() for nid in nodes)
        assert all_nodes == adder_chain_graph.node_ids()

    def test_lifetime(self, adder_chain_graph, model):
        schedule = SdcScheduler(model, clock_period_ps=1600.0).schedule(
            adder_chain_graph).schedule
        x = adder_chain_graph.parameters()[0].node_id
        # x feeds both the first adder (stage 0) and the multiplier (last stage).
        assert schedule.lifetime(x) == schedule.num_stages - 1

    def test_runtime_recorded(self, adder_chain_graph, model):
        result = SdcScheduler(model, clock_period_ps=1600.0).schedule(adder_chain_graph)
        assert result.runtime_s > 0
        assert result.num_constraints > 0
