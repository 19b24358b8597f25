"""The flow solve against independent references.

:func:`~repro.sdc.solver.solve_problem` solves the register-lifetime LP's
dual, a min-cost flow, with the dual network simplex of
:mod:`repro.sdc.flow` and returns the *least* optimal schedule.  Over every
Table-I row, the tight-budget designs, the loop example at II 1 and 2,
seeded ``gen:`` designs and the random-bound systems of
``test_lazy_rows.py``, these tests check that

* the schedule equals the least optimal schedule HiGHS finds: the LP
  solved over every row, then a second LP minimising ``sum(s)`` subject
  to the objective staying at the optimum;
* the flow's cost equals ``networkx.network_simplex``'s on the same
  network, and its certificate holds;

and that infeasible systems raise, degenerate ones terminate, corrupted
certificates are refused and bad latency weights are refused everywhere.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from repro.dse.warm import ProblemCache, build_context
from repro.isdc.config import IsdcConfig
from repro.sdc.constraints import DEPENDENCY, ConstraintSystem
from repro.sdc.flow import (CertificateError, check_certificate,
                            flow_network, flow_objective, least_optimal,
                            network_simplex, solve_flow)
from repro.sdc.problem import ScheduleProblem, assemble_lp, lp_rows
from repro.sdc.scheduler import SdcScheduler
from repro.sdc.solver import SdcInfeasibleError, solve_problem
from repro.service.daemon import ServiceConfig
from tests.sdc.test_lazy_rows import _cases, random_system
from tests.sdc.test_lp_golden import cold_problem

CASES = sorted(_cases())
RANDOM_SEEDS = range(12)


def least_optimal_reference(system: ConstraintSystem, weights, users,
                            latency_weight: float) -> dict[int, int]:
    """The least optimal schedule, found by HiGHS over every row.

    The first LP gives the optimum; the second minimises ``sum(s)`` over
    the schedules whose objective stays within a hair of it.  The optimal
    schedules form a lattice, so that minimum is its least element.
    """
    lp = assemble_lp(system, weights, users, latency_weight)
    first = linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                    bounds=lp.bounds, method="highs")
    assert first.success, first.message
    columns = len(system.variables)
    a_ub = sparse.vstack([lp.a_ub, sparse.csr_matrix(lp.objective)])
    b_ub = np.concatenate([lp.b_ub, [first.fun + 1e-7]])
    second = linprog(np.r_[np.ones(columns), np.zeros(lp.num_vars - columns)],
                     A_ub=a_ub, b_ub=b_ub, bounds=lp.bounds, method="highs")
    assert second.success, second.message
    order = sorted(system.variables)
    return dict(zip(order, np.rint(second.x[:columns]).astype(int).tolist()))


def _problem(label: str) -> ScheduleProblem:
    return cold_problem(*_cases()[label])


def _random(seed: int):
    """A random-bound system with bit-width weights on its DAG."""
    system, edges = random_system(seed)
    rng = np.random.default_rng(1000 + seed)
    users: dict[int, list[int]] = {}
    for producer, consumer in edges:
        users.setdefault(producer, []).append(consumer)
    weights = {node: float(rng.integers(1, 33)) for node in users}
    return system, weights, users


def _networkx_cost(network) -> int:
    graph = nx.MultiDiGraph()
    for node, demand in enumerate(network.demand.tolist()):
        graph.add_node(node, demand=demand)
    for tail, head, cost in zip(network.tail.tolist(), network.head.tolist(),
                                network.cost.tolist()):
        graph.add_edge(tail, head, weight=cost)
    cost, _ = nx.network_simplex(graph)
    return cost


def _solve(network):
    flow, potential, pivots = network_simplex(network)
    check_certificate(network, flow, potential)
    return flow, potential, pivots


@pytest.mark.parametrize("label", CASES)
def test_schedule_is_highs_least_optimal(label):
    problem = _problem(label)
    try:
        schedule = solve_problem(problem)
    except SdcInfeasibleError:
        # loop_accum at II 1: HiGHS must find no schedule either.
        lp = assemble_lp(problem.system, problem.register_weights,
                         problem.users_map, problem.latency_weight)
        assert not linprog(lp.objective, A_ub=lp.a_ub, b_ub=lp.b_ub,
                           bounds=lp.bounds, method="highs").success
        return
    assert schedule == least_optimal_reference(
        problem.system, problem.register_weights, problem.users_map,
        problem.latency_weight)


@pytest.mark.parametrize("label", CASES)
def test_flow_cost_equals_networkx(label):
    problem = _problem(label)
    network = flow_network(problem.system, problem.lp_rows, problem.objective)
    try:
        flow, _, _ = _solve(network)
    except SdcInfeasibleError:
        # A positive cycle of rows is a negative-cost cycle of arcs.
        with pytest.raises(nx.NetworkXUnbounded):
            _networkx_cost(network)
        return
    assert int(flow @ network.cost) == _networkx_cost(network)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_bounds_match_both_references(seed):
    system, weights, users = _random(seed)
    rows = lp_rows(system)
    objective = flow_objective(system, weights, users, 1e-3)
    network = flow_network(system, rows, objective)
    flow, _, _ = _solve(network)
    assert int(flow @ network.cost) == _networkx_cost(network)
    assert solve_flow(system, rows, objective) == least_optimal_reference(
        system, weights, users, 1e-3)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_zero_latency_weight_gives_least_register_optimum(seed):
    """With no latency term the optima tie far more; the output is still
    the least schedule among those of the register objective alone."""
    system, weights, users = _random(seed)
    objective = flow_objective(system, weights, users, 0.0)
    assert objective.scale == 1
    assert solve_flow(system, lp_rows(system), objective) \
        == least_optimal_reference(system, weights, users, 0.0)


def test_zero_latency_weight_on_a_design():
    context = build_context("crc32")
    problem = ScheduleProblem(
        context.graph, context.matrix, context.index_of,
        context.default_clock_ps - context.register_overhead_ps,
        latency_weight=0.0)
    assert solve_problem(problem) == least_optimal_reference(
        problem.system, problem.register_weights, problem.users_map, 0.0)


def test_positive_cycle_is_infeasible():
    system = ConstraintSystem()
    system.add(0, 1, -1)
    system.add(1, 2, -1)
    system.add(2, 0, 1)
    objective = flow_objective(system, {0: 8.0}, {0: [1]})
    with pytest.raises(SdcInfeasibleError, match="positive cycle"):
        solve_flow(system, np.arange(len(system)), objective)


def test_pin_conflict_is_infeasible():
    system = ConstraintSystem()
    system.pin(0, 0)
    system.pin(1, 0)
    system.add_timing(0, 1, 2)
    objective = flow_objective(system, {0: 8.0}, {0: [1]})
    with pytest.raises(SdcInfeasibleError, match="pinned variable 1"):
        solve_flow(system, np.arange(len(system)), objective)


def test_degenerate_system_terminates():
    """All-zero bounds in both directions and equal widths: every arc is
    tight and nearly every pivot leaves the potentials unchanged."""
    size = 24
    rng = np.random.default_rng(5)
    edges = [(a, b) for b in range(1, size) for a in range(b)
             if rng.random() < 0.3]
    system = ConstraintSystem(variables=set(range(size)))
    tails = [a for a, _ in edges] + [b for _, b in edges]
    heads = [b for _, b in edges] + [a for a, _ in edges]
    system.extend(tails, heads, np.zeros(len(tails)), DEPENDENCY)
    users: dict[int, list[int]] = {}
    for producer, consumer in edges:
        users.setdefault(producer, []).append(consumer)
    weights = dict.fromkeys(users, 8.0)
    network = flow_network(system, np.arange(len(system)),
                           flow_objective(system, weights, users))
    flow, potential, pivots = _solve(network)
    assert pivots < 10 * len(network.cost)
    assert not least_optimal(network, flow).any()
    assert int(flow @ network.cost) == _networkx_cost(network)


class TestCorruptedCertificate:
    """Each single corruption of a solved flow or its potentials fails."""

    @pytest.fixture()
    def solved(self):
        problem = _problem("table1/crc32")
        network = flow_network(problem.system, problem.lp_rows,
                               problem.objective)
        flow, potential, _ = _solve(network)
        return network, flow, potential

    def test_flipped_flow(self, solved):
        network, flow, potential = solved
        arc = int(np.flatnonzero(flow > 0)[0])
        flow[arc] = -flow[arc]
        with pytest.raises(CertificateError, match="negative flow"):
            check_certificate(network, flow, potential)

    def test_unbalanced_flow(self, solved):
        network, flow, potential = solved
        flow[int(np.flatnonzero(flow > 0)[0])] += 1
        with pytest.raises(CertificateError, match="demand"):
            check_certificate(network, flow, potential)

    def test_raised_potential(self, solved):
        network, flow, potential = solved
        reduced = (network.cost - potential[network.tail]
                   + potential[network.head])
        arc = int(np.flatnonzero(reduced == 0)[0])
        potential[network.tail[arc]] += 1
        with pytest.raises(CertificateError):
            check_certificate(network, flow, potential)

    def test_flow_on_a_slack_arc(self, solved):
        network, flow, potential = solved
        reduced = (network.cost - potential[network.tail]
                   + potential[network.head])
        slack = int(np.flatnonzero(reduced > 0)[0])
        # A two-arc detour keeps conservation: out along the slack arc,
        # back along a fresh reverse arc.
        network = type(network)(**{
            **{field: getattr(network, field)
               for field in network.__dataclass_fields__},
            "tail": np.r_[network.tail, network.head[slack]],
            "head": np.r_[network.head, network.tail[slack]],
            "cost": np.r_[network.cost, 10 ** 6]})
        flow = np.r_[flow, 1]
        flow[slack] += 1
        with pytest.raises(CertificateError, match="not tight"):
            check_certificate(network, flow, potential)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, -1.0])
def test_bad_latency_weight_is_refused_everywhere(weight):
    problem = _problem("table1/rrot")
    for build in (lambda: IsdcConfig(clock_period_ps=2500,
                                     latency_weight=weight),
                  lambda: SdcScheduler(latency_weight=weight),
                  lambda: ScheduleProblem(problem.graph, np.zeros((0, 0)), {},
                                          1000.0, latency_weight=weight),
                  lambda: ProblemCache(latency_weight=weight),
                  lambda: ServiceConfig(latency_weight=weight)):
        with pytest.raises(ValueError, match="latency_weight"):
            build()
