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
Tie-heavy random systems (one timing bound, one width) and a system whose
degenerate pivots run into Bland's rule hold the pivot rules to the least
optimal schedule of an optimal flow ``networkx`` finds on its own.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse
from scipy.optimize import linprog

from repro.dse.warm import ProblemCache, build_context
from repro.isdc.config import IsdcConfig
from repro.sdc import flow as flow_module
from repro.sdc.constraints import DEPENDENCY, TIMING, ConstraintSystem
from repro.sdc.flow import (MAX_TOTAL_DEMAND, CertificateError,
                            check_certificate, flow_network, flow_objective,
                            least_optimal, network_simplex, solve_flow)
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


def _networkx_graph(network) -> nx.MultiDiGraph:
    """``network`` as a networkx graph; the key of every edge is its arc."""
    graph = nx.MultiDiGraph()
    for node, demand in enumerate(network.demand.tolist()):
        graph.add_node(node, demand=demand)
    for arc, (tail, head, cost) in enumerate(zip(network.tail.tolist(),
                                                 network.head.tolist(),
                                                 network.cost.tolist())):
        graph.add_edge(tail, head, key=arc, weight=cost)
    return graph


def _networkx_cost(network) -> int:
    cost, _ = nx.network_simplex(_networkx_graph(network))
    return cost


def _networkx_least_optimal(network) -> np.ndarray:
    """The least optimal potentials of an optimal flow networkx finds."""
    _, flows = nx.network_simplex(_networkx_graph(network))
    flow = np.array([flows[tail][head][arc] for arc, (tail, head) in
                     enumerate(zip(network.tail.tolist(),
                                   network.head.tolist()))], dtype=np.int64)
    return least_optimal(network, flow)


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


@st.composite
def tie_heavy_systems(draw):
    """A random DAG whose timing rows share one bound and values one width.

    Sources are pinned to cycle 0 (or nothing is); every value with users
    has the same weight, and every timing row the same bound, so most
    reduced costs tie and most pivots are degenerate.
    """
    size = draw(st.integers(min_value=2, max_value=12), label="size")
    pairs = [(a, b) for b in range(1, size) for a in range(b)]
    edges = [pair for pair, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)),
        label="edges")) if keep]
    reach = np.eye(size, dtype=bool)
    for a, b in edges:  # edges come in topological order of ``b``
        reach[:, b] |= reach[:, a]
    reachable = list(zip(*np.nonzero(reach & ~np.eye(size, dtype=bool))))
    timed = [pair for pair, keep in zip(reachable, draw(st.lists(
        st.booleans(), min_size=len(reachable), max_size=len(reachable)),
        label="timed")) if keep]
    bound = draw(st.integers(min_value=-2, max_value=0), label="bound")
    width = draw(st.sampled_from([1.0, 8.0, 32.0]), label="width")
    system = ConstraintSystem(variables=set(range(size)))
    system.extend([a for a, _ in edges], [b for _, b in edges],
                  np.zeros(len(edges)), DEPENDENCY)
    system.extend([a for a, _ in timed], [b for _, b in timed],
                  np.full(len(timed), bound), TIMING)
    if draw(st.booleans(), label="pin sources"):
        for node in set(range(size)) - {b for _, b in edges}:
            system.pin(node, 0)
    users: dict[int, list[int]] = {}
    for producer, consumer in edges:
        users.setdefault(producer, []).append(consumer)
    latency_weight = draw(st.sampled_from([0.0, 1e-3]), label="latency")
    return system, dict.fromkeys(users, width), users, latency_weight


def _spy_on_pivots(monkeypatch, network) -> list[bool]:
    """Record whether each pivot runs under Bland's rule; check its tree.

    After every pivot the parent arcs join each node to its parent, the
    root has depth 0 and every other node is one deeper than its parent,
    and the leaving candidates are exactly the nodes whose parent arc
    carries negative flow.
    """
    rules: list[bool] = []
    choose, rehang = flow_module._leaving_arc, flow_module._Tree.rehang
    tail, head = network.tail.tolist(), network.head.tolist()

    def leaving(negative, parent_arc, depth, bland):
        rules.append(bland)
        return choose(negative, parent_arc, depth, bland)

    def checked_rehang(tree, inner, outer, enter, lower, flow, negative):
        rehang(tree, inner, outer, enter, lower, flow, negative)
        assert tree.depth[network.root] == 0
        for node, arc in enumerate(tree.parent_arc):
            if arc >= 0:
                above = tree.parent[node]
                assert {node, above} == {tail[arc], head[arc]}
                assert node in tree.children[above]
                assert tree.depth[node] == tree.depth[above] + 1, node
        assert sum(map(len, tree.children)) == len(tree.parent) - 1
        assert negative == {node for node, arc in enumerate(tree.parent_arc)
                            if arc >= 0 and flow[arc] < 0}

    monkeypatch.setattr(flow_module, "_leaving_arc", leaving)
    monkeypatch.setattr(flow_module._Tree, "rehang", checked_rehang)
    return rules


@settings(max_examples=60, deadline=None)
@given(tie_heavy_systems())
def test_tie_heavy_systems_give_the_networkx_least_optimum(drawn):
    system, weights, users, latency_weight = drawn
    objective = flow_objective(system, weights, users, latency_weight)
    network = flow_network(system, np.arange(len(system)), objective)
    with pytest.MonkeyPatch.context() as monkeypatch:
        rules = _spy_on_pivots(monkeypatch, network)
        flow, _, pivots = _solve(network)
    assert pivots == len(rules)
    least = least_optimal(network, flow)
    np.testing.assert_array_equal(least, _networkx_least_optimal(network))
    assert solve_flow(system, lp_rows(system), objective) \
        == dict(zip(range(len(system.variables)),
                    least[:len(system.variables)].tolist()))


#: A ten-node DAG (dependency rows ``producer -> consumer``, sources pinned,
#: width 8 everywhere) plus one timing row ``3 -> 7`` needing a cycle: its
#: degenerate pivots run longer than its 19-node network is large.
BLAND_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (0, 4), (1, 4), (2, 4),
               (3, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (2, 6), (5, 6),
               (2, 7), (3, 7), (4, 7), (5, 7), (6, 7), (1, 8), (2, 8), (4, 8),
               (5, 8), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9), (8, 9))


def test_long_degenerate_runs_fall_back_to_blands_rule(monkeypatch):
    system = ConstraintSystem(variables=set(range(10)))
    system.extend([a for a, _ in BLAND_EDGES], [b for _, b in BLAND_EDGES],
                  np.zeros(len(BLAND_EDGES)), DEPENDENCY)
    system.add_timing(3, 7, 1)
    system.pin(0, 0)
    users: dict[int, list[int]] = {}
    for producer, consumer in BLAND_EDGES:
        users.setdefault(producer, []).append(consumer)
    weights = dict.fromkeys(users, 8.0)
    network = flow_network(system, np.arange(len(system)),
                           flow_objective(system, weights, users))
    rules = _spy_on_pivots(monkeypatch, network)
    flow, _, pivots = _solve(network)
    assert any(rules) and pivots == len(rules)
    np.testing.assert_array_equal(least_optimal(network, flow),
                                  _networkx_least_optimal(network))
    assert solve_flow(system, np.arange(len(system)), flow_objective(
        system, weights, users)) == least_optimal_reference(
        system, weights, users, 1e-3)


def test_total_demand_limit_is_exclusive():
    """A scaled total of exactly ``MAX_TOTAL_DEMAND`` is refused and the
    largest total below it (totals are even) is solved."""
    system = ConstraintSystem(variables={0})
    half = MAX_TOTAL_DEMAND // 2
    # One variable and the root: the total is twice the latency weight.
    with pytest.raises(ValueError, match="too large"):
        flow_objective(system, latency_weight=float(half))
    objective = flow_objective(system, latency_weight=float(half - 1))
    assert int(np.abs(objective.demand).sum()) == MAX_TOTAL_DEMAND - 2
    assert solve_flow(system, np.zeros(0, np.int64), objective) == {0: 0}


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
