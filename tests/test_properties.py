"""Property-based tests (hypothesis) on the core invariants.

Four families of properties:

* lowering correctness: for random operations and random inputs, the gate
  level netlist computes exactly what the IR interpreter computes;
* optimiser soundness: logic optimisation never changes the function and
  never increases the critical-path delay;
* difference-constraint solving: ASAP solutions are feasible and minimal,
  and the ASAP/ALAP fixpoints match a brute-force longest-path reference
  on random systems with cycles and pins;
* delay-matrix feedback: updates are monotone (estimates only decrease) and
  propagation keeps the matrix internally consistent.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ir.builder import GraphBuilder
from repro.ir.interpreter import evaluate_graph
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.reformulate import propagate_delays
from repro.netlist.lowering import lower_graph
from repro.netlist.optimizer import LogicOptimizer
from repro.netlist.sta import StaticTimingAnalysis
from repro.sdc.constraints import ConstraintSystem
from repro.sdc.delays import NOT_CONNECTED, node_delays
from repro.sdc.solver import SdcInfeasibleError, solve_alap, solve_asap
from repro.tech.delay_model import OperatorModel

from tests.netlist.helpers import primary_inputs

_BINARY_OPS = ["add", "sub", "mul", "and_", "or_", "xor", "andn",
               "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sgt"]


def _random_expression_graph(draw, max_ops: int = 6, width: int = 8):
    """Build a random DFG of binary ops over three parameters."""
    builder = GraphBuilder("random_expr")
    pool = [builder.param("p0", width), builder.param("p1", width),
            builder.param("p2", width)]
    num_ops = draw(st.integers(min_value=1, max_value=max_ops))
    for _ in range(num_ops):
        method = draw(st.sampled_from(_BINARY_OPS))
        left = draw(st.sampled_from(pool))
        right = draw(st.sampled_from(pool))
        result = getattr(builder, method)(left, right)
        if result.width < width:
            result = builder.zero_ext(result, width)
        pool.append(result)
    builder.output(pool[-1])
    return builder.graph


@st.composite
def expression_graphs(draw):
    return _random_expression_graph(draw)


class TestLoweringMatchesInterpreter:
    @given(graph=expression_graphs(),
           values=st.tuples(st.integers(0, 255), st.integers(0, 255),
                            st.integers(0, 255)))
    @settings(max_examples=40, deadline=None)
    def test_random_expression_graphs(self, graph, values):
        inputs = {"p0": values[0], "p1": values[1], "p2": values[2]}
        reference = evaluate_graph(graph, inputs)
        lowered = lower_graph(graph)
        input_bits = {}
        for node_id, bits in lowered.input_bits.items():
            value = reference[node_id]
            for index, gate_id in enumerate(bits):
                input_bits[gate_id] = (value >> index) & 1
        simulated = lowered.netlist.simulate(input_bits)
        for node_id, bits in lowered.output_bits.items():
            value = sum(simulated[gate_id] << index
                        for index, gate_id in enumerate(bits))
            assert value == reference[node_id]


class TestOptimizerSoundness:
    @given(graph=expression_graphs(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_function_preserved_and_delay_not_worse(self, graph, seed):
        lowered = lower_graph(graph)
        original = lowered.netlist
        optimized, _ = LogicOptimizer().optimize(original)
        sta = StaticTimingAnalysis()
        assert sta.run(optimized).critical_path_delay_ps <= \
            sta.run(original).critical_path_delay_ps + 1e-9

        import random

        rng = random.Random(seed)
        original_inputs = primary_inputs(original)
        optimized_inputs = primary_inputs(optimized)
        bits = [rng.randint(0, 1) for _ in original_inputs]
        original_values = original.simulate(dict(zip(original_inputs, bits)))
        optimized_values = optimized.simulate(dict(zip(optimized_inputs, bits)))
        for a, b in zip(original.outputs(), optimized.outputs()):
            assert original_values[a] == optimized_values[b]


def _longest_paths(num_vars, rows, pins):
    """Brute-force Floyd-Warshall (max-plus) reference for the fixpoint.

    Variable ``num_vars`` is a virtual origin at time 0.  Every row
    ``s_u - s_v <= b`` is the edge ``u -> v`` of weight ``-b``
    (``s_v >= s_u - b``); ``s_v >= 0`` is ``origin -> v`` of weight 0, and
    every pin ``s_p = c`` adds ``origin -> p`` of weight ``c`` and
    ``p -> origin`` of weight ``-c``.

    Returns:
        The least solution (longest distances from the origin), or None
        when a positive cycle makes the system infeasible.
    """
    origin = num_vars
    size = num_vars + 1
    minus_inf = float("-inf")
    dist = [[0 if i == j else minus_inf for j in range(size)]
            for i in range(size)]

    def edge(a, b, weight):
        dist[a][b] = max(dist[a][b], weight)

    for u, v, bound in rows:
        edge(u, v, -bound)
    for v in range(num_vars):
        edge(origin, v, 0)
    for p, c in pins.items():
        edge(origin, p, c)
        edge(p, origin, -c)
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if dist[i][k] + dist[k][j] > dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    if any(dist[i][i] > 0 for i in range(size)):
        return None
    return {v: dist[origin][v] for v in range(num_vars)}


@st.composite
def cyclic_systems(draw):
    """Random rows (cycles allowed) and pins over a few variables."""
    num_vars = draw(st.integers(2, 6))
    var = st.integers(0, num_vars - 1)
    rows = draw(st.lists(st.tuples(var, var, st.integers(-3, 2)),
                         max_size=12))
    pins = draw(st.dictionaries(var, st.integers(0, 4), max_size=2))
    return num_vars, rows, pins


def _system(num_vars, rows, pins):
    system = ConstraintSystem()
    for node in range(num_vars):
        system.add_variable(node)
    for u, v, bound in rows:
        system.add(u, v, bound)
    for node, step in pins.items():
        system.pin(node, step)
    return system


class TestDifferenceConstraintSolver:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                              st.integers(0, 3)), min_size=1, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_asap_is_feasible_and_minimal(self, edges):
        system = ConstraintSystem()
        for node in range(8):
            system.add_variable(node)
        for u, v, distance in edges:
            if u == v:
                continue
            # Only forward constraints (u < v) keep the system acyclic.
            low, high = min(u, v), max(u, v)
            system.add_timing(low, high, distance)
        try:
            schedule = solve_asap(system)
        except SdcInfeasibleError:
            return
        assert system.is_feasible_schedule(schedule)
        # Minimality: lowering any single variable by one breaks feasibility
        # or it was already at zero.
        for node, value in schedule.items():
            if value == 0:
                continue
            lowered = dict(schedule)
            lowered[node] = value - 1
            assert not system.is_feasible_schedule(lowered)

    @given(cyclic_systems())
    @settings(max_examples=150, deadline=None)
    def test_asap_matches_brute_force(self, case):
        num_vars, rows, pins = case
        system = _system(num_vars, rows, pins)
        expected = _longest_paths(num_vars, rows, pins)
        if expected is None:
            # A positive cycle, or a pin the rows push upwards.
            try:
                solve_asap(system)
            except SdcInfeasibleError:
                return
            raise AssertionError("infeasible system was solved")
        schedule = solve_asap(system)
        assert system.is_feasible_schedule(schedule)
        # The least solution: equal to the longest-path distances, so no
        # variable can be lowered without breaking a row, a pin or s >= 0.
        assert schedule == expected

    @given(cyclic_systems(), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_alap_matches_brute_force(self, case, latency):
        num_vars, rows, pins = case
        system = _system(num_vars, rows, pins)
        # Mirror t = latency - s: rows swap ends, pins become latency - c,
        # and s <= latency becomes t >= 0.
        mirrored = _longest_paths(
            num_vars, [(v, u, bound) for u, v, bound in rows],
            {node: latency - step for node, step in pins.items()})
        feasible = mirrored is not None and \
            all(t <= latency for t in mirrored.values())
        if not feasible:
            try:
                solve_alap(system, latency)
            except SdcInfeasibleError:
                return
            raise AssertionError("infeasible system was solved")
        schedule = solve_alap(system, latency)
        assert system.is_feasible_schedule(schedule)
        assert all(0 <= step <= latency for step in schedule.values())
        assert schedule == {v: latency - t for v, t in mirrored.items()}
        # Maximal: raising any free variable by one breaks feasibility or
        # the latency.
        for node, step in schedule.items():
            raised = dict(schedule)
            raised[node] = step + 1
            assert step == latency or not system.is_feasible_schedule(raised)


class TestDelayMatrixProperties:
    @given(graph=expression_graphs(),
           delay=st.floats(min_value=1.0, max_value=500.0),
           subset_seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_feedback_is_monotone_and_consistent(self, graph, delay, subset_seed):
        import random

        delays = node_delays(graph, OperatorModel(pessimism=1.0))
        matrix = DelayMatrix.from_graph(graph, delays)
        before = matrix.matrix.copy()

        rng = random.Random(subset_seed)
        operations = [n.node_id for n in graph.nodes() if not n.is_source]
        subset = rng.sample(operations, k=min(3, len(operations)))
        matrix.update_with_subgraph(subset, delay)
        propagate_delays(matrix)
        after = matrix.matrix

        connected_before = before != NOT_CONNECTED
        connected_after = after != NOT_CONNECTED
        # Connectivity never changes and estimates never increase.
        assert (connected_before == connected_after).all()
        assert (after[connected_before] <= before[connected_before] + 1e-6).all()
