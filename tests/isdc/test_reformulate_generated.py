"""Algorithm 2 re-propagation on generated designs under feedback.

:func:`~repro.isdc.reformulate.propagate_delays` sweeps whole rows and
columns of the dense ``D[n][n]``, one graph level at a time.  These tests
pin it against a direct per-node transcription of the paper's loops (same
floats, same change count) on seeded ``gen:`` designs after random subgraph
feedback, and check the invariants the ISDC loop relies on: entries are
only ever lowered, unconnected pairs stay unconnected and the diagonal is
left alone.
"""

import random

import numpy as np
import pytest

from repro.designs.generator import GeneratorParams, build_generated_design
from repro.isdc.delay_matrix import DelayMatrix
from repro.isdc.reformulate import propagate_delays
from repro.sdc.delays import NOT_CONNECTED, node_delays
from repro.tech.delay_model import OperatorModel

SEEDS = [6, 17, 40]


def _graph(seed: int = 6):
    return build_generated_design(GeneratorParams(seed=seed, depth=8,
                                                  width=6))


def _matrix(graph) -> DelayMatrix:
    return DelayMatrix.from_graph(graph, node_delays(graph, OperatorModel()))


def _apply_feedback(matrix: DelayMatrix, seed: int = 0, rounds: int = 4
                    ) -> None:
    """Deterministic random subgraph measurements, identical per seed."""
    rng = random.Random(seed)
    ids = matrix.node_order()
    for _ in range(rounds):
        covered = rng.sample(ids, k=min(6, len(ids)))
        reference = max(matrix.individual_delay(nid) for nid in covered)
        matrix.update_with_subgraph(covered, reference * 1.5)


def _lower(table, u, v, best) -> int:
    if best is None or u == v:
        return 0
    current = table[u][v]
    if current == NOT_CONNECTED or current > best:
        table[u][v] = best
        return 1
    return 0


def _reference_propagate(matrix: DelayMatrix):
    """Alg. 2 as per-node loops over plain floats.

    Returns the refreshed table and the number of lowerings, counted the
    way :func:`propagate_delays` counts.
    """
    graph = matrix.graph
    index = matrix.index_of
    table = matrix.matrix.tolist()
    size = len(table)
    order = matrix.view.order_ids()
    changed = 0
    for node_id in order:  # forward: through v's operands
        operands = graph.node(node_id).operands
        if not operands:
            continue
        v = index[node_id]
        own = table[v][v]
        for u in range(size):
            best = None
            for operand in operands:
                into = table[u][index[operand]]
                if into != NOT_CONNECTED:
                    candidate = into + own
                    best = candidate if best is None else max(best, candidate)
            changed += _lower(table, u, v, best)
    for node_id in reversed(order):  # reverse: through u's users
        users = graph.users_of(node_id)
        if not users:
            continue
        u = index[node_id]
        own = table[u][u]
        for v in range(size):
            best = None
            for user in users:
                out = table[index[user]][v]
                if out != NOT_CONNECTED:
                    candidate = out + own
                    best = candidate if best is None else max(best, candidate)
            changed += _lower(table, u, v, best)
    return np.array(table), changed


def _after_feedback(seed: int) -> DelayMatrix:
    matrix = _matrix(_graph(seed))
    _apply_feedback(matrix, seed=seed)
    return matrix


@pytest.mark.parametrize("seed", SEEDS)
class TestPropagationOnGeneratedDesigns:
    def test_matches_the_per_node_reference(self, seed):
        matrix = _after_feedback(seed)
        expected, expected_count = _reference_propagate(matrix)
        changed = propagate_delays(matrix)
        assert changed == expected_count
        assert np.array_equal(matrix.matrix, expected)

    def test_only_lowers_entries(self, seed):
        matrix = _after_feedback(seed)
        before = matrix.matrix.copy()
        propagate_delays(matrix)
        connected = before != NOT_CONNECTED
        assert np.all(matrix.matrix[connected] <= before[connected])

    def test_never_connects_new_pairs(self, seed):
        matrix = _after_feedback(seed)
        holes = matrix.matrix == NOT_CONNECTED
        propagate_delays(matrix)
        assert np.array_equal(matrix.matrix == NOT_CONNECTED, holes)

    def test_diagonal_untouched(self, seed):
        matrix = _after_feedback(seed)
        diagonal = matrix.matrix.diagonal().copy()
        propagate_delays(matrix)
        assert np.array_equal(matrix.matrix.diagonal(), diagonal)

    def test_feedback_lowers_more_than_a_fresh_matrix(self, seed):
        fresh = _matrix(_graph(seed))
        fresh_total = float(fresh.matrix[fresh.matrix != NOT_CONNECTED].sum())
        propagate_delays(fresh)
        matrix = _after_feedback(seed)
        propagate_delays(matrix)
        total = float(matrix.matrix[matrix.matrix != NOT_CONNECTED].sum())
        assert total < fresh_total


def test_copy_shares_the_derived_order_but_not_the_matrix():
    matrix = _matrix(_graph())
    duplicate = matrix.copy()
    assert duplicate.node_order() == matrix.node_order()
    # Feedback on the copy may not leak back into the source.
    duplicate.matrix[0, 0] = -123.0
    assert matrix.matrix[0, 0] != -123.0
