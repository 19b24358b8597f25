"""Tests for difference constraints and the constraint system."""

import numpy as np

from repro.sdc.constraints import (
    DEPENDENCY,
    TIMING,
    ConstraintSystem,
    DifferenceConstraint,
)


class TestDifferenceConstraint:
    def test_satisfaction(self):
        constraint = DifferenceConstraint(u=1, v=2, bound=-1)
        assert constraint.is_satisfied({1: 0, 2: 2})
        assert constraint.is_satisfied({1: 1, 2: 2})
        assert not constraint.is_satisfied({1: 2, 2: 2})


class TestConstraintSystem:
    def test_add_and_deduplicate(self):
        system = ConstraintSystem()
        assert system.add(1, 2, 0)
        assert not system.add(1, 2, 0)
        assert system.add(1, 2, -1)  # different bound is a new constraint
        assert len(system) == 2
        assert system.variables == {1, 2}

    def test_dependency_and_timing_helpers(self):
        system = ConstraintSystem()
        system.add_dependency(producer=0, consumer=1)
        system.add_timing(source=0, sink=2, min_distance=3)
        assert system.kind.tolist() == [DEPENDENCY, TIMING]
        dependency = system.constraints("dependency")[0]
        assert dependency.u == 0 and dependency.v == 1 and dependency.bound == 0
        timing = system.constraints("timing")[0]
        assert timing.bound == -3

    def test_violations(self):
        system = ConstraintSystem()
        system.add_dependency(0, 1)
        system.add_timing(0, 1, 2)
        good = {0: 0, 1: 2}
        bad = {0: 0, 1: 1}
        assert system.is_feasible_schedule(good)
        assert not system.is_feasible_schedule(bad)
        assert len(system.violations(bad)) == 1

    def test_pins_checked_in_violations(self):
        system = ConstraintSystem()
        system.pin(5, 0)
        assert not system.is_feasible_schedule({5: 1})
        assert system.is_feasible_schedule({5: 0})

    def test_extend_keeps_first_of_each_triple_in_order(self):
        system = ConstraintSystem()
        added = system.extend([3, 1, 3, 2, 1], [4, 2, 4, 3, 2],
                              [0, -1, 0, 5, -2], [DEPENDENCY] * 5)
        assert added == 4
        assert system.u.tolist() == [3, 1, 2, 1]
        assert system.v.tolist() == [4, 2, 3, 2]
        assert system.bound.tolist() == [0, -1, 5, -2]
        assert system.variables == {1, 2, 3, 4}
        # Already-present triples are skipped across calls too.
        assert system.extend([1, 5], [2, 6], [-1, 0], TIMING) == 1
        assert system.kind.tolist() == [DEPENDENCY] * 4 + [TIMING]

    def test_columns_index_sorted_variables(self):
        system = ConstraintSystem()
        system.add_variable(9)
        system.add_dependency(7, 2)
        order, tail, head = system.columns()
        assert order.tolist() == [2, 7, 9]
        assert tail.tolist() == [1] and head.tolist() == [0]

    def test_clone_shares_structure_and_copies_bounds(self):
        system = ConstraintSystem()
        system.add_dependency(0, 1)
        system.pin(0, 0)
        clone = system.clone()
        assert clone.u is system.u and clone.v is system.v
        assert clone.kind is system.kind
        assert clone.bound is not system.bound
        clone.bound[0] = -3
        clone.pin(1, 2)
        clone.add_timing(1, 2, 1)
        assert system.bound.tolist() == [0]
        assert system.pinned == {0: 0}
        assert len(system) == 1 and system.variables == {0, 1}
        np.testing.assert_array_equal(system.u, [0])
