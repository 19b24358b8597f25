"""Difference constraints and the array-native SDC constraint system.

All HLS scheduling constraints used here are integer-difference constraints
of the form ``s_u - s_v <= bound`` (paper Eq. 1), which keeps the LP's
constraint matrix totally unimodular and therefore guarantees an integral
optimum (Cong & Zhang, DAC'06).

A :class:`ConstraintSystem` stores its rows as four aligned integer arrays
``u``, ``v``, ``bound`` and ``kind``; row ``i`` is
``s_u[i] - s_v[i] <= bound[i]``.  Construction, bound patches, the
flow solve's row selection (``ScheduleProblem.lp_rows``, marked by
comparing timing bounds) and network
(:func:`~repro.sdc.flow.flow_network`), and the HiGHS reference
(:mod:`repro.sdc.highs`) all read these arrays directly.  A three-node
chain where node 2 must start at least two cycles after node 0:

>>> system = ConstraintSystem()
>>> system.add_dependency(producer=0, consumer=1)
True
>>> system.add_dependency(producer=1, consumer=2)
True
>>> system.add_timing(source=0, sink=2, min_distance=2)
True
>>> system.u.tolist(), system.v.tolist(), system.bound.tolist()
([0, 1, 0], [1, 2, 2], [0, 0, -2])
>>> [KIND_NAMES[code] for code in system.kind]
['dependency', 'dependency', 'timing']
>>> system.violations({0: 0, 1: 0, 2: 1})
[DifferenceConstraint(u=0, v=2, bound=-2, kind='timing')]
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Row categories, indexed by the codes stored in :attr:`ConstraintSystem.kind`.
KIND_NAMES = ("dependency", "timing", "loop", "user")
DEPENDENCY, TIMING, LOOP, USER = range(len(KIND_NAMES))


@dataclass(frozen=True)
class DifferenceConstraint:
    """One integer-difference constraint ``s_u - s_v <= bound``.

    The value :meth:`ConstraintSystem.constraints` and
    :meth:`ConstraintSystem.violations` return for inspection and error
    messages; the system itself stores rows as arrays.

    Attributes:
        u: node id of the left variable.
        v: node id of the right variable.
        bound: the integer bound.
        kind: constraint category ("dependency", "timing", "loop", "user",
            or "pin" for a violated pin).
    """

    u: int
    v: int
    bound: int
    kind: str = "user"

    def is_satisfied(self, schedule: dict[int, int]) -> bool:
        """True if ``schedule`` satisfies this constraint."""
        return schedule[self.u] - schedule[self.v] <= self.bound


def _rows(values=()) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


@dataclass(eq=False)
class ConstraintSystem:
    """Difference constraints over node variables, as four aligned arrays.

    Attributes:
        variables: the node ids that appear as variables.
        pinned: variables fixed to a specific time step (e.g. parameters
            pinned to cycle 0).
        u: left variable of every row.
        v: right variable of every row.
        bound: bound of every row; the only array bound patches write.
        kind: category code of every row (an index into :data:`KIND_NAMES`).
    """

    variables: set[int] = field(default_factory=set)
    pinned: dict[int, int] = field(default_factory=dict)
    u: np.ndarray = field(default_factory=_rows)
    v: np.ndarray = field(default_factory=_rows)
    bound: np.ndarray = field(default_factory=_rows)
    kind: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))

    def add_variable(self, node_id: int) -> None:
        """Register a schedule variable."""
        self.variables.add(node_id)

    def pin(self, node_id: int, time_step: int) -> None:
        """Fix a variable to a specific time step."""
        self.add_variable(node_id)
        self.pinned[node_id] = time_step

    def extend(self, u, v, bound, kind) -> int:
        """Append rows ``s_u - s_v <= bound`` of category code(s) ``kind``.

        A ``(u, v, bound)`` triple already present, or repeated within the
        batch, is kept once, at its first position; when several bounds
        exist for one ``(u, v)`` pair all are kept (the tightest governs).
        The arrays are replaced, never written in place, so a clone sharing
        them is unaffected.

        Returns:
            The number of rows actually added.
        """
        u, v, bound = _rows(u), _rows(v), _rows(bound)
        kind = np.broadcast_to(np.asarray(kind, dtype=np.int8), u.shape)
        self.variables.update(np.unique(np.concatenate([u, v])).tolist())
        columns = [np.concatenate(pair) for pair in
                   ((self.u, u), (self.v, v), (self.bound, bound),
                    (self.kind, kind))]
        # lexsort is stable, so the first row of every run of equal triples
        # is the triple's first occurrence.
        by_triple = np.lexsort(columns[2::-1])
        ordered = np.stack([column[by_triple] for column in columns[:3]])
        repeat = np.zeros(len(by_triple), dtype=bool)
        repeat[1:] = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
        keep = np.sort(by_triple[~repeat])
        before = len(self)
        self.u, self.v, self.bound, self.kind = (column[keep]
                                                 for column in columns)
        return len(self) - before

    def add(self, u: int, v: int, bound: int, kind: str = "user") -> bool:
        """Add ``s_u - s_v <= bound``; False if the triple already exists."""
        return self.extend([u], [v], [bound], KIND_NAMES.index(kind)) == 1

    def add_dependency(self, producer: int, consumer: int) -> bool:
        """Require ``consumer`` to be scheduled no earlier than ``producer``."""
        return self.add(producer, consumer, 0, kind="dependency")

    def add_timing(self, source: int, sink: int, min_distance: int) -> bool:
        """Require at least ``min_distance`` cycles between source and sink.

        This is Eq. 2 of the paper: ``s_source - s_sink <= -min_distance``.
        """
        return self.add(source, sink, -min_distance, kind="timing")

    def rows_of(self, kind: str) -> np.ndarray:
        """Indices of the rows of one category, in row order."""
        return np.flatnonzero(self.kind == KIND_NAMES.index(kind))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense variable index of the rows.

        Returns:
            ``(order, tail, head)``: the sorted variable ids, and the
            position in ``order`` of every row's ``u`` and ``v``.
        """
        order = np.array(sorted(self.variables), dtype=np.int64)
        return (order, np.searchsorted(order, self.u),
                np.searchsorted(order, self.v))

    def constraints(self, kind: str | None = None) -> list[DifferenceConstraint]:
        """All rows as :class:`DifferenceConstraint` values, optionally of one kind."""
        rows = np.arange(len(self)) if kind is None else self.rows_of(kind)
        return self._values(rows)

    def _values(self, rows: np.ndarray) -> list[DifferenceConstraint]:
        return [DifferenceConstraint(u, v, bound, KIND_NAMES[code])
                for u, v, bound, code in zip(self.u[rows].tolist(),
                                             self.v[rows].tolist(),
                                             self.bound[rows].tolist(),
                                             self.kind[rows].tolist())]

    def __len__(self) -> int:
        return len(self.u)

    def violations(self, schedule: dict[int, int]) -> list[DifferenceConstraint]:
        """Constraints violated by ``schedule`` (pins included).

        Raises:
            KeyError: if ``schedule`` misses a variable.
        """
        order, tail, head = self.columns()
        values = np.array([schedule[node] for node in order.tolist()],
                          dtype=np.int64)
        violated = self._values(np.flatnonzero(
            values[tail] - values[head] > self.bound))
        for node_id, time_step in self.pinned.items():
            if schedule.get(node_id) != time_step:
                violated.append(DifferenceConstraint(node_id, node_id, -1, kind="pin"))
        return violated

    def is_feasible_schedule(self, schedule: dict[int, int]) -> bool:
        """True if ``schedule`` satisfies every constraint and pin."""
        return not self.violations(schedule)

    def subsystem(self, rows: np.ndarray) -> "ConstraintSystem":
        """The given rows, in the given order, over the same variables and pins."""
        return ConstraintSystem(variables=set(self.variables),
                                pinned=dict(self.pinned), u=self.u[rows],
                                v=self.v[rows], bound=self.bound[rows],
                                kind=self.kind[rows])

    def clone(self) -> "ConstraintSystem":
        """A copy whose bounds (and variables, pins) are independent.

        ``u``, ``v`` and ``kind`` never change in place (:meth:`extend`
        replaces them), so the copy shares them; ``bound`` is the one array
        bound patches write and is copied.
        """
        return ConstraintSystem(variables=set(self.variables),
                                pinned=dict(self.pinned), u=self.u, v=self.v,
                                bound=self.bound.copy(), kind=self.kind)
