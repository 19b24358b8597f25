"""The SDC register-lifetime LP as a min-cost flow, solved exactly.

The LP of :mod:`repro.sdc.solver` minimises ``sum_n w_n * L_n + lambda *
sum_i s_i`` over difference rows ``s_u - s_v <= b``, lifetime rows
``s_w - s_n <= L_n`` for every user ``w`` of a weighted value ``n``,
``s >= 0``, ``L >= 0`` and pins.  Writing ``M_n = s_n + L_n`` turns every
row into a difference of two *potentials*, so the LP is a potential problem
whose constraint matrix is a network matrix (Cong & Zhang, DAC 2006), and
its dual is an uncapacitated min-cost flow (Ahuja, Magnanti & Orlin,
*Network Flows*, 1993):

* **nodes** -- one per schedule variable ``s_i`` (in ascending id order),
  one ``M_n`` per lifetime variable (ascending value id), and a root whose
  potential is 0;
* **arcs** -- arc ``a`` reads ``pi[tail[a]] - pi[head[a]] <= cost[a]``:
  the difference rows, ``s_w -> M_n`` for every user ``w`` of ``n`` and
  ``s_n -> M_n`` (``L_n >= 0``), ``root -> s_i`` at cost 0 (``s_i >= 0``)
  and both directions of each pin;
* **demands** -- the objective coefficient of each potential (inflow minus
  outflow), as exact integers: every coefficient is scaled by the least
  common denominator of the decimal values of the weights and of
  ``latency_weight`` (1000 for the default ``1e-3``).  So ``M_n`` demands
  ``w_n``, ``s_n`` loses ``w_n``, every ``s_i`` demands ``lambda``, and
  the root supplies the balance.

:func:`network_simplex` runs a *dual* network simplex.  Its start is the
ASAP schedule (the least fixpoint of the rows from the pins, which already
names the variable of a pin conflict or a positive cycle) and a spanning
tree of arcs it makes tight: dual feasible for free.  Each pivot drops a
tree arc whose flow is negative, shifts the potentials of the subtree it
cuts off by the smallest reduced cost of an arc that can re-join it, and
enters that arc.  Only the subtree is touched: its members' out-arcs (or
in-arcs) are the crossing candidates, found through per-node arc lists
and a membership stamp, and the negative tree arcs are kept up to date on
the pivot's cycle alone.  A pivot drops the negative arc above the
deepest node (the lowest index among ties), so its subtree is the smallest
on offer, and enters the highest-index arc among the least-slack ones.
Once more degenerate pivots (ones that leave the potentials unchanged)
have run in a row than the network has nodes, both choices take the
lowest index instead: Bland's rule, which makes every run of degenerate
pivots finite, and the rule stays until a pivot moves the potentials.
Every pivot that does strictly raises the dual objective, so no tree
repeats and the simplex terminates.

:func:`check_certificate` checks the final flow and potentials in
O(arcs): conservation, ``f >= 0``, reduced costs ``>= 0`` and
complementary slackness -- together, proof that both are optimal.
:func:`least_optimal` turns the flow into the output schedule: every arc
carrying flow is tight in *every* optimal schedule, so adding each one's
reverse row and taking the least fixpoint from the pins yields the least
optimal schedule -- each variable as small as any optimal schedule allows.
That is a function of the constraint system alone, not of the pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from repro.sdc.constraints import ConstraintSystem

#: Largest total demand the flow holds exactly: float64 sums of integer
#: flows (``np.bincount``) are exact below 2**53.
MAX_TOTAL_DEMAND = 2 ** 52


class SdcInfeasibleError(Exception):
    """Raised when the SDC constraint system has no solution."""


class CertificateError(AssertionError):
    """A flow and potentials that do not prove each other optimal."""


def check_latency_weight(latency_weight: float) -> float:
    """``latency_weight`` as a float, refused unless finite and ``>= 0``.

    A negative weight makes the LP unbounded whenever some operation may
    move later, and NaN or infinity have no exact decimal value.
    """
    weight = float(latency_weight)
    if not math.isfinite(weight) or weight < 0:
        raise ValueError(f"latency_weight must be finite and >= 0, "
                         f"got {latency_weight!r}")
    return weight


def _least_fixpoint(order: np.ndarray, tail: np.ndarray, head: np.ndarray,
                    bound: np.ndarray, pinned: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Least values at or above ``values`` that satisfy every row.

    Row ``i`` reads ``values[head[i]] >= values[tail[i]] - bound[i]``.  Each
    round raises every violated head at once (Bellman-Ford in Jacobi
    rounds), so after ``k`` rounds every value is the best one derivable
    through ``k`` rows.  Without a positive cycle every improving chain is
    simple, so the values settle within ``|V|`` rounds; a row still violated
    after that lies downstream of a positive cycle.  The least fixpoint
    above a start is unique, so the result does not depend on the round
    structure.

    Args:
        order: variable id of every column (for error messages).
        tail: column of every row's ``u``.
        head: column of every row's ``v``.
        bound: bound of every row.
        pinned: per-column flag; a pinned variable may not move.
        values: per-column start values (not modified).

    Raises:
        SdcInfeasibleError: if a pinned variable would have to be raised or
            propagation diverges (the error names the variable).
    """
    values = values.copy()
    for _ in range(len(order) + 1):
        required = values[tail] - bound
        violated = np.flatnonzero(required > values[head])
        if not len(violated):
            return values
        blocked = violated[pinned[head[violated]]]
        if len(blocked):
            row = blocked[0]
            raise SdcInfeasibleError(
                f"pinned variable {order[head[row]]} violates "
                f"s_{order[tail[row]]} - s_{order[head[row]]} <= {bound[row]}")
        np.maximum.at(values, head[violated], required[violated])
    row = violated[0]
    raise SdcInfeasibleError(
        f"constraint propagation diverged at variable s_{order[head[row]]}: "
        f"its value still rose after {len(order) + 1} rounds over "
        f"{len(order)} variables, which implies a positive cycle through "
        f"s_{order[tail[row]]} - s_{order[head[row]]} <= {bound[row]}")


def _pins(system: ConstraintSystem, order: np.ndarray,
          mirror_at: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column flags of the pinned variables, and start values with pins set.

    With ``mirror_at`` the pins are mirrored to ``mirror_at - pin``.
    """
    columns = np.searchsorted(order, list(system.pinned))
    pins = np.array(list(system.pinned.values()), dtype=np.int64)
    pinned = np.zeros(len(order), dtype=bool)
    pinned[columns] = True
    start = np.zeros(len(order), dtype=np.int64)
    start[columns] = pins if mirror_at is None else mirror_at - pins
    return pinned, start


@dataclass(frozen=True)
class FlowNetwork:
    """The flow dual of one SDC LP (see the module docstring).

    Nodes ``0 .. len(order) - 1`` are the schedule variables, the next
    ``len(lifetimes)`` the ``M_n`` nodes, and the last one the root.  The
    first :attr:`num_rows` arcs are the difference rows, in order, followed
    by the lifetime arcs and then the root and pin arcs.

    Attributes:
        order: node id of every schedule-variable node.
        lifetimes: value id of every ``M_n`` node.
        tail: arc tails.
        head: arc heads.
        cost: arc costs (row bounds); ``pi[tail] - pi[head] <= cost``.
        demand: inflow minus outflow of every node, in units of
            ``1 / scale``; sums to zero.
        pinned: per-node flag of the nodes whose potential is fixed (pinned
            variables and the root).
        start: per-node lower limit of every feasible potential, with the
            pins and the root's 0 in place (the least fixpoint's start).
        num_rows: arcs that are difference rows.
        scale: the factor the objective was multiplied by.
    """

    order: np.ndarray
    lifetimes: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    cost: np.ndarray
    demand: np.ndarray
    pinned: np.ndarray
    start: np.ndarray
    num_rows: int
    scale: int

    @property
    def root(self) -> int:
        return len(self.demand) - 1

    @property
    def names(self) -> np.ndarray:
        """Id of every node for messages: value ids, -1 for the root."""
        return np.concatenate([self.order, self.lifetimes, [-1]])


@lru_cache(maxsize=None)
def _decimal(value: float) -> Fraction:
    """The exact decimal value a float prints as (``1e-3`` is 1/1000)."""
    return Fraction(repr(value))


@dataclass(frozen=True)
class FlowObjective:
    """The part of a flow network no row bound changes.

    Its nodes, demands and the lifetime, root and pin arcs depend only on
    the variables, the pins and the objective's weights, so a persistent
    problem builds it once.

    Attributes:
        order: node id of every schedule-variable node.
        lifetimes: value id of every ``M_n`` node.
        tail: tails of the lifetime, root and pin arcs.
        head: their heads.
        cost: their costs.
        demand: inflow minus outflow of every node.
        pinned: per-node flag of the fixed potentials.
        start: per-node lower limit of every feasible potential.
        scale: the factor the objective was multiplied by.
    """

    order: np.ndarray
    lifetimes: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    cost: np.ndarray
    demand: np.ndarray
    pinned: np.ndarray
    start: np.ndarray
    scale: int


def flow_objective(system: ConstraintSystem,
                   register_weights: Mapping[int, float] | None = None,
                   users: Mapping[int, list[int]] | None = None,
                   latency_weight: float = 1e-3) -> FlowObjective:
    """The rows-independent part of the flow dual of ``system``'s LP.

    Args:
        system: the constraint system (only its variables and pins are read).
        register_weights: weight (bit width) per producing node id; nodes
            absent or with zero weight get no lifetime node.
        users: consumer node ids per producing node id.
        latency_weight: objective weight of every schedule variable.

    Raises:
        ValueError: if ``latency_weight`` is negative or a weight is not
            finite, or the scaled objective is too large to hold exactly.
    """
    register_weights = register_weights or {}
    users = users or {}
    latency_weight = check_latency_weight(latency_weight)
    order = np.array(sorted(system.variables), dtype=np.int64)
    n = len(order)
    members = set(system.variables)
    lifetimes = sorted(node_id for node_id, weight in register_weights.items()
                       if weight > 0 and users.get(node_id)
                       and node_id in members)
    weights = [float(register_weights[node_id]) for node_id in lifetimes]
    if not all(math.isfinite(weight) for weight in weights):
        raise ValueError("register weights must be finite")
    exact = [_decimal(weight) for weight in weights]
    scale = math.lcm(_decimal(latency_weight).denominator,
                     *(weight.denominator for weight in exact))
    # Lifetime arcs s_n -> M_n and s_w -> M_n, per M_n in ascending order.
    readers = [[node_id, *sorted(set(users[node_id]) & members)]
               for node_id in lifetimes]
    life_tail = np.searchsorted(order, np.array(
        [member for group in readers for member in group], dtype=np.int64))
    life_head = n + np.repeat(np.arange(len(lifetimes), dtype=np.int64),
                              [len(group) for group in readers])
    pinned, start = _pins(system, order)
    root = n + len(lifetimes)
    free = np.flatnonzero(~pinned)
    fixed = np.flatnonzero(pinned)
    pins = start[fixed]

    scaled = np.array([int(weight * scale) for weight in exact],
                      dtype=np.int64)
    demand = np.zeros(root + 1, dtype=np.int64)
    demand[:n] = int(_decimal(latency_weight) * scale)
    demand[n:root] = scaled
    demand[np.searchsorted(order, np.array(lifetimes, dtype=np.int64))] \
        -= scaled
    demand[root] = -demand[:root].sum()
    if int(np.abs(demand).sum()) >= MAX_TOTAL_DEMAND:
        raise ValueError(f"the objective scaled by {scale} is too large for "
                         "an exact flow; use fewer decimal places in "
                         "latency_weight")

    node_pinned = np.zeros(root + 1, dtype=bool)
    node_pinned[:n] = pinned
    node_pinned[root] = True
    node_start = np.zeros(root + 1, dtype=np.int64)
    node_start[:n] = start
    # M_n >= s_n >= min(0, every pin) in every feasible schedule.
    node_start[n:root] = min(0, int(pins.min(initial=0)))
    to_root = np.full(len(fixed), root, dtype=np.int64)
    from_root = np.full(len(free) + len(fixed), root, dtype=np.int64)
    return FlowObjective(
        order=order, lifetimes=np.array(lifetimes, dtype=np.int64),
        tail=np.concatenate([life_tail, from_root, fixed]),
        head=np.concatenate([life_head, free, fixed, to_root]),
        cost=np.concatenate([np.zeros(len(life_tail) + len(free), np.int64),
                             -pins, pins]),
        demand=demand, pinned=node_pinned, start=node_start, scale=scale)


def flow_network(system: ConstraintSystem, rows: np.ndarray,
                 objective: FlowObjective) -> FlowNetwork:
    """The flow dual of the LP over ``rows`` of ``system``.

    Args:
        system: the constraint system.
        rows: the system rows that become arcs, in order.
        objective: :func:`flow_objective` of ``system``.
    """
    order = objective.order
    return FlowNetwork(
        order=order, lifetimes=objective.lifetimes,
        tail=np.concatenate([np.searchsorted(order, system.u[rows]),
                             objective.tail]),
        head=np.concatenate([np.searchsorted(order, system.v[rows]),
                             objective.head]),
        cost=np.concatenate([system.bound[rows], objective.cost]),
        demand=objective.demand, pinned=objective.pinned,
        start=objective.start, num_rows=len(rows), scale=objective.scale)


def reduced_costs(network: FlowNetwork, potential: np.ndarray) -> np.ndarray:
    """``cost - pi[tail] + pi[head]`` of every arc (>= 0 when feasible)."""
    return network.cost - potential[network.tail] + potential[network.head]


# --------------------------------------------------------------------------
# The dual network simplex
# --------------------------------------------------------------------------


def _asap(network: FlowNetwork) -> np.ndarray:
    """Least feasible potentials: the start of the dual simplex.

    The schedule variables come from the difference rows and pins (so a
    conflict is named as :func:`~repro.sdc.solver.solve_asap` names it);
    each ``M_n`` is then the largest of its in-arcs' tails.
    """
    n, root = len(network.order), network.root
    rows = slice(0, network.num_rows)
    values = _least_fixpoint(network.order, network.tail[rows],
                             network.head[rows], network.cost[rows],
                             network.pinned[:n], network.start[:n])
    potential = np.zeros(root + 1, dtype=np.int64)
    potential[:n] = values
    life = np.flatnonzero(network.head >= n)
    life = life[network.head[life] < root]
    potential[n:root] = np.iinfo(np.int64).min
    np.maximum.at(potential, network.head[life], values[network.tail[life]])
    return potential


def _tight_tree(network: FlowNetwork, potential: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """A spanning tree of tight arcs, grown breadth-first from the root.

    At the least fixpoint every potential is the length of a longest path
    of tight arcs from the root, so walking tight arcs forward reaches every
    node.  A node joins through the lowest-index tight arc from the
    previous level.

    Returns:
        ``(parent, parent_arc, levels)``: every node's tree parent and the
        arc joining them (-1 for the root), and the nodes of each level.
    """
    size, root = len(potential), network.root
    tight = np.flatnonzero(reduced_costs(network, potential) == 0)
    tails, heads = network.tail[tight], network.head[tight]
    parent = np.full(size, -1, dtype=np.int64)
    parent_arc = np.full(size, -1, dtype=np.int64)
    seen = np.zeros(size, dtype=bool)
    seen[root] = True
    frontier = np.zeros(size, dtype=bool)
    frontier[root] = True
    levels = [np.array([root], dtype=np.int64)]
    while True:
        step = np.flatnonzero(frontier[tails] & ~seen[heads])
        if not len(step):
            break
        reached, first = np.unique(heads[step], return_index=True)
        parent[reached] = tails[step[first]]
        parent_arc[reached] = tight[step[first]]
        seen[reached] = True
        frontier[:] = False
        frontier[reached] = True
        levels.append(reached)
    if not seen.all():
        raise RuntimeError(
            f"{int((~seen).sum())} potentials have no tight path from the "
            "root; the start is not a least fixpoint")
    return parent, parent_arc, levels


def _tree_flow(network: FlowNetwork, parent: np.ndarray,
               parent_arc: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """The flow a tree carries: each arc moves its subtree's net demand."""
    below = network.demand.copy()
    for level in reversed(levels[1:]):
        np.add.at(below, parent[level], below[level])
    flow = np.zeros(len(network.cost), dtype=np.int64)
    nodes = np.concatenate(levels[1:])
    arcs = parent_arc[nodes]
    # A down arc (parent -> node) carries the demand into the subtree, an
    # up arc carries the negated demand out of it.
    flow[arcs] = np.where(network.head[arcs] == nodes, below[nodes],
                          -below[nodes])
    return flow


class _Tree:
    """A rooted spanning tree as Python lists: one pivot touches few nodes.

    Attributes:
        parent: tree parent of every node (-1 for the root).
        parent_arc: arc joining every node to its parent (-1 for the root).
        children: the children of every node.
        depth: tree depth of every node (0 for the root).
    """

    def __init__(self, parent: np.ndarray, parent_arc: np.ndarray,
                 levels: list[np.ndarray]) -> None:
        self.parent = parent.tolist()
        self.parent_arc = parent_arc.tolist()
        self.children: list[set[int]] = [set() for _ in self.parent]
        for node, above in enumerate(self.parent):
            if above >= 0:
                self.children[above].add(node)
        self.depth = [0] * len(self.parent)
        for depth, level in enumerate(levels):
            for node in level.tolist():
                self.depth[node] = depth

    def subtree(self, node: int, mark: list[int], stamp: int) -> list[int]:
        """``node`` and its descendants, each marked with ``stamp``."""
        members, children = [node], self.children
        mark[node] = stamp
        for member in members:
            for child in children[member]:
                mark[child] = stamp
                members.append(child)
        return members

    def push(self, flow: list[int], tail: list[int], head: list[int],
             enter: int, amount: int, negative: set[int]) -> None:
        """Send ``amount`` around the cycle the entering arc closes.

        The cycle runs along ``enter`` from its tail to its head, then
        through the tree from the head up to the common ancestor (each step
        child -> parent) and down to the tail (each step parent -> child).
        Whichever end is deeper steps up, so the two walks meet at the
        ancestor.  ``negative`` (the nodes whose parent arc carries
        negative flow) is kept up to date along the way.
        """
        parent, parent_arc, depth = self.parent, self.parent_arc, self.depth
        flow[enter] += amount
        up, down = head[enter], tail[enter]
        while up != down:
            if depth[up] >= depth[down]:
                node, arc = up, parent_arc[up]
                flow[arc] += amount if tail[arc] == node else -amount
                up = parent[node]
            else:
                node, arc = down, parent_arc[down]
                flow[arc] += amount if head[arc] == node else -amount
                down = parent[node]
            if flow[arc] < 0:
                negative.add(node)
            else:
                negative.discard(node)

    def rehang(self, inner: int, outer: int, enter: int, lower: int,
               flow: list[int], negative: set[int]) -> None:
        """Re-root the subtree of ``lower`` at ``inner``, under ``outer``.

        The tree path from ``inner`` up to ``lower`` is reversed and
        ``inner`` hangs from ``outer`` by the entering arc.  Each node on
        the path takes a new parent arc, so its entry in ``negative`` is
        re-derived, and so are the depths of the whole moved subtree.
        """
        parent, parent_arc, children = (self.parent, self.parent_arc,
                                        self.children)
        children[parent[lower]].discard(lower)
        above, above_arc, node = outer, enter, inner
        while True:
            next_node, next_arc = parent[node], parent_arc[node]
            parent[node], parent_arc[node] = above, above_arc
            children[above].add(node)
            if flow[above_arc] < 0:
                negative.add(node)
            else:
                negative.discard(node)
            if node == lower:
                break
            children[next_node].discard(node)
            above, above_arc, node = node, next_arc, next_node
        depth = self.depth
        depth[inner] = depth[outer] + 1
        members = [inner]
        for member in members:
            below = depth[member] + 1
            for child in children[member]:
                depth[child] = below
                members.append(child)


def _adjacency(ends: list[int], size: int) -> list[list[int]]:
    """The arcs at every node (``ends`` is each arc's tail or head), ascending."""
    arcs: list[list[int]] = [[] for _ in range(size)]
    for arc, end in enumerate(ends):
        arcs[end].append(arc)
    return arcs


def _leaving_arc(negative: set[int], parent_arc: list[int],
                 depth: list[int], bland: bool) -> int:
    """The tree arc a pivot drops, given the nodes whose parent arc is negative.

    The arc above the deepest such node (its subtree is the smallest to
    shift and scan), the lowest index among ties; under Bland's rule the
    lowest-index negative arc.
    """
    if bland:
        return min(parent_arc[node] for node in negative)
    deepest = max(map(depth.__getitem__, negative))
    return min([parent_arc[node] for node in negative
                if depth[node] == deepest])


def network_simplex(network: FlowNetwork
                    ) -> tuple[np.ndarray, np.ndarray, int]:
    """Optimal flow and potentials of ``network`` by a dual simplex.

    Returns:
        ``(flow, potential, pivots)``: the flow on every arc, the potential
        of every node (the root's is 0) and the number of pivots taken.

    Raises:
        SdcInfeasibleError: if the rows conflict with the pins or contain a
            positive cycle, or the objective is unbounded (no flow meets
            the demands).
    """
    tail, head = network.tail.tolist(), network.head.tolist()
    cost = network.cost.tolist()
    start = _asap(network)
    parent, parent_arc, levels = _tight_tree(network, start)
    flow = _tree_flow(network, parent, parent_arc, levels).tolist()
    tree = _Tree(parent, parent_arc, levels)
    tree_arc, depth = tree.parent_arc, tree.depth
    potential = start.tolist()
    size = len(potential)
    out_arcs, in_arcs = _adjacency(tail, size), _adjacency(head, size)
    # Nodes whose parent arc carries negative flow: the leaving candidates.
    negative = {node for node, arc in enumerate(tree_arc)
                if arc >= 0 and flow[arc] < 0}
    # A pivot marks its subtree's members with the pivot's number.
    mark = [0] * size
    pivots = degenerate = 0
    while negative:
        pivots += 1
        # Bland's rule (lowest index out and in) once degenerate pivots have
        # run longer than the tree is large.
        bland = degenerate > size
        leave = _leaving_arc(negative, tree_arc, depth, bland)
        lower = tail[leave] if tree_arc[tail[leave]] == leave else head[leave]
        members = tree.subtree(lower, mark, pivots)
        # A down arc into the subtree with negative flow leaves it with
        # excess: an arc out of it must enter, and its potentials rise.
        # An up arc out of it leaves it short: an arc into it enters.  The
        # least-slack crossing arc enters, the highest index among ties
        # (the lowest under Bland's rule).
        rise = head[leave] == lower
        adjacent, far = (out_arcs, head) if rise else (in_arcs, tail)
        sign = 1 if rise else -1
        enter, delta = -1, math.inf
        for node in members:
            here = potential[node]
            for arc in adjacent[node]:
                other = far[arc]
                if mark[other] != pivots:
                    slack = cost[arc] - sign * (here - potential[other])
                    if slack < delta or (slack == delta
                                         and (arc < enter) == bland):
                        enter, delta = arc, slack
        if enter < 0:
            raise SdcInfeasibleError("the LP is unbounded: no flow meets the "
                                     "objective's demands")
        if delta:
            shift = sign * delta
            for node in members:
                potential[node] += shift
            degenerate = 0
        else:
            degenerate += 1
        tree.push(flow, tail, head, enter, -flow[leave], negative)
        inner, outer = ((tail[enter], head[enter]) if rise
                        else (head[enter], tail[enter]))
        tree.rehang(inner, outer, enter, lower, flow, negative)
    return (np.array(flow, dtype=np.int64),
            np.array(potential, dtype=np.int64), pivots)


# --------------------------------------------------------------------------
# Certificate and output
# --------------------------------------------------------------------------


def check_certificate(network: FlowNetwork, flow: np.ndarray,
                      potential: np.ndarray) -> None:
    """Check that ``flow`` and ``potential`` prove each other optimal.

    O(arcs): every node receives its demand, no flow is negative, every
    reduced cost is non-negative (the potentials meet every arc) and every
    arc carrying flow is tight.

    Raises:
        CertificateError: naming the first condition that fails.
    """
    size = len(network.demand)
    if potential[network.root] != 0:
        raise CertificateError("the root's potential is not 0")
    if (flow < 0).any():
        raise CertificateError(f"negative flow on arc "
                               f"{int(np.flatnonzero(flow < 0)[0])}")
    balance = (np.bincount(network.head, flow, size)
               - np.bincount(network.tail, flow, size))
    if not np.array_equal(balance, network.demand):
        node = int(np.flatnonzero(balance != network.demand)[0])
        raise CertificateError(f"node {node} receives {balance[node]:.0f}, "
                               f"not its demand {network.demand[node]}")
    reduced = reduced_costs(network, potential)
    if (reduced < 0).any():
        raise CertificateError(f"potentials violate arc "
                               f"{int(np.flatnonzero(reduced < 0)[0])}")
    slack = (flow > 0) & (reduced != 0)
    if slack.any():
        raise CertificateError(f"arc {int(np.flatnonzero(slack)[0])} carries "
                               "flow but is not tight")


def least_optimal(network: FlowNetwork, flow: np.ndarray) -> np.ndarray:
    """The least optimal potentials, given an optimal flow.

    By complementary slackness an arc that carries flow in one optimal
    flow is tight in every optimal schedule, and the optimal schedules are
    exactly the feasible ones with those arcs tight.  Adding each such
    arc's reverse row keeps a difference system, whose least fixpoint from
    the pins is the least optimal schedule.
    """
    carrying = np.flatnonzero(flow > 0)
    tail = np.concatenate([network.tail, network.head[carrying]])
    head = np.concatenate([network.head, network.tail[carrying]])
    cost = np.concatenate([network.cost, -network.cost[carrying]])
    return _least_fixpoint(network.names, tail, head, cost, network.pinned,
                           network.start)


def solve_flow(system: ConstraintSystem, rows: np.ndarray,
               objective: FlowObjective) -> dict[int, int]:
    """The least optimal schedule of the LP over ``rows`` of ``system``.

    Raises:
        SdcInfeasibleError: if the rows conflict with the pins or contain a
            positive cycle.
        CertificateError: if the simplex's answer fails its certificate.
    """
    network = flow_network(system, rows, objective)
    flow, potential, _ = network_simplex(network)
    check_certificate(network, flow, potential)
    values = least_optimal(network, flow)
    return dict(zip(network.order.tolist(),
                    values[:len(network.order)].tolist()))
