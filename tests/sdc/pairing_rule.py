"""The implied-row rule over the constraint rows: the oracle of ``lp_rows``.

:attr:`~repro.sdc.problem.ScheduleProblem.lp_rows` reads the rule off the
delay matrix.  This is the same rule stated over the rows themselves: a
timing row ``(u, v)`` is dropped when a timing row ``(u, p)`` (``p`` an
operand of ``v``) or ``(c, v)`` (``c`` a user of ``u``) forces at least
as many cycles through one dependency row.  It reads only the system's
``(u, v, bound, kind)``, so it also serves hand-built systems that no
delay matrix describes.
"""

from __future__ import annotations

import numpy as np

from repro.sdc.constraints import DEPENDENCY, TIMING, ConstraintSystem


def implication_pairs(system: ConstraintSystem
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Timing rows that imply another timing row through one dependency row.

    With a dependency row ``s_p - s_v <= 0`` (``p`` an operand of ``v``), a
    timing row ``(u, p)`` implies the timing row ``(u, v)`` whenever it
    needs at least as many cycles; likewise a timing row ``(c, v)`` implies
    ``(u, v)`` through a dependency ``u -> c``.  Every timing row is
    stepped over the dependency rows at one of its ends, and the stepped
    pair is looked up among the sorted ``u * size + v`` keys of the timing
    rows.

    Returns:
        ``(source, target)``: system rows; ``source[i]`` implies
        ``target[i]`` when ``bound[source[i]] <= bound[target[i]]``.
    """
    timing = np.flatnonzero(system.kind == TIMING)
    dependency = np.flatnonzero(system.kind == DEPENDENCY)
    if not len(timing) or not len(dependency):
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    size = int(max(system.u.max(), system.v.max())) + 1
    tu, tv = system.u[timing], system.v[timing]
    du, dv = system.u[dependency], system.v[dependency]
    keys = tu * size + tv
    by_key = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_key]
    sources, targets = [], []
    # (u, p) then p -> v reaches (u, v); u -> c then (c, v) reaches (u, v).
    for forward, ends, tails, heads in ((True, tv, du, dv),
                                        (False, tu, dv, du)):
        rows, reached = _step(ends, tails, heads, size)
        candidate = (tu[rows] * size + reached if forward
                     else reached * size + tv[rows])
        at = np.minimum(np.searchsorted(sorted_keys, candidate),
                        len(keys) - 1)
        found = sorted_keys[at] == candidate
        sources.append(timing[rows[found]])
        targets.append(timing[by_key[at[found]]])
    return np.concatenate(sources), np.concatenate(targets)


def _step(ends: np.ndarray, tails: np.ndarray, heads: np.ndarray, size: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """Every edge ``tails[j] -> heads[j]`` leaving each of ``ends``.

    Returns:
        ``(rows, reached)``: for each such edge, the position in ``ends``
        it leaves from and the node it reaches.
    """
    order = np.argsort(tails, kind="stable")
    first = np.concatenate([[0], np.cumsum(np.bincount(tails,
                                                       minlength=size))])
    starts, counts = first[ends], first[ends + 1] - first[ends]
    rows = np.repeat(np.arange(len(ends)), counts)
    slots = np.arange(len(rows)) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)
    return rows, heads[order[slots]]


def lp_rows(system: ConstraintSystem) -> np.ndarray:
    """Every row of ``system`` except the timing rows another row implies.

    Returns:
        The kept system rows, ascending.
    """
    source, target = implication_pairs(system)
    keep = np.ones(len(system), dtype=bool)
    keep[target[system.bound[source] <= system.bound[target]]] = False
    return np.flatnonzero(keep)
