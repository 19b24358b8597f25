"""Golden digests of the assembled SDC linear programs.

Every case builds a :class:`~repro.sdc.problem.ScheduleProblem` cold and
hashes two LPs (``A_ub`` in CSR form, ``b_ub``, the objective and the
variable bounds): the full LP :func:`~repro.sdc.problem.assemble_lp`
makes from every row of the system (key ``<case>``), and the LP over the
rows no other rows imply (:attr:`ScheduleProblem.lp_rows`, the rows the
flow solve receives; key ``reduced/<case>``).  The committed digests pin both byte for byte,
so any change to constraint construction, row order, deduplication, the
implied-row rule or assembly shows up here even when schedules happen to
survive it.

Regenerate the digests (only for a deliberate LP change) with::

    PYTHONPATH=src python tests/sdc/test_lp_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.designs.suite import table1_suite
from repro.dse.warm import build_context
from repro.sdc.problem import AssembledLp, ScheduleProblem, assemble_lp

GOLDEN_PATH = Path(__file__).with_name("lp_golden.json")
LOOP_DESIGN = str(Path(__file__).parents[2] / "examples" / "loop_accum.ir")
#: Rows probed at a budget just above their slowest single operation, where
#: nearly every connected pair carries a timing constraint.
TIGHT_DESIGNS = ("binary divide", "crc32")


def lp_cases() -> dict[str, tuple[str, float | None, int]]:
    """Case label -> (design name, budget in ps or None for default, II)."""
    cases = {f"table1/{case.name}": (case.name, None, 1)
             for case in table1_suite()}
    for name in TIGHT_DESIGNS:
        cases[f"tight/{name}"] = (name, "tight", 1)
    for ii in (1, 2):
        cases[f"loop_accum/ii={ii}"] = (LOOP_DESIGN, None, ii)
    return cases


def cold_problem(name: str, budget, ii: int) -> ScheduleProblem:
    context = build_context(name)
    if budget is None:
        budget = context.default_clock_ps - context.register_overhead_ps
    elif budget == "tight":
        budget = context.worst_delay_ps + 1.0
    return ScheduleProblem(context.graph, context.matrix, context.index_of,
                           budget, ii=ii)


def _digest(lp: AssembledLp) -> str:
    """sha256 over the LP's CSR ``A_ub``, ``b_ub``, objective and bounds."""
    digest = hashlib.sha256()
    arrays = [lp.b_ub, lp.objective]
    if lp.a_ub is not None:
        arrays = [lp.a_ub.indptr, lp.a_ub.indices, lp.a_ub.data] + arrays
    for array in arrays:
        digest.update(array.dtype.str.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(json.dumps(lp.bounds).encode())
    return digest.hexdigest()


def lp_digests(problem: ScheduleProblem) -> dict[str, str]:
    """Digests of the full and the reduced LP, by golden-label prefix."""
    full = assemble_lp(problem.system, problem.register_weights,
                       problem.users_map, problem.latency_weight)
    reduced = assemble_lp(problem.system.subsystem(problem.lp_rows),
                          problem.register_weights, problem.users_map,
                          problem.latency_weight)
    return {"": _digest(full), "reduced/": _digest(reduced)}


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("label", sorted(lp_cases()))
def test_lp_matches_golden_digest(label):
    digests = lp_digests(cold_problem(*lp_cases()[label]))
    assert digests[""] == _golden()[label]


@pytest.mark.parametrize("label", sorted(lp_cases()))
def test_reduced_lp_matches_golden_digest(label):
    digests = lp_digests(cold_problem(*lp_cases()[label]))
    assert digests["reduced/"] == _golden()[f"reduced/{label}"]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(
        f"{prefix}{label}" for label in lp_cases() for prefix in ("", "reduced/"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_lp_golden.py --write")
    digests = {f"{prefix}{label}": digest
               for label, spec in sorted(lp_cases().items())
               for prefix, digest in lp_digests(cold_problem(*spec)).items()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
