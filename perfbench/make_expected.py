"""Regenerate ``expected.json``: the answers every run is checked against.

::

    python3 perfbench/make_expected.py

Schedules every ``isdc-cold`` design (all Table-I rows it uses and the
whole ``gen:`` pool) and searches every ``dse-minclock`` design, each from
a cold start, and records per design the answer and the exact work
counts.  Run it only when a change is meant to alter answers or counts,
and say so in the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dse_minclock  # noqa: E402
import isdc_cold  # noqa: E402
from checks import EXPECTED_PATH  # noqa: E402


def isdc_expected() -> dict:
    from repro.designs.generator import case_from_name

    names = list(isdc_cold.TABLE1_ROWS) + [
        isdc_cold.gen_design(index) for index in range(isdc_cold.GEN_POOL)]
    expected = {}
    for name in names:
        case = case_from_name(name)
        scheduler, result = isdc_cold.schedule_one(case, case.build())
        expected[name] = {"registers": result.final_report.num_registers,
                          "stages": result.final_report.num_stages,
                          "evaluations": scheduler.feedback.evaluations}
        print(name, expected[name], flush=True)
    return expected


def dse_expected() -> dict:
    from repro.designs.suite import table1_suite
    from repro.dse.search import reset_worker_caches

    names = [case.name for case in table1_suite()] + [
        dse_minclock.gen_design(index) for index in range(dse_minclock.GEN_POOL)]
    expected = {}
    for name in names:
        reset_worker_caches()
        result, counts = dse_minclock.search_one(name)
        expected[name] = {"min_clock_ps": result.min_clock_ps, **counts}
        print(name, expected[name], flush=True)
    return expected


def main() -> None:
    payload = {isdc_cold.NAME: isdc_expected(),
               dse_minclock.NAME: dse_expected()}
    EXPECTED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
