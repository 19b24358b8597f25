"""Production paths import no scipy.

scipy's HiGHS is only the reference the flow solver is tested against
(``repro.sdc.highs``).  A fresh interpreter runs one ISDC schedule, one
minimum-clock DSE search and one in-process service ``schedule`` request,
then checks that no ``scipy`` module was ever imported.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import asyncio
import sys

from repro import IsdcConfig, IsdcScheduler
from repro.designs.arith import build_rrot
from repro.dse.search import run_dse
from repro.service.daemon import SchedulingService, ServiceConfig

result = IsdcScheduler(IsdcConfig(
    clock_period_ps=2500, max_iterations=1, patience=1,
    track_estimation_error=False)).schedule(build_rrot(width=8, num_rounds=2))
assert result.final_report.num_registers >= 0
assert run_dse(["rrot"], mode="minclock", jobs=1).designs[0].min_clock_ps


async def serve():
    service = SchedulingService(ServiceConfig(jobs=1))
    await service.start()
    try:
        return await service.handle({"kind": "schedule", "design": "rrot",
                                     "clock_period_ps": 2000.0})
    finally:
        await service.stop()

response = asyncio.run(serve())
assert response["ok"] and response["served"] == "cold", response
print(sorted(name for name in sys.modules
             if name == "scipy" or name.startswith("scipy.")))
"""


def test_production_paths_import_no_scipy():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""}, timeout=300, check=False)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "[]"
