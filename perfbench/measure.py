"""Shared measurement helpers: percentiles, memory, set-up samples, output."""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it would be set by a handful of outliers.
MIN_SAMPLES_BEYOND = 10


def percentile(values: list[float], fraction: float) -> float | None:
    """Nearest-rank percentile, or ``None`` when the sample cannot carry it.

    The nearest-rank percentile of ``n`` sorted samples is the ``k``-th
    with ``k = ceil(fraction * n)``; the ``n - k`` samples after it must
    number at least :data:`MIN_SAMPLES_BEYOND`.
    """
    count = len(values)
    rank = max(1, math.ceil(fraction * count))
    if count - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(values)[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live child process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def setup_samples(script: str, workload: str, seed: int, extra: int,
                  own_sample: float) -> list[float]:
    """This run's set-up time plus ``extra`` set-ups in fresh interpreters.

    Each child runs the same set-up and prints its own time (measured the
    same way as ``own_sample``: from the first statement of the script to
    ready), then exits; the caller reports the median of all samples.
    """
    samples = [own_sample]
    for _ in range(extra):
        completed = subprocess.run(
            [sys.executable, script, "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(json.loads(
            completed.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result line (last line of stdout)."""
    for name, (value, unit) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}),
        flush=True)


def latency_notes(latencies: list[float], wall_s: float,
                  rounds: int) -> list[str]:
    """Report lines for a closed-loop workload whose requests are designs."""
    p99 = percentile(latencies, 0.99)
    return [
        f"p50_ms {statistics.median(latencies) * 1e3:.3f} ms; "
        f"p99_ms {'n/a' if p99 is None else f'{p99 * 1e3:.3f}'} "
        f"({len(latencies)} requests; a p99 needs "
        f"{MIN_SAMPLES_BEYOND} samples beyond it)",
        f"max_rps {len(latencies) / rounds / wall_s:.3f} 1/s "
        "(designs per second, one caller in a closed loop)"]
