"""End-to-end benchmark of the ISDC reproduction; see perfbench/README.md.

::

    python3 perfbench/run.py --workload {isdc-cold,dse-minclock,service-mixed}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics from a separate traced run (whose spans are also
written as Chrome trace-event JSON under ``.perfbench/``).
"""

import time

STARTED = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {"isdc-cold": "isdc_cold", "dse-minclock": "dse_minclock",
             "service-mixed": "service_mixed"}

#: Fresh-interpreter set-ups per run beyond the run's own; set-up time is
#: the median of all of them.
EXTRA_SETUPS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit "
                             "(used for the extra set-up samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import load_expected
    from statistics import median

    from measure import emit, peak_rss_mb, setup_samples

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = importlib.import_module(WORKLOADS[args.workload])
    state = workload.setup(args.seed, load_expected())
    own_setup = time.perf_counter() - STARTED
    if args.setup_only:
        workload.teardown(state)
        print(json.dumps({"setup_s": own_setup}))
        return 0

    try:
        if args.trace:
            outcome = workload.trace(state, args.seconds)
        else:
            outcome = workload.measure(state, args.seconds)
        rss = peak_rss_mb()
    finally:
        workload.teardown(state)

    for line in outcome["notes"]:
        print(line)
    for line in outcome["failures"][:20]:
        print(f"FAILED: {line}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"error_rate {failed / attempted:.6f} ratio "
          f"({failed} failed of {attempted} attempted)")

    values = dict(outcome["metrics"])
    if args.trace:
        wanted = spec["per_layer"]
        tracer = outcome.get("tracer")
        if tracer is not None:
            path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
            tracer.write_chrome(path)
            print(f"spans written to {path.relative_to(ROOT)}")
    else:
        samples = setup_samples(str(Path(__file__).resolve()), args.workload,
                                args.seed, EXTRA_SETUPS, own_setup)
        print("setup samples " + ", ".join(f"{s:.3f}" for s in samples) + " s")
        values["setup_s"] = median(samples)
        values["peak_rss_mb"] = rss
        wanted = spec["end_to_end"]
        missing = [entry["name"] for entry in wanted
                   if entry["name"] not in values]
        if missing:
            raise RuntimeError(f"{args.workload} measured no {missing}")
    # A layer the workload never calls reads 0 (no time, no calls).
    metrics = {entry["name"]: (float(values.get(entry["name"], 0.0)),
                               entry["unit"]) for entry in wanted}
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    emit(correct=not outcome["failures"], attempted=attempted, failed=failed,
         metrics=metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
