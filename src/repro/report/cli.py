"""The ``report`` subcommand of :mod:`repro.experiments.runner`.

Two modes share one entry point (:func:`report_main`):

* **summary** -- ``runner report INPUT...`` aggregates one or more inputs
  (campaign run stores and/or runner ``--json`` payloads) along campaign
  axes::

      python -m repro.experiments.runner report runs/sweep.jsonl \\
          --group-by design,extraction --metric registers_final,iterations \\
          --format markdown

* **diff** -- ``runner report diff OLD NEW`` (or ``runner report NEW
  --baseline OLD``) joins two inputs on content-addressed job ids and
  gates on regressions; the process exits non-zero when any job's metric
  worsened by more than ``--threshold``::

      python -m repro.experiments.runner report diff \\
          runs/main.jsonl runs/branch.jsonl --threshold 0.05

``--json PATH`` additionally writes the schema-5 machine-readable payload
(:mod:`repro.experiments.serialize`), whatever ``--format`` is printed.
An input that cannot be read -- missing, corrupt, an unknown metric, or a
JSON-lines file that is not a unified store (such as a run store written
before the store existed) -- is reported as one error line with exit
code 2.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import NoReturn

from repro.report.aggregate import DEFAULT_REDUCERS, REDUCERS, aggregate
from repro.report.diff import DEFAULT_THRESHOLD, diff_frames
from repro.report.frame import AXES, METRICS, load_frames
from repro.report.render import FORMATS, render_aggregate, render_diff


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    epilog = (
        "axes: " + ", ".join(AXES) + " (alias m = subgraphs_per_iteration)\n"
        + "metrics:\n"
        + "\n".join(f"  {name:20s} {spec.description}"
                    for name, spec in METRICS.items())
        + "\nreducers: " + ", ".join(REDUCERS))
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner report",
        description="Aggregate or diff campaign run stores and runner "
                    "--json payloads.",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="campaign RunStore .jsonl files and/or runner "
                             "--json payloads; the literal first word "
                             "'diff' selects diff mode with exactly two "
                             "inputs (OLD NEW)")
    parser.add_argument("--group-by", default="design", metavar="AXES",
                        help="comma-separated grouping axes for the summary "
                             "(default: design)")
    parser.add_argument("--metric", default="registers_final", metavar="M",
                        help="metric(s) to report; comma-separated for the "
                             "summary, exactly one for diff "
                             "(default: registers_final)")
    parser.add_argument("--format", dest="fmt", default="ascii",
                        choices=FORMATS + ("md",),
                        help="output format (default: ascii)")
    parser.add_argument("--baseline", metavar="OLD",
                        help="diff the single INPUT against this baseline "
                             "(equivalent to: report diff OLD INPUT)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="T",
                        help="diff only: relative worsening tolerated before "
                             "the exit code turns non-zero (default: "
                             f"{DEFAULT_THRESHOLD:g} -- any regression fails)")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the rendered report to PATH")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="also write the schema-5 machine-readable "
                             "payload to PATH")
    return parser


def report_main(argv: list[str] | None = None) -> int:
    """Entry point of ``runner report``; returns the process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)

    def fail(message: str) -> NoReturn:
        parser.exit(2, f"{parser.prog}: error: {message}\n")

    inputs = list(arguments.inputs)
    diff_mode = bool(inputs) and inputs[0] == "diff"
    if diff_mode:
        inputs = inputs[1:]
        if arguments.baseline:
            parser.error("use either 'report diff OLD NEW' or "
                         "'report NEW --baseline OLD', not both")
        if len(inputs) != 2:
            parser.error("report diff needs exactly two inputs: OLD NEW")
        baseline_path, candidate_path = inputs
    elif arguments.baseline:
        diff_mode = True
        if len(inputs) != 1:
            parser.error("--baseline compares exactly one INPUT against it")
        baseline_path, candidate_path = arguments.baseline, inputs[0]

    metrics = _split_list(arguments.metric)
    if not metrics:
        parser.error("--metric must name at least one metric")

    start = time.perf_counter()
    try:
        if diff_mode:
            if len(metrics) != 1:
                parser.error("diff compares exactly one --metric")
            result = diff_frames(load_frames([baseline_path]),
                                 load_frames([candidate_path]),
                                 metric=metrics[0],
                                 threshold=arguments.threshold)
            rendered = render_diff(result, arguments.fmt)
            exit_code = result.exit_code
        else:
            result = aggregate(load_frames(inputs),
                               group_by=_split_list(arguments.group_by),
                               metrics=metrics,
                               reducers=DEFAULT_REDUCERS)
            rendered = render_aggregate(result, arguments.fmt)
            exit_code = 0
    except FileNotFoundError as error:
        fail(f"input not found: {error.filename or error}")
    except ValueError as error:
        fail(str(error))
    elapsed = time.perf_counter() - start

    print(rendered)
    if arguments.out:
        out = Path(arguments.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n")
    if arguments.json_path:
        from repro.experiments.serialize import experiment_payload

        payload = experiment_payload("report", result, elapsed_s=elapsed)
        path = Path(arguments.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
    return exit_code


__all__ = ["report_main"]
