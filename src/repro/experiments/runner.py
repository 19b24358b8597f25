"""Command-line entry point for the experiment harnesses.

Usage::

    python -m repro.experiments.runner table1 [--quick] [--jobs N] [--json PATH]
    python -m repro.experiments.runner fig1 [--jobs N] [--json PATH]
    python -m repro.experiments.runner fig5 [--quick] [--jobs N] [--json PATH]
    python -m repro.experiments.runner fig6 [--quick] [--jobs N] [--json PATH]
    python -m repro.experiments.runner fig7 [--jobs N] [--json PATH]
    python -m repro.experiments.runner fig8 [--jobs N] [--json PATH]
    python -m repro.experiments.runner campaign \
        (--spec SPEC.json | --quick | --design NAME) \
        [--out STORE.jsonl] [--resume] [--jobs N] [--json PATH]
    python -m repro.experiments.runner report INPUT... \
        [--group-by AXES] [--metric M] [--format F] [--json PATH]
    python -m repro.experiments.runner report diff OLD NEW \
        [--metric M] [--threshold T] [--format F]
    python -m repro.experiments.runner dse (--designs NAMES | --quick) \
        [--mode minclock|pareto] [--jobs N] [--speculate K] \
        [--resolution-ps PS] [--max-stages N] [--json PATH]
    python -m repro.experiments.runner store \
        (ls|verify|compact|gc) STORE.jsonl [...]
    python -m repro.experiments.runner serve [--stdin] [--port N] \
        [--jobs N] [--store STORE.jsonl] [...]

Each sub-command regenerates one artefact of the paper's evaluation and
prints its ASCII rendition; ``--quick`` reduces iteration counts and design
subsets so a run finishes in well under a minute.  ``--jobs N`` fans the
independent units of work (benchmark cases, ablation configurations,
campaign jobs) out over N worker processes with deterministic result
ordering -- every schedule-quality figure is identical to a serial run.
``--json PATH`` additionally writes the machine-readable payload
described in :mod:`repro.experiments.serialize`; for ``table1`` the payload
carries the per-row phase split ``isdc_solver_time_s`` /
``isdc_synthesis_time_s``.

``campaign`` runs a (design x configuration) sweep described by a JSON spec
file (:class:`repro.campaign.spec.CampaignSpec` fields; ``--quick`` uses
the built-in generated-design smoke spec instead).  ``--design NAME``
(repeatable) adds designs by name -- Table-I rows, ``gen:``/``loop:``
specs, or textual-IR ``.ir`` file paths -- extending ``--spec`` designs or,
without a spec, running them on the quick configuration axes.  ``--out`` names the
JSONL run store checkpointing every completed job; re-running with
``--resume`` skips checkpointed jobs, so an interrupted sweep continues
where it stopped and still produces the identical final payload.

``report`` is the read side: it aggregates one or more campaign run
stores / ``--json`` payloads along campaign axes (``--group-by``) with
geomean/mean/p50/p95 reducers, and ``report diff`` joins two of them on
content-addressed job ids, exiting non-zero past ``--threshold`` so CI
can gate on regressions.  See :mod:`repro.report.cli` and ``docs/cli.md``.

``dse`` searches clock-period design space per design -- the minimum
feasible clock (``--mode minclock``) or the latency / register-count
Pareto front (``--mode pareto``) -- with warm-started probe evaluation
batched over ``--jobs`` workers.  See :mod:`repro.dse.cli`.

``serve`` runs the scheduling-service daemon: schedule / min-clock /
min-II requests over a JSON line protocol (stdin or TCP/HTTP), answered
from a content-addressed warm cache with request coalescing and batched
cold-miss execution over a persistent worker pool.  See
:mod:`repro.service.cli` and ``docs/service.md``.

``store`` maintains unified artifact-store files (:mod:`repro.store`):
``ls`` summarises, ``verify`` health-checks, ``compact`` drops superseded
duplicate keys and ``gc`` applies size/age retention.  ``--store
STORE.jsonl`` on any experiment additionally archives the run's payload as
a ``payload`` record in that store.  A ``--store`` or ``--out`` file that
is not a unified store (for instance one written before the store
existed) is refused with one error line and exit code 2 before any work
runs; re-run the command that wrote it to regenerate it.

Example::

    python -m repro.experiments.runner campaign --quick \
        --out runs/quick.jsonl --jobs 4 --json runs/quick.json
    # interrupted?  finish it:
    python -m repro.experiments.runner campaign --quick \
        --out runs/quick.jsonl --resume --json runs/quick.json
    # then analyse it:
    python -m repro.experiments.runner report runs/quick.jsonl \
        --group-by design,extraction --metric registers_final
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, NoReturn

from repro.campaign import (CampaignSpec, RunStore, StoreMismatchError,
                            quick_spec, run_campaign)
from repro.designs.suite import table1_suite
from repro.experiments.fig1 import format_profile, run_delay_profile
from repro.experiments.fig5 import format_ablation, run_extraction_ablation
from repro.experiments.fig6 import run_expansion_ablation
from repro.experiments.fig7 import format_estimation_accuracy, run_estimation_accuracy
from repro.experiments.fig8 import format_aig_correlation, run_aig_correlation
from repro.experiments.serialize import experiment_payload
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.tables import format_campaign
from repro.store import ArtifactStore, StoreFormatError, payload_record

EXPERIMENTS = ("table1", "fig1", "fig5", "fig6", "fig7", "fig8", "campaign")


def _small_cases():
    wanted = {"ML-core datapath1", "rrot", "binary divide", "crc32"}
    return [case for case in table1_suite() if case.name in wanted]


def run_experiment_result(name: str, quick: bool = False, jobs: int = 1,
                          spec: CampaignSpec | None = None,
                          store_path: str | None = None,
                          resume: bool = False) -> tuple[Any, str]:
    """Run one experiment and return ``(raw result, printable report)``.

    Args:
        name: ``table1``, ``fig1``/``5``/``6``/``7``/``8`` or ``campaign``.
        quick: use reduced settings.
        jobs: worker processes for the experiment's parallel fan-out.
        spec: the ``campaign`` sweep description; defaults to the built-in
            quick spec when ``quick`` is set.
        store_path: the ``campaign`` JSONL run store (in-memory when omitted).
        resume: resume the ``campaign`` store instead of refusing to reuse it.

    Raises:
        ValueError: for an unknown experiment name, or ``campaign`` without
            a spec and without ``quick``.
    """
    if name == "campaign":
        if spec is None:
            if not quick:
                raise ValueError(
                    "campaign needs a spec (--spec PATH) or --quick")
            spec = quick_spec()
        result = run_campaign(spec, RunStore(store_path), jobs=jobs,
                              resume=resume)
        return result, format_campaign(result)
    if name == "table1":
        result = run_table1(subgraphs_per_iteration=8 if quick else 16,
                            max_iterations=5 if quick else 15,
                            cases=_small_cases() if quick else None,
                            jobs=jobs)
        return result, format_table1(result)
    if name == "fig1":
        points = run_delay_profile(_small_cases() if quick else None,
                                   compute_aig=False, jobs=jobs)
        return points, format_profile(points)
    if name == "fig5":
        curves = run_extraction_ablation(
            subgraph_counts=(4, 16) if quick else (4, 8, 16),
            iterations=8 if quick else 30, jobs=jobs)
        return curves, format_ablation(curves)
    if name == "fig6":
        curves = run_expansion_ablation(
            subgraph_counts=(8,) if quick else (4, 8, 16),
            iterations=8 if quick else 30, jobs=jobs)
        return curves, format_ablation(curves)
    if name == "fig7":
        result = run_estimation_accuracy(
            _small_cases() if quick else None,
            max_iterations=5 if quick else 10, jobs=jobs)
        return result, format_estimation_accuracy(result)
    if name == "fig8":
        result = run_aig_correlation(_small_cases() if quick else None,
                                     jobs=jobs)
        return result, format_aig_correlation(result)
    raise ValueError(f"unknown experiment {name!r}; expected table1 or fig1/5/6/7/8")


def run_experiment(name: str, quick: bool = False, jobs: int = 1) -> str:
    """Run one experiment by name and return its printable report.

    Args:
        name: one of ``table1``, ``fig1``, ``fig5``, ``fig6``, ``fig7``, ``fig8``.
        quick: use reduced settings.
        jobs: worker processes for the experiment's parallel fan-out.

    Raises:
        ValueError: for an unknown experiment name.
    """
    _, report = run_experiment_result(name, quick=quick, jobs=jobs)
    return report


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        # The report subcommand has its own positional grammar (inputs,
        # diff mode); it owns its argv entirely.
        from repro.report.cli import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "dse":
        # Likewise the DSE subcommand: its flag set (mode, speculation,
        # convergence thresholds) is disjoint from the experiment flags.
        from repro.dse.cli import dse_main

        return dse_main(argv[1:])
    if argv and argv[0] == "store":
        # Artifact-store maintenance (ls/verify/compact/gc) owns
        # its own subcommand grammar too.
        from repro.store.cli import store_main

        return store_main(argv[1:])
    if argv and argv[0] == "serve":
        # The scheduling-service daemon (stdin/TCP front ends, warm
        # cache, coalescing, batched cold misses) owns its grammar too.
        from repro.service.cli import serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate one table/figure of the ISDC paper, "
                    "analyse sweep results (see: runner report --help), or "
                    "search clock-period design space (runner dse --help).")
    parser.add_argument("experiment", choices=list(EXPERIMENTS))
    parser.add_argument("--quick", action="store_true",
                        help="reduced settings (seconds instead of minutes)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the experiment's parallel "
                             "fan-out (results are identical to --jobs 1)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="also write the machine-readable result payload "
                             "to PATH")
    parser.add_argument("--store", dest="archive_store", metavar="STORE.jsonl",
                        help="also archive the result payload as a 'payload' "
                             "record in this artifact store (see: runner "
                             "store --help)")
    parser.add_argument("--spec", dest="spec_path", metavar="SPEC.json",
                        help="campaign only: JSON sweep description "
                             "(CampaignSpec fields); --quick uses the "
                             "built-in generated-design smoke spec")
    parser.add_argument("--design", dest="extra_designs", action="append",
                        metavar="NAME",
                        help="campaign only: add a design to the sweep "
                             "(Table-I name, gen:/loop: spec, or .ir file "
                             "path); repeatable.  Extends --spec designs; "
                             "without --spec the quick configuration axes "
                             "are used")
    parser.add_argument("--out", dest="store_path", metavar="STORE.jsonl",
                        help="campaign only: JSONL run store checkpointing "
                             "every completed job (in-memory when omitted)")
    parser.add_argument("--resume", action="store_true",
                        help="campaign only: skip jobs already checkpointed "
                             "in --out instead of refusing to reuse it")
    arguments = parser.parse_args(argv)
    if arguments.jobs < 1:
        parser.error("--jobs must be at least 1")
    if arguments.json_path and Path(arguments.json_path).is_dir():
        parser.error(f"--json {arguments.json_path!r} is a directory, "
                     "expected a file path")
    def fail(message: str) -> NoReturn:
        parser.exit(2, f"{parser.prog} {arguments.experiment}: error: "
                       f"{message}\n")

    spec = None
    if arguments.experiment == "campaign":
        source = (f"--spec {arguments.spec_path}" if arguments.spec_path
                  else "--design")
        if arguments.spec_path:
            try:
                spec = CampaignSpec.from_file(arguments.spec_path)
            except FileNotFoundError:
                fail(f"{source}: file not found")
            except json.JSONDecodeError as error:
                fail(f"{source}: invalid JSON ({error})")
            except (OSError, TypeError, ValueError) as error:
                fail(f"{source}: {error}")
            for name in arguments.extra_designs or ():
                if name not in spec.designs:
                    spec.designs.append(name)
        elif arguments.extra_designs:
            generated = quick_spec().designs if arguments.quick else []
            spec = quick_spec(designs=[*generated,
                                       *arguments.extra_designs])
        elif not arguments.quick:
            parser.error("campaign needs --spec PATH, --quick, or "
                         "--design NAME")
        if arguments.resume and not arguments.store_path:
            parser.error("--resume needs --out STORE.jsonl to resume from")
        if spec is not None:
            try:
                spec.jobs()  # resolve every design before touching --out
            except ValueError as error:
                fail(f"{source}: {error}")
    elif (arguments.spec_path or arguments.store_path or arguments.resume
          or arguments.extra_designs):
        parser.error("--spec/--out/--resume/--design apply to the campaign "
                     "experiment only")

    archive = None
    if arguments.archive_store:
        try:  # a bad --store must fail before the run, not after it
            archive = ArtifactStore(arguments.archive_store).open_for_append()
        except (OSError, ValueError) as error:
            fail(f"--store: {error}")

    start = time.perf_counter()
    try:
        result, report = run_experiment_result(
            arguments.experiment, quick=arguments.quick, jobs=arguments.jobs,
            spec=spec, store_path=arguments.store_path,
            resume=arguments.resume)
    except (FileExistsError, StoreMismatchError, StoreFormatError) as error:
        fail(f"--out: {error}")
    elapsed = time.perf_counter() - start
    print(report)

    if arguments.json_path or archive is not None:
        payload = experiment_payload(arguments.experiment, result,
                                     quick=arguments.quick,
                                     jobs=arguments.jobs, elapsed_s=elapsed)
        if arguments.json_path:
            path = Path(arguments.json_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2) + "\n")
        if archive is not None:
            archive.put(payload_record(payload))
    return 0


def cli() -> int:
    """The command line: :func:`main` on ``sys.argv``.

    A reader that closes standard output early (``runner ... | head -1``)
    ends every subcommand quietly with exit status 1, not a traceback.
    """
    try:
        try:
            return main()
        finally:
            # Buffered output must meet a closed pipe here, not at exit.
            sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail too (the ``signal`` module documentation's advice).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(cli())
