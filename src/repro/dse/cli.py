"""The ``dse`` subcommand of :mod:`repro.experiments.runner`.

One entry point (:func:`dse_main`) drives :func:`repro.dse.search.run_dse`
over a comma-separated design list::

    python -m repro.experiments.runner dse --designs rrot,crc32 \\
        --mode minclock --jobs 4 --resolution-ps 10

``--mode minclock`` (the default) searches each design's minimum feasible
clock period by bracketing + batch-speculative bisection; ``--mode
pareto`` sweeps a period grid and reports the latency / register-count
front; ``--mode min-ii`` resolves each design's minimum feasible
initiation interval at its registry clock (meaningful for ``loop:`` /
``.ir`` pipelined-loop designs -- DAGs trivially report II 1).  ``--jobs N`` evaluates each batch of speculative probes over N
worker processes; ``--speculate`` fixes the batch width independently of
the worker count, making the probed period sequence (and the
deterministic part of the ``--json`` payload) identical across ``--jobs``
settings.  ``--json PATH`` writes the schema-7 machine-readable payload
(:mod:`repro.experiments.serialize`) that ``runner report`` can load.
``--store STORE.jsonl`` additionally appends every evaluated probe as a
``dse-probe`` record (plus the payload as a ``payload`` record) to a
unified artifact store -- probe keys are content-addressed over the
question asked (design, mode, period, stage bound), so re-running a
search supersedes its probes instead of duplicating them.  The store is
opened before the search starts: a file that is not a unified store is
refused with one error line and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.dse.search import MODES, DseResult, probe_records, run_dse
from repro.experiments.tables import format_table
from repro.store import ArtifactStore, payload_record

#: Designs covered by ``--quick`` (small Table-I cases, seconds to search).
QUICK_DESIGNS = ("rrot", "crc32")


def format_dse(result: DseResult) -> str:
    """ASCII rendition of one :func:`run_dse` result."""
    if result.mode == "min-ii":
        return _format_min_ii(result)
    headers = ["Design", "Start (ps)", "Min clock (ps)", "Stages", "Regs",
               "Probes", "Converged", "Warm hits", "Time (s)"]
    rows = []
    for design in result.designs:
        name = design.design
        if len(name) > 40:
            name = name[:37] + "..."
        best = next((o for o in design.probes
                     if design.min_clock_ps is not None
                     and o.clock_period_ps == design.min_clock_ps), None)
        rows.append([
            name, f"{design.start_clock_ps:.0f}",
            f"{design.min_clock_ps:.1f}"
            if design.min_clock_ps is not None else "n/a",
            best.num_stages if best and best.num_stages is not None else "-",
            best.num_registers
            if best and best.num_registers is not None else "-",
            len(design.probes),
            "yes" if design.converged else "no",
            f"{design.stats.get('warm_hit_rate', 0.0):.0%}",
            f"{design.elapsed_s:.2f}",
        ])
    lines = [format_table(headers, rows)]
    if result.mode == "pareto":
        for design in result.designs:
            if not design.front:
                continue
            lines.append("")
            lines.append(f"{design.design}: Pareto front "
                         "(clock ps -> stages / registers)")
            lines.append(format_table(
                ["Clock (ps)", "Stages", "Registers"],
                [[f"{p.clock_period_ps:.1f}", p.num_stages, p.num_registers]
                 for p in design.front]))
    lines.append(f"dse {result.mode}: {len(result.designs)} designs in "
                 f"{result.elapsed_s:.2f}s "
                 f"(jobs {result.jobs}, speculate {result.speculate})")
    return "\n".join(lines)


def _format_min_ii(result: DseResult) -> str:
    """ASCII rendition of a minimum-II search result."""
    headers = ["Design", "Clock (ps)", "Min II", "Stages", "Regs",
               "II probes", "Feasible", "Time (s)"]
    rows = []
    for design in result.designs:
        name = design.design
        if len(name) > 40:
            name = name[:37] + "..."
        best = next((o for o in design.probes
                     if design.min_ii is not None and o.ii == design.min_ii
                     and o.feasible), None)
        rows.append([
            name, f"{design.start_clock_ps:.0f}",
            design.min_ii if design.min_ii is not None else "n/a",
            best.num_stages if best and best.num_stages is not None else "-",
            best.num_registers
            if best and best.num_registers is not None else "-",
            len(design.probes),
            "yes" if design.converged else "no",
            f"{design.elapsed_s:.2f}",
        ])
    lines = [format_table(headers, rows)]
    lines.append(f"dse min-ii: {len(result.designs)} designs in "
                 f"{result.elapsed_s:.2f}s (jobs {result.jobs})")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner dse",
        description="Search clock-period design space (minimum feasible "
                    "clock or latency/register Pareto front) with "
                    "warm-started, batched-parallel probe evaluation.")
    parser.add_argument("--designs", metavar="NAMES", action="append",
                        help="designs to search; repeatable.  Registry names "
                             "and .ir file paths may be comma-separated in "
                             "one flag; a gen: or loop: name (whose "
                             "parameters themselves contain commas) takes "
                             "one flag to itself")
    parser.add_argument("--quick", action="store_true",
                        help=f"search the built-in quick designs "
                             f"({', '.join(QUICK_DESIGNS)}) unless --designs "
                             "is given")
    parser.add_argument("--mode", choices=MODES, default="minclock",
                        help="search strategy (default: minclock)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per probe batch (deterministic "
                             "results are identical to --jobs 1 at fixed "
                             "--speculate)")
    parser.add_argument("--speculate", type=int, metavar="K",
                        help="batch width: speculative periods proposed per "
                             "round (default: the job count)")
    parser.add_argument("--resolution-ps", type=float, default=25.0,
                        metavar="PS",
                        help="minclock convergence threshold: stop when the "
                             "feasible/infeasible bracket is this tight "
                             "(default: 25)")
    parser.add_argument("--max-stages", type=int, metavar="N",
                        help="treat schedules deeper than N stages as "
                             "infeasible (sharpens the minclock search)")
    parser.add_argument("--max-probes", type=int, default=96, metavar="N",
                        help="per-design probe budget in minclock mode "
                             "(default: 96)")
    parser.add_argument("--points", type=int, default=8, metavar="N",
                        help="pareto only: grid size of the period sweep "
                             "(default: 8)")
    parser.add_argument("--json", dest="json_path", metavar="PATH",
                        help="also write the schema-7 machine-readable "
                             "payload to PATH")
    parser.add_argument("--store", dest="store_path", metavar="STORE.jsonl",
                        help="also append every evaluated probe (dse-probe "
                             "records) and the payload to this artifact "
                             "store")
    parser.add_argument("--verbose", action="store_true",
                        help="print one summary line per design as it "
                             "finishes")
    return parser


def dse_main(argv: list[str] | None = None) -> int:
    """Entry point of ``runner dse``; returns the process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    if arguments.jobs < 1:
        parser.error("--jobs must be at least 1")
    if arguments.speculate is not None and arguments.speculate < 1:
        parser.error("--speculate must be at least 1")
    if arguments.json_path and Path(arguments.json_path).is_dir():
        parser.error(f"--json {arguments.json_path!r} is a directory, "
                     "expected a file path")
    designs: list[str] = []
    for chunk in arguments.designs or ():
        if chunk.startswith(("gen:", "loop:")):
            designs.append(chunk)
        else:
            designs.extend(part.strip() for part in chunk.split(",")
                           if part.strip())
    if not designs:
        if not arguments.quick:
            parser.error("name designs with --designs NAMES, or use --quick")
        designs = list(QUICK_DESIGNS)
    store = None
    if arguments.store_path:
        try:  # a bad --store must fail before the search, not after it
            store = ArtifactStore(arguments.store_path).open_for_append()
        except (OSError, ValueError) as error:
            parser.exit(2, f"{parser.prog}: error: --store: {error}\n")
    start = time.perf_counter()
    try:
        result = run_dse(designs, mode=arguments.mode, jobs=arguments.jobs,
                         speculate=arguments.speculate,
                         resolution_ps=arguments.resolution_ps,
                         max_stages=arguments.max_stages,
                         max_probes=arguments.max_probes,
                         points=arguments.points,
                         verbose=arguments.verbose)
    except (KeyError, ValueError) as error:
        parser.error(str(error))
    elapsed = time.perf_counter() - start
    print(format_dse(result))
    if arguments.json_path or store is not None:
        from repro.experiments.serialize import experiment_payload

        payload = experiment_payload("dse", result, quick=arguments.quick,
                                     jobs=arguments.jobs, elapsed_s=elapsed)
        if arguments.json_path:
            path = Path(arguments.json_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(payload, indent=2) + "\n")
        if store is not None:
            store.put_many(probe_records(result))
            store.put(payload_record(payload))
    return 0


__all__ = ["QUICK_DESIGNS", "dse_main", "format_dse"]
