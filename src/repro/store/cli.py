"""The ``store`` subcommand of :mod:`repro.experiments.runner`.

Operational surface of the unified artifact store::

    python -m repro.experiments.runner store ls STORE [--kind KIND]
    python -m repro.experiments.runner store verify STORE
    python -m repro.experiments.runner store compact STORE
    python -m repro.experiments.runner store gc STORE [--max-bytes N]
        [--max-records N] [--max-age-s S]

``ls`` lists records (kind, key, schema, body size); ``verify`` re-parses
the file strictly and reports duplicates / torn tails without modifying
it; ``compact`` rewrites the file without superseded duplicate keys
(atomic rename); ``gc`` applies a size/age retention policy on top of
compaction.  A file that is not a unified store (for instance one written
before the store existed) is refused with one error line and exit code 2,
never modified.
"""

from __future__ import annotations

import argparse
import json
from typing import NoReturn

from repro.store.store import ArtifactStore, GcPolicy


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner store",
        description="Inspect and maintain unified artifact store files.")
    commands = parser.add_subparsers(dest="command", required=True)

    ls = commands.add_parser("ls", help="list the store's records")
    ls.add_argument("store", metavar="STORE")
    ls.add_argument("--kind", help="only records of this kind")
    ls.add_argument("--json", dest="as_json", action="store_true",
                    help="machine-readable output (one JSON object per line)")

    verify = commands.add_parser(
        "verify", help="strict re-parse: duplicates, torn tail, health")
    verify.add_argument("store", metavar="STORE")

    compact = commands.add_parser(
        "compact", help="rewrite without superseded duplicates (atomic)")
    compact.add_argument("store", metavar="STORE")

    gc = commands.add_parser(
        "gc", help="apply a size/age retention policy (implies compact)")
    gc.add_argument("store", metavar="STORE")
    gc.add_argument("--max-bytes", type=int, metavar="N",
                    help="evict oldest unpinned records past this file size")
    gc.add_argument("--max-records", type=int, metavar="N",
                    help="evict oldest unpinned records past this count")
    gc.add_argument("--max-age-s", type=float, metavar="S",
                    help="drop records whose envelope timestamp is older "
                         "than S seconds (untimestamped records are kept)")
    return parser


def store_main(argv: list[str] | None = None) -> int:
    """Entry point of ``runner store``; returns the process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)

    def fail(message: str) -> NoReturn:
        parser.exit(2, f"{parser.prog}: error: {message}\n")

    try:
        if arguments.command == "ls":
            store = ArtifactStore.load(arguments.store)
            for record in store.records.values():
                if arguments.kind and record.kind != arguments.kind:
                    continue
                if arguments.as_json:
                    print(json.dumps({"kind": record.kind, "key": record.key,
                                      "schema": record.schema}))
                else:
                    print(f"{record.kind:16s} {record.key:32s} "
                          f"schema={record.schema} "
                          f"body={len(json.dumps(record.body))}B")
            histogram = ", ".join(f"{kind}={count}" for kind, count
                                  in sorted(store.kinds().items()))
            if not arguments.as_json:
                print(f"{len(store)} records ({histogram or 'empty'})")
            return 0

        if arguments.command == "verify":
            store = ArtifactStore.load(arguments.store)
            report = store.verify()
            histogram = ", ".join(f"{kind}={count}" for kind, count
                                  in sorted(report.kinds.items()))
            print(f"{arguments.store}: {report.num_records} records "
                  f"({histogram or 'empty'}), "
                  f"{report.dropped} superseded duplicates, "
                  f"torn tail: {'yes' if report.torn_tail else 'no'}")
            return 0

        if arguments.command == "compact":
            store = ArtifactStore(arguments.store).open_for_append()
            report = store.compact()
            print(f"{arguments.store}: compacted {report.bytes_before} -> "
                  f"{report.bytes_after} bytes, dropped {report.dropped} "
                  f"superseded records, kept {report.num_records}")
            return 0

        if arguments.command == "gc":
            store = ArtifactStore(arguments.store).open_for_append()
            policy = GcPolicy(max_bytes=arguments.max_bytes,
                              max_records=arguments.max_records,
                              max_age_s=arguments.max_age_s)
            report = store.gc(policy)
            print(f"{arguments.store}: gc dropped {report.dropped} records, "
                  f"kept {report.num_records} "
                  f"({report.bytes_before} -> {report.bytes_after} bytes)")
            return 0
    except FileNotFoundError as error:
        fail(f"input not found: {error.filename or error}")
    except ValueError as error:
        fail(str(error))
    raise AssertionError(f"unhandled command {arguments.command!r}")


__all__ = ["store_main"]
