"""Crash-safe JSONL primitives shared by every persistence consumer.

Two halves:

* :func:`parse_jsonl_tail` -- the torn-trailing-line-tolerant parser.  A
  process killed mid-append leaves at most one torn final line (no trailing
  newline, or half-written JSON); the parser tolerates exactly that and
  surfaces the tail separately, while corruption anywhere *earlier* raises,
  because records behind it may then be unreachable garbage.  This logic
  used to live privately in ``repro/campaign/store.py``; it is now the one
  parser behind the campaign run store, the evaluation cache and the
  unified artifact store.

* :func:`append_line` / :func:`append_lines` -- atomic crash-safe append:
  the file is opened ``O_APPEND`` and each record is written as one
  ``os.write`` call and flushed, so concurrent appenders (per-worker
  shards aside) never interleave bytes mid-record and a kill can tear at
  most the final line.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from repro import safejson


def parse_jsonl_tail(path: Path, tolerant: bool = False
                     ) -> tuple[list[dict], list[bytes], bytes, int]:
    """Parse a JSONL file into ``(records, complete lines, torn tail, skipped)``.

    A corrupt *trailing* line (the signature of a kill mid-append) is
    tolerated and returned as the tail; by default corruption anywhere
    earlier raises.  With ``tolerant=True`` earlier unparseable lines are
    skipped and counted instead -- the mode the evaluation cache uses,
    where a stale or foreign file must degrade to a cold cache rather than
    fail the run.

    Args:
        path: the JSONL file to parse.
        tolerant: skip (and count) mid-file corrupt lines instead of
            raising.

    Returns:
        ``records`` (parsed dicts in file order), ``complete`` (the raw
        byte lines behind them, without newlines), ``tail`` (torn trailing
        bytes, possibly empty) and ``skipped`` (mid-file lines dropped in
        tolerant mode; always 0 otherwise).

    Raises:
        FileNotFoundError: no file at ``path``.
        ValueError: the file is corrupt before its final line (strict
            mode only).
    """
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    # Everything after the final newline is a torn tail (possibly empty).
    complete, tail = lines[:-1], lines[-1]
    records: list[dict] = []
    kept: list[bytes] = []
    skipped = 0
    for position, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            records.append(safejson.loads(line))
            kept.append(line)
        except json.JSONDecodeError:
            if position == len(complete) - 1 and not tail:
                tail = line  # corrupt final line, newline and all
                complete = complete[:position]
                break
            if tolerant:
                skipped += 1
                continue
            raise ValueError(
                f"store file {path} is corrupt at line {position + 1}; "
                "only the trailing line of an interrupted run may be torn")
    return records, kept, tail, skipped


def truncate_torn_tail(path: Path, complete: list[bytes], tail: bytes) -> bool:
    """Drop a torn trailing line so future appends start on a clean boundary.

    Returns whether the file was rewritten (no-op when there is no tail).
    """
    if not tail:
        return False
    kept = b"\n".join(complete) + b"\n" if complete else b""
    path.write_bytes(kept)
    return True


def append_line(path: Path, line: str, fsync: bool = False) -> None:
    """Append one line crash-safely (O_APPEND, single write, flushed)."""
    append_lines(path, [line], fsync=fsync)


def append_lines(path: Path, lines: Iterable[str], fsync: bool = False) -> None:
    """Append several lines crash-safely in one O_APPEND write each.

    Args:
        path: target file (parent directories are created).
        lines: complete lines, each already ending in ``"\\n"``.
        fsync: also fsync the descriptor before closing (durability past
            the OS page cache, at a measurable per-append cost).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        for line in lines:
            os.write(fd, line.encode())
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


__all__ = ["append_line", "append_lines", "parse_jsonl_tail",
           "truncate_torn_tail"]
