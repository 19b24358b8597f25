"""File-based design ingestion: ``.ir`` textual files as benchmark cases.

``runner campaign --design path/to/file.ir`` (and ``runner dse``) resolve
design names ending in ``.ir`` through this module instead of the Table-I
registry: the file is parsed with the hardened textual-IR parser, verified
structurally, and wrapped as a :class:`~repro.designs.suite.BenchmarkCase`
whose factory re-parses the file -- campaign workers rebuild designs from
the job's design name alone, so the name *is* the path and the file must
stay readable for the run's duration.

The file's optional ``clock <picoseconds>`` directive selects the case's
clock period (default 2500 ps, the suite's standard).
"""

from __future__ import annotations

import os
from functools import partial

from repro.designs.suite import BenchmarkCase
from repro.ir.graph import DataflowGraph
from repro.ir.textual import parse_design_text
from repro.ir.verify import IRVerificationError, verify_graph

DEFAULT_CLOCK_PS = 2500.0


def is_ir_path(name: str) -> bool:
    """True when a design name denotes a textual-IR file."""
    return name.endswith(".ir")


def load_ir_design(path: str) -> tuple[DataflowGraph, float]:
    """Parse and verify one ``.ir`` file.

    Returns:
        ``(graph, clock_period_ps)``.

    Raises:
        ValueError: when the file is missing, unparsable (with the
            offending line number) or structurally invalid -- file
            ingestion never surfaces ``KeyError``/``OSError`` to callers.
    """
    if not os.path.isfile(path):
        raise ValueError(f"design file not found: {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read design file {path!r}: {exc}") from None
    try:
        graph, clock_ps = parse_design_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    try:
        verify_graph(graph)
    except IRVerificationError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return graph, clock_ps if clock_ps is not None else DEFAULT_CLOCK_PS


def _load_ir_graph(path: str) -> DataflowGraph:
    """The graph of one ``.ir`` file (module-level, so a case pickles)."""
    graph, _ = load_ir_design(path)
    return graph


def ir_file_case(path: str) -> BenchmarkCase:
    """Wrap a ``.ir`` file as a :class:`BenchmarkCase`.

    The file is parsed eagerly once (so malformed files fail at resolution
    time, not inside a worker) and again by the factory at build time: the
    case carries the path, not the graph, and pickles as such.

    Raises:
        ValueError: when the file cannot be loaded (see :func:`load_ir_design`).
    """
    _, clock_ps = load_ir_design(path)
    return BenchmarkCase(path, clock_ps, partial(_load_ir_graph, path),
                         "small")


__all__ = ["DEFAULT_CLOCK_PS", "ir_file_case", "is_ir_path", "load_ir_design"]
