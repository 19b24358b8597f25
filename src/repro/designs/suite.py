"""The Table-I benchmark suite and the ablation design."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.designs.arith import (
    build_binary_divide,
    build_float32_fast_rsqrt,
    build_fpexp32,
    build_rrot,
)
from repro.designs.crypto import build_crc32, build_sha256
from repro.designs.media import build_hsv2rgb, build_video_core_datapath
from repro.designs.misc import build_internal_datapath
from repro.designs.ml_core import (
    build_ml_core_datapath0_all,
    build_ml_core_datapath0_opcode,
    build_ml_core_datapath1,
    build_ml_core_datapath2,
)
from repro.ir.graph import DataflowGraph


@dataclass(frozen=True)
class BenchmarkCase:
    """One row of the Table-I benchmark suite.

    Attributes:
        name: row name, matching the paper's benchmark naming.
        clock_period_ps: target clock period (2500 ps, or 5000 ps for the
            designs whose individual multiplies exceed 2500 ps -- the same
            rule the paper applies).
        factory: zero-argument callable building the design's DFG.
        scale: relative size class ("small", "medium", "large"), used by the
            pytest benchmarks to pick tractable subsets.

    Every case this package builds pickles (its factory is a module-level
    function or a :func:`functools.partial` of one), so the experiment
    harnesses ship cases to worker processes as they are.  A caller's own
    factory must pickle too when it runs with ``jobs > 1``; a lambda or a
    closure makes the pool raise its pickling error.
    """

    name: str
    clock_period_ps: float
    factory: Callable[[], DataflowGraph]
    scale: str = "small"

    def build(self) -> DataflowGraph:
        """Instantiate the design."""
        graph = self.factory()
        graph.name = self.name
        return graph


def table1_suite() -> list[BenchmarkCase]:
    """The 17 benchmark cases of Table I, in the paper's row order.

    The proprietary SoC datapaths are synthetic stand-ins (see the package
    docstring); sha256 and fpexp use reduced round/degree counts so the whole
    suite runs in minutes rather than hours, while preserving the relative
    size ordering of the rows.
    """
    return [
        BenchmarkCase("ML-core datapath1", 2500.0,
                      partial(build_ml_core_datapath1, lanes=4, width=16),
                      "small"),
        BenchmarkCase("ML-core datapath0 opcode4", 5000.0,
                      partial(build_ml_core_datapath0_opcode, 4), "small"),
        BenchmarkCase("rrot", 2500.0,
                      partial(build_rrot, width=32, num_rounds=6), "small"),
        BenchmarkCase("ML-core datapath0 opcode3", 5000.0,
                      partial(build_ml_core_datapath0_opcode, 3), "small"),
        BenchmarkCase("binary divide", 2500.0,
                      partial(build_binary_divide, width=16), "small"),
        BenchmarkCase("hsv2rgb", 5000.0, build_hsv2rgb, "small"),
        BenchmarkCase("ML-core datapath0 opcode0", 5000.0,
                      partial(build_ml_core_datapath0_opcode, 0), "small"),
        BenchmarkCase("crc32", 2500.0,
                      partial(build_crc32, num_steps=24), "small"),
        BenchmarkCase("ML-core datapath0 opcode1", 5000.0,
                      partial(build_ml_core_datapath0_opcode, 1), "medium"),
        BenchmarkCase("ML-core datapath0 opcode2", 5000.0,
                      partial(build_ml_core_datapath0_opcode, 2), "medium"),
        BenchmarkCase("ML-core datapath0 (all opcodes)", 5000.0,
                      build_ml_core_datapath0_all, "medium"),
        BenchmarkCase("ML-core datapath2", 2500.0,
                      partial(build_ml_core_datapath2, lanes=8, width=16,
                              depth=4),
                      "medium"),
        BenchmarkCase("float32 fast rsqrt", 5000.0,
                      partial(build_float32_fast_rsqrt, newton_iterations=2),
                      "medium"),
        BenchmarkCase("video-core datapath", 2500.0,
                      partial(build_video_core_datapath, taps=5, width=16),
                      "large"),
        BenchmarkCase("internal datapath", 2500.0,
                      partial(build_internal_datapath, num_rounds=12),
                      "large"),
        BenchmarkCase("sha256", 2500.0,
                      partial(build_sha256, num_rounds=10), "large"),
        BenchmarkCase("fpexp 32", 5000.0,
                      partial(build_fpexp32, polynomial_degree=5,
                              num_segments=2),
                      "large"),
    ]


def suite_by_name(name: str) -> BenchmarkCase:
    """Look up a Table-I case by its exact row name.

    Raises:
        KeyError: if no case has that name.
    """
    for case in table1_suite():
        if case.name == name:
            return case
    raise KeyError(f"no benchmark named {name!r}")


def ablation_design(depth: int = 4, lanes: int = 8) -> tuple[DataflowGraph, float]:
    """The design used for the Fig. 5 / Fig. 6 extraction-strategy ablations.

    The paper runs its ablations on a single mid-size XLS design at a 400 MHz
    clock (2500 ps); a deeper variant of the ML-core datapath2 pipeline plays
    that role here.

    Returns:
        ``(graph, clock_period_ps)``.
    """
    graph = build_ml_core_datapath2(lanes=lanes, width=16, depth=depth)
    graph.name = "ablation_ml_core_datapath2"
    return graph, 2500.0
