"""repro: a reproduction of ISDC, feedback-guided iterative SDC scheduling for HLS.

The package is organised by subsystem (see DESIGN.md for the full inventory):

* :mod:`repro.ir` -- the word-level HLS dataflow-graph IR.
* :mod:`repro.tech` -- technology characterisation (cell library, operator model).
* :mod:`repro.netlist` -- gate-level lowering, logic optimisation, STA.
* :mod:`repro.aig` -- and-inverter graphs (depth feedback, Fig. 8).
* :mod:`repro.synth` -- the downstream "logic synthesis + STA" flow.
* :mod:`repro.sdc` -- baseline SDC scheduling (Cong & Zhang / XLS formulation).
* :mod:`repro.isdc` -- the paper's contribution: the feedback-guided loop.
* :mod:`repro.designs` -- the 17-design Table-I benchmark suite.
* :mod:`repro.experiments` -- harnesses regenerating every table and figure.

Quickstart::

    from repro.designs import build_crc32
    from repro.isdc import IsdcConfig, IsdcScheduler

    result = IsdcScheduler(IsdcConfig(clock_period_ps=2500)).schedule(build_crc32())
    print(result.initial_report.num_registers, "->", result.final_report.num_registers)
"""

from repro.ir import DataflowGraph, GraphBuilder, OpKind
from repro.isdc import IsdcConfig, IsdcScheduler
from repro.sdc import PipelineAnalyzer, Schedule, SdcScheduler
from repro.synth import (
    EstimatorBackend,
    FlowBackend,
    SynthesisFlow,
    create_backend,
)

__version__ = "0.2.0"

__all__ = [
    "DataflowGraph",
    "EstimatorBackend",
    "FlowBackend",
    "GraphBuilder",
    "OpKind",
    "IsdcConfig",
    "IsdcScheduler",
    "PipelineAnalyzer",
    "Schedule",
    "SdcScheduler",
    "SynthesisFlow",
    "create_backend",
    "__version__",
]
