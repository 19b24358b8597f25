"""repro.kernel: the unified vectorized graph/timing kernel.

One shared, array-based timing substrate queried by every layer that used to
hand-roll its own dict/set traversal: the IR analyses (:mod:`repro.ir`), the
SDC delay matrix (:mod:`repro.sdc.delays`), the ISDC re-propagation and
extraction scans (:mod:`repro.isdc`), the estimator backend
(:mod:`repro.synth`) and the AIG depth metric (:mod:`repro.aig`).  The
netlist STA (:mod:`repro.netlist.sta`) needs none of it: a netlist's ids are
already topological, so it is one in-order sweep over the gate lists.

* :class:`GraphView` -- an immutable levelized-CSR view of any DAG, cached on
  the container and keyed by its ``structural_version`` counter: any
  structural edit means the next query rebuilds the view from scratch.
* :mod:`repro.kernel.ops` -- level-batched numpy primitives: forward
  propagation, single-source longest paths, frontier reachability and the
  all-pairs critical-path matrix, one dense sweep whose memory is O(n^2).

The historical pure-Python algorithms, kept as the executable specification
the parity tests diff against, live in ``tests/kernel/reference.py``.

Kernel timings live in ``benchmarks/test_speedup_gates.py`` (reference vs
kernel) and in the end-to-end benchmark described in
``perfbench/README.md``.
"""

from repro.kernel.ops import (
    NOT_CONNECTED,
    UNREACHED,
    critical_path_matrix,
    forward_propagate,
    longest_path_from,
    path_delay,
    reachable_indices,
    reachable_mask,
    reconstruct_path,
)
from repro.kernel.view import GraphView

# perfbench/layers.py wraps the all-pairs sweep under this name.
auto_critical_path_matrix = critical_path_matrix

__all__ = [
    "GraphView",
    "NOT_CONNECTED",
    "UNREACHED",
    "auto_critical_path_matrix",
    "critical_path_matrix",
    "forward_propagate",
    "longest_path_from",
    "path_delay",
    "reachable_indices",
    "reachable_mask",
    "reconstruct_path",
]
