"""And-inverter graph (AIG) representation.

The paper's discussion section (Fig. 8) observes a strong linear correlation
between post-synthesis STA delay and AIG depth in ABC, and suggests AIG depth
as a cheaper feedback signal.  This package provides the AIG substrate needed
to reproduce that study: a structurally-hashed AIG, conversion from gate-level
netlists and depth computation (:meth:`Aig.depth`).
"""

from repro.aig.aig import Aig, AigNode, Literal, TRUE_LITERAL, FALSE_LITERAL
from repro.aig.from_netlist import netlist_to_aig

__all__ = [
    "Aig",
    "AigNode",
    "Literal",
    "TRUE_LITERAL",
    "FALSE_LITERAL",
    "netlist_to_aig",
]
