"""Synthetic RISC ISA used by the trace-driven SMT model.

The ISA carries exactly the information AVF analysis needs: the operation
class (which selects a functional unit and latency), the dataflow (source and
destination architectural registers), memory addresses for loads/stores, and
control flow for branches.  See DESIGN.md section 2 for why this substitutes
for the Alpha ISA used by M-Sim.
"""

from repro.isa.opcodes import OpClass, FUType
from repro.isa.instruction import DynInstr, AceClass

__all__ = [
    "OpClass",
    "FUType",
    "DynInstr",
    "AceClass",
]
