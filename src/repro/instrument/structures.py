"""The microarchitecture structures whose vulnerability the paper profiles.

Figure 1 groups them as *shared pipeline structures* (IQ, FU, register
file), *shared memory structures* (DL1 data, DL1 tag, DTLB) and *non-shared
(per-thread) structures* (ROB, LSQ data, LSQ tag).

This is the canonical home of the :class:`Structure` enum: the probe layer
(`repro.instrument`) must stay importable without pulling in the AVF maths,
so the enum lives here and :mod:`repro.avf.structures` re-exports it.
"""

from __future__ import annotations

from enum import Enum


class Structure(Enum):
    """AVF-tracked hardware structures (paper Figures 1–8)."""

    IQ = "IQ"
    FU = "FU"
    REG = "Reg"
    DL1_DATA = "DL1_data"
    DL1_TAG = "DL1_tag"
    DTLB = "DTLB"
    ROB = "ROB"
    LSQ_DATA = "LSQ_data"
    LSQ_TAG = "LSQ_tag"

    # Identity hashing, consistent with Enum's identity equality: the
    # ledger's per-event account lookup hashes in C, not in Enum.__hash__.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


#: Structures physically shared by all SMT contexts: one copy in the machine,
#: per-thread contributions sum to the structure's AVF.
SHARED_STRUCTURES = frozenset({
    Structure.IQ, Structure.FU, Structure.REG,
    Structure.DL1_DATA, Structure.DL1_TAG, Structure.DTLB,
})

#: Per-thread (replicated) structures: each context owns a private copy; the
#: reported structure AVF is the mean over the active contexts.
PRIVATE_STRUCTURES = frozenset({
    Structure.ROB, Structure.LSQ_DATA, Structure.LSQ_TAG,
})

#: Structures whose every residency event flows through the probe bus.
#: The cache/TLB structures accrue via aggregate observer samples instead,
#: so neither the interval recorder nor replay audits can cover them.
PROBE_STRUCTURES = (
    Structure.IQ, Structure.ROB, Structure.LSQ_TAG,
    Structure.LSQ_DATA, Structure.REG, Structure.FU,
)

#: Figure 1 display order.
FIGURE1_ORDER = (
    Structure.IQ, Structure.FU, Structure.REG,
    Structure.DL1_DATA, Structure.DL1_TAG,
    Structure.ROB, Structure.LSQ_DATA, Structure.LSQ_TAG,
)
