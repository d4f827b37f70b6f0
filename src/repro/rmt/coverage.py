"""Fault coverage under redundant multithreading.

SRT's sphere of replication: all state computed redundantly — here, every
pipeline structure live injection can strike (IQ, ROB, LSQ, register
file, FUs) — is protected by comparison: a transient strike that corrupts
one copy's ACE state makes the streams diverge and is *detected* (a DUE,
detected unrecoverable error) instead of escaping as silent data
corruption.  State outside the sphere (the memory system) is conventionally
ECC-protected and is not part of this analysis.

The analysis reads the exact per-structure AVF of both runs of one
:class:`~repro.rmt.harness.RedundantRunResult` and reclassifies: the solo
run's AVF is its SDC rate, and inside the sphere the redundant pair's AVF
becomes its DUE rate.  The classic RMT picture emerges: the *event* rate
goes up (two copies expose roughly twice the ACE state, plus the machine
runs longer), while the *silent corruption* rate inside the sphere drops
to zero — reliability is bought with throughput (see
:mod:`repro.rmt.harness`) and error-handling rate, not magic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.avf.structures import Structure
from repro.faultinject.live import INJECTABLE
from repro.rmt.harness import RedundantRunResult

#: Structures inside SRT's sphere of replication (strike -> divergence ->
#: detection).  Everything live injection can strike is replicated
#: pipeline state.
SPHERE_OF_REPLICATION = frozenset(INJECTABLE)


@dataclass
class StructureCoverage:
    """Unprotected-vs-RMT outcome rates for one structure."""

    structure: Structure
    unprotected_sdc_rate: float   # solo run: strikes that silently corrupt
    protected_due_rate: float     # RMT run: strikes detected by comparison
    protected_sdc_rate: float     # RMT run: escapes (zero inside the sphere)


@dataclass
class CoverageResult:
    program: str
    structures: Dict[Structure, StructureCoverage] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"RMT coverage — {self.program} (exact ACE AVF)",
                 f"{'structure':<10} {'solo SDC':>9} {'RMT DUE':>9} {'RMT SDC':>9}"]
        for s, c in self.structures.items():
            lines.append(f"{s.value:<10} {c.unprotected_sdc_rate:9.4f} "
                         f"{c.protected_due_rate:9.4f} "
                         f"{c.protected_sdc_rate:9.4f}")
        return "\n".join(lines)


def coverage_analysis(run: RedundantRunResult,
                      structures: Sequence[Structure] = INJECTABLE
                      ) -> CoverageResult:
    """Strike outcome rates of ``run``: its unprotected solo run vs its
    SRT redundant pair, from each run's exact per-structure AVF."""
    result = CoverageResult(program=run.program)
    for s in structures:
        rmt_avf = run.redundant.avf.avf[s]
        inside = s in SPHERE_OF_REPLICATION
        result.structures[s] = StructureCoverage(
            structure=s,
            unprotected_sdc_rate=run.solo.avf.avf[s],
            protected_due_rate=rmt_avf if inside else 0.0,
            protected_sdc_rate=0.0 if inside else rmt_avf,
        )
    return result
