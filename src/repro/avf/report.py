"""Final AVF report: per-structure and per-thread vulnerability numbers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.avf.bits import structure_bits
from repro.avf.structures import FIGURE1_ORDER, PRIVATE_STRUCTURES, Structure

if TYPE_CHECKING:  # pragma: no cover
    from repro.avf.engine import AvfEngine

#: Payload key -> structure: ``Structure(k)`` goes through
#: ``Enum.__call__``, a cost every cached run pays several times over.
_BY_VALUE: Dict[str, Structure] = {s.value: s for s in Structure}


@dataclass
class AvfReport:
    """Reduced AVF results for one simulation.

    ``avf[s]`` is the structure's AVF in [0, 1]; ``thread_avf[s][t]`` is
    thread *t*'s contribution (shared structures: contributions sum to the
    structure AVF; private structures: the thread's own copy's AVF);
    ``utilization[s]`` is the occupied fraction of the structure.
    """

    cycles: int
    num_threads: int
    avf: Dict[Structure, float] = field(default_factory=dict)
    thread_avf: Dict[Structure, Dict[int, float]] = field(default_factory=dict)
    utilization: Dict[Structure, float] = field(default_factory=dict)
    bits: Dict[Structure, int] = field(default_factory=dict)

    @classmethod
    def from_engine(cls, engine: "AvfEngine", cycles: int) -> "AvfReport":
        report = cls(cycles=cycles, num_threads=engine.num_threads)
        for structure, account in engine.shared_accounts.items():
            report.avf[structure] = account.avf(cycles)
            report.utilization[structure] = account.utilization(cycles)
            report.thread_avf[structure] = {
                tid: account.thread_avf(tid, cycles)
                for tid in range(engine.num_threads)
            }
        for structure, per_thread in engine.private_accounts.items():
            avfs = {tid: acct.avf(cycles) for tid, acct in per_thread.items()}
            report.avf[structure] = (
                sum(avfs.values()) / len(avfs) if avfs else 0.0
            )
            report.thread_avf[structure] = avfs
            utils = [acct.utilization(cycles) for acct in per_thread.values()]
            report.utilization[structure] = sum(utils) / len(utils) if utils else 0.0
        for structure in Structure:
            report.bits[structure] = structure_bits(
                structure, engine.config, engine.num_threads
            )
        return report

    # -- aggregation --------------------------------------------------------------

    def processor_avf(self) -> float:
        """Whole-processor AVF: structure AVFs weighted by their bit counts.

        This is the Section 2 aggregation rule ("add the AVF values of all of
        the hardware structures together by weighting them by the number of
        bits within each structure").  The paper itself reports per-structure
        AVF; this aggregate is provided for completeness.
        """
        total_bits = sum(self.bits.values())
        if not total_bits:
            return 0.0
        weighted = sum(self.avf[s] * self.bits[s] for s in self.avf)
        return weighted / total_bits

    def pipeline_avf(self) -> float:
        """Bit-weighted AVF over the pipeline structures only (no caches/TLB)."""
        pipeline = [s for s in self.avf
                    if s not in (Structure.DL1_DATA, Structure.DL1_TAG, Structure.DTLB)]
        total_bits = sum(self.bits[s] for s in pipeline)
        if not total_bits:
            return 0.0
        return sum(self.avf[s] * self.bits[s] for s in pipeline) / total_bits

    # -- serialization -------------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict carrying the full report (see :meth:`from_payload`).

        Structures are keyed by their ``Structure.value`` string and thread
        ids by their decimal string, so the payload survives a JSON
        round-trip byte-exactly (Python floats serialise via shortest
        round-trip repr).
        """
        return {
            "cycles": self.cycles,
            "num_threads": self.num_threads,
            "avf": {s.value: v for s, v in self.avf.items()},
            "thread_avf": {
                s.value: {str(tid): v for tid, v in per.items()}
                for s, per in self.thread_avf.items()
            },
            "utilization": {s.value: v for s, v in self.utilization.items()},
            "bits": {s.value: v for s, v in self.bits.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AvfReport":
        """Inverse of :meth:`to_payload`."""
        return cls(
            cycles=int(payload["cycles"]),
            num_threads=int(payload["num_threads"]),
            avf={_BY_VALUE[k]: float(v) for k, v in payload["avf"].items()},
            thread_avf={
                _BY_VALUE[k]: {int(tid): float(v) for tid, v in per.items()}
                for k, per in payload["thread_avf"].items()
            },
            utilization={_BY_VALUE[k]: float(v)
                         for k, v in payload["utilization"].items()},
            bits={_BY_VALUE[k]: int(v) for k, v in payload["bits"].items()},
        )

    # -- presentation --------------------------------------------------------------

    def to_dict(self) -> Dict[str, float]:
        """Flat {structure name: AVF} mapping, in Figure 1 order."""
        out = {s.value: self.avf[s] for s in FIGURE1_ORDER if s in self.avf}
        if Structure.DTLB in self.avf:
            out[Structure.DTLB.value] = self.avf[Structure.DTLB]
        return out

    def format_table(self, title: Optional[str] = None) -> str:
        """Human-readable per-structure AVF/utilisation table."""
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{'structure':<10} {'AVF':>8} {'util':>8} "
                     + " ".join(f"{'t' + str(t):>7}" for t in range(self.num_threads)))
        for s in FIGURE1_ORDER + (Structure.DTLB,):
            if s not in self.avf:
                continue
            per_thread = " ".join(
                f"{self.thread_avf[s].get(t, 0.0):7.4f}" for t in range(self.num_threads)
            )
            lines.append(f"{s.value:<10} {self.avf[s]:8.4f} "
                         f"{self.utilization[s]:8.4f} {per_thread}")
        return "\n".join(lines)
