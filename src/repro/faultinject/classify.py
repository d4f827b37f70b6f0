"""Differential classification machinery for live fault injection.

A live strike is classified by *differencing* the faulty run against a
golden (fault-free) run of the same workload:

* :class:`DigestRecorder` — a probe-bus observer that folds every commit
  into an *architectural digest*.  The simulator is trace-driven and
  carries no data values, so corruption is modelled as taint
  (``DynInstr.value_tag``, see :mod:`repro.structures.strike`); the digest
  is the canonical record of where taint reached architecturally required
  state: committed control flow, the committed store stream, final
  architectural registers, and memory words.  A fault-free run's digest is
  provably *clean* (taint-empty), so a faulty run whose digest equals the
  golden one is **masked** and any mismatch is **SDC**.

  Commit *counts* are deliberately excluded from the digest: a purely
  timing-visible fault shifts which instruction the shared budget cuts the
  run off at, which would misclassify timing noise as corruption.

* :class:`Watchdog` — a per-cycle observer that bounds the faulty run:
  a hard cycle budget derived from the golden run's length, plus a
  forward-progress check (committed instructions must grow every
  ``progress_window`` cycles).  Either trip raises
  :class:`~repro.errors.HangDetected`, which the strike runner converts to
  the **hang** outcome; no strike can wedge a campaign.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

from repro.errors import HangDetected


class DigestRecorder:
    """Folds commits into the run's architectural digest (taint summary).

    Subscribes to ``on_commit``/``on_finalize`` only — it implements no
    part of the residency protocol, so attaching it preserves the probe
    bus's single-residency-subscriber fast path.
    """

    def __init__(self) -> None:
        # (thread, arch reg) -> taint of its last committed writer.  Kept
        # free of zero entries so a clean run's dict stays empty: a clean
        # overwrite *removes* stale taint (dynamically-dead masking).
        self._arch: Dict[Tuple[int, int], int] = {}
        self._mem: Dict[int, int] = {}
        self.tainted_control = 0
        self.tainted_stores = 0
        self.pending_taint = 0
        self.finalized = False

    # -- probe-bus hooks ---------------------------------------------------------

    def on_commit(self, core, instr) -> None:
        tag = instr.value_tag
        if instr.dest_reg is not None:
            key = (instr.thread_id, instr.dest_reg)
            if tag:
                self._arch[key] = tag
            elif key in self._arch:
                del self._arch[key]
        if tag:
            if instr.is_control:
                # A corrupted input to committed control flow: the real
                # machine's direction/target could have diverged.
                self.tainted_control += 1
            if instr.is_store:
                # Corrupted store data was exposed to the memory system
                # even if a later clean store overwrites the word.
                self.tainted_stores += 1

    def on_finalize(self, core) -> None:
        self._mem = {addr: tag for addr, tag in core.mem_tags.items() if tag}
        # Taint still in flight when the shared budget ended the run is
        # bound for architectural state — the ACE ledger's drain counts
        # that residency as ACE, so the digest must see it too.  The core
        # zeroes all trace tags at construction (taint mode), so any
        # nonzero tag here was planted by this run.
        self.pending_taint = sum(
            1
            for thread in core.threads
            for instr in thread.trace.instrs
            if instr.value_tag and instr.is_ace
            and instr.fetched_at >= 0 and instr.committed_at < 0)
        self.finalized = True

    def fork(self) -> "DigestRecorder":
        """An independent copy (for a fork of the core it observes)."""
        clone = DigestRecorder.__new__(DigestRecorder)
        clone.__dict__.update(self.__dict__)
        clone._arch = dict(self._arch)
        clone._mem = dict(self._mem)
        return clone

    # -- digest ------------------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no taint ever reached architectural state."""
        return not (self._arch or self._mem or self.pending_taint
                    or self.tainted_control or self.tainted_stores)

    def digest(self) -> str:
        """Canonical hash of the architectural taint state."""
        payload = {
            "arch": sorted(
                (tid, reg, tag) for (tid, reg), tag in self._arch.items()),
            "mem": sorted(self._mem.items()),
            "control": self.tainted_control,
            "stores": self.tainted_stores,
            "pending": self.pending_taint,
        }
        blob = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Watchdog:
    """Per-cycle hang detector for one faulty run.

    ``cycle_limit`` is absolute (the golden run's cycle count scaled by
    the campaign's budget factor, plus slack); ``progress_window`` bounds
    how long total committed instructions may stay flat — a struck
    scheduler bit typically stalls one thread while the others drain, so
    the progress check fires long before the cycle budget does.
    """

    def __init__(self, cycle_limit: int, progress_window: int = 0) -> None:
        self.cycle_limit = cycle_limit
        self.progress_window = progress_window
        self._last_committed = -1
        self._next_check = progress_window

    def fork(self) -> "Watchdog":
        clone = Watchdog.__new__(Watchdog)
        clone.__dict__.update(self.__dict__)
        return clone

    def on_cycle(self, core) -> None:
        if core.cycle >= self.cycle_limit:
            raise HangDetected(core.cycle, core.total_committed,
                               f"exceeded cycle budget {self.cycle_limit}")
        if not self.progress_window or core.cycle < self._next_check:
            return
        if core.total_committed == self._last_committed:
            raise HangDetected(
                core.cycle, core.total_committed,
                f"no commit in {self.progress_window} cycles")
        self._last_committed = core.total_committed
        self._next_check = core.cycle + self.progress_window
