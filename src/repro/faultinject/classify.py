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

* :class:`DataflowLog` and :class:`TaintReplay` — the golden run's
  dataflow, and the replay of one taint-only strike's taint over it,
  which decides SDC or MASKED exactly as the digest of its faulty run
  would, without running one.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.errors import HangDetected
from repro.pipeline.core import FLOW_ISSUE, FLOW_WRITEBACK


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
            if instr.op.is_control:
                # A corrupted input to committed control flow: the real
                # machine's direction/target could have diverged.
                self.tainted_control += 1
            if instr.op.is_store:
                # Corrupted store data was exposed to the memory system
                # even if a later clean store overwrites the word.
                self.tainted_stores += 1

    def on_finalize(self, core) -> None:
        self._mem = {addr: tag for addr, tag in core.mem_tags.items() if tag}
        # Taint still in flight when the shared budget ended the run is
        # bound for architectural state — the ACE ledger's drain counts
        # that residency as ACE, so the digest must see it too.
        self.pending_taint = sum(1 for instr in core.unretired
                                 if instr.value_tag and instr.is_ace)
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


# -- taint-only strikes: replay the golden run's dataflow ------------------------
#
# A strike that wrote only taint changes no kernel decision (no stage reads a
# tag), so its run is the golden run cycle for cycle: the same instances
# issue, write back and commit in the same order.  Only where the taint goes
# differs, and the golden run's dataflow log says where it can go.


class DataflowLog:
    """The golden run's dataflow: its ``SMTCore.flow_log`` events, in cycle
    and stage order, and the instances whose taint finalize would count as
    pending (the ACE ones in ``SMTCore.unretired``), each
    ``(thread, fetch_stamp)``."""

    __slots__ = ("events", "pending", "_cycles")

    def __init__(self, events: List[tuple], pending: FrozenSet) -> None:
        self.events = events
        self.pending = pending
        self._cycles = [event[0] for event in events]

    @classmethod
    def of(cls, core) -> "DataflowLog":
        """The log ``core`` recorded, once its run has finished."""
        return cls(core.flow_log, frozenset(
            (instr.thread_id, instr.fetch_stamp)
            for instr in core.unretired if instr.is_ace))

    def after(self, cycle: int) -> Iterator[tuple]:
        """Every event of the cycles after ``cycle``."""
        return islice(self.events, bisect_right(self._cycles, cycle), None)


class TaintReplay:
    """Where one strike's taint is, event by event.

    ``TaintReplay(victim).run(log, cycle)`` decides a taint-only strike on
    ``victim`` — an instance or a physical register, struck after cycle
    ``cycle``'s hooks — as the digest of its faulty run would: True for
    SDC, False for MASKED.  Each rule takes one event and returns True
    (SDC), False (MASKED: no instance, register or architectural register
    holds taint any more, and taint only spreads from taint) or None
    (undecided).

    Three things the faulty run does to taint need no rule, because no
    outcome depends on them:

    * memory: with one strike, a tainted memory word can only come from a
      tainted store commit, which already decided SDC;
    * store-to-load forwarding: a correct-path store is always ACE and is
      older than the loads it feeds, so a tainted one commits (SDC before
      any of them can), stays pending at the end (SDC), or is squashed
      together with them;
    * squashes: a squashed instance never issues, writes back or commits
      again, and is never pending (it is not ACE, ``DynInstr.is_ace``); a
      register it frees is written again before anything reads it.
    """

    def __init__(self, victim) -> None:
        self.instances: Set[Tuple[int, int]] = set()
        self.registers: Set[int] = set()
        self.arch: Set[Tuple[int, int]] = set()
        if isinstance(victim, int):
            self.registers.add(victim)
        else:
            self.instances.add(victim)

    def run(self, log: DataflowLog, cycle: int) -> bool:
        for event in log.after(cycle):
            kind = event[1]
            if kind == FLOW_ISSUE:
                verdict = self.issue(event)
            elif kind == FLOW_WRITEBACK:
                verdict = self.writeback(event)
            else:
                verdict = self.commit(event)
            if verdict is not None:
                return verdict
        return self.at_end(log.pending)

    def _masked(self) -> Optional[bool]:
        if self.instances or self.registers or self.arch:
            return None
        return False

    def issue(self, event: tuple) -> Optional[bool]:
        """An instruction reads a tainted source register."""
        _, _, instance, sources = event
        if self.registers and not self.registers.isdisjoint(sources):
            self.instances.add(instance)
        return None

    def writeback(self, event: tuple) -> Optional[bool]:
        """The result replaces the register's contents, taint and all."""
        _, _, instance, phys = event
        if instance in self.instances:
            self.registers.add(phys)
            return None
        self.registers.discard(phys)
        return self._masked()

    def commit(self, event: tuple) -> Optional[bool]:
        """Tainted control flow or store data is SDC; otherwise the
        instruction leaves the pipeline, its result (tainted or clean)
        becomes architectural and its destination's previous register is
        freed."""
        _, _, instance, thread, dest, control, store, old_phys = event
        if instance in self.instances:
            if control or store:
                return True
            self.instances.discard(instance)
            if dest is not None:
                self.arch.add((thread, dest))
        elif dest is not None:
            self.arch.discard((thread, dest))
        if old_phys is not None:
            self.registers.discard(old_phys)
        return self._masked()

    def at_end(self, pending: FrozenSet) -> bool:
        """The final digest: a tainted architectural register, or taint on
        an instance still bound for architectural state."""
        return bool(self.arch) or not self.instances.isdisjoint(pending)


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
