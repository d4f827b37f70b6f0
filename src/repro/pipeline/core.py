"""The SMT pipeline cycle loop.

Stage order within a cycle (oldest work first, as in M-Sim):
commit -> writeback -> issue -> rename/dispatch -> fetch.  A value written
back in cycle *c* can feed an issue in the same cycle (full forwarding);
a committed instruction vacates its ROB/LSQ entries for the same cycle's
dispatch.

Squash machinery is shared between branch-misprediction recovery and the
FLUSH fetch policy: both rewind a thread to a boundary instruction, undo
renames in reverse order, and reset the thread's trace fetch pointer —
materialised traces make replay exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig, SimConfig
from repro.errors import SimulationError, StructureError
from repro.fetch.base import FetchPolicy
from repro.instrument import Instrumentation, Structure
from repro.isa.instruction import DynInstr, InstrRemap
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.frontend import DECODE_BUFFER_ENTRIES, ThreadContext
from repro.structures.functional_units import FunctionalUnitPool
from repro.structures.issue_queue import SharedIssueQueue
from repro.structures.regfile import PhysicalRegisterFile
from repro.workload.generator import ThreadTrace

#: Completion event: (instr, fetch_stamp at schedule time, dl1 miss, l2 miss).
_Event = Tuple[DynInstr, int, bool, bool]

# Dataflow log event kinds (see ``SMTCore.flow_log``).  An instance is
# ``(thread, fetch_stamp)``: a squashed-and-refetched instruction, and every
# wrong-path one, is an instance of its own.
#: ``(cycle, FLOW_ISSUE, instance, source phys regs)``, ``None`` ones left out.
FLOW_ISSUE = 0
#: ``(cycle, FLOW_WRITEBACK, instance, phys_dest)``.
FLOW_WRITEBACK = 1
#: ``(cycle, FLOW_COMMIT, instance, thread, dest_reg, is_control, is_store,
#: old_phys_dest)``.
FLOW_COMMIT = 2

_PREFETCH = OpClass.PREFETCH


class SMTCore:
    """One simulated SMT processor executing a set of thread traces.

    The core is observer-agnostic: all residency accounting flows through
    ``instruments.probe`` (a :class:`~repro.instrument.ResidencyProbe`),
    and per-cycle/lifecycle observers (auditor, phase tracker, trace
    writer) arrive as pre-resolved hook tuples on the same
    :class:`~repro.instrument.Instrumentation` container.  Wiring lives in
    :class:`repro.sim.session.SimSession` — the core never imports
    ``repro.avf`` or ``repro.audit``.
    """

    def __init__(self, traces: List[ThreadTrace], config: MachineConfig,
                 policy: FetchPolicy, sim: SimConfig,
                 instruments: Instrumentation) -> None:
        self.config = config
        self.policy = policy
        self.sim = sim
        self.num_threads = len(traces)
        self.instruments = instruments
        probe = instruments.probe
        self.mem = MemoryHierarchy(config,
                                   dl1_observer=instruments.dl1_observer,
                                   dtlb_observer=instruments.dtlb_observer)
        self.threads = [
            ThreadContext(tid, trace, config, probe, sim.seed)
            for tid, trace in enumerate(traces)
        ]
        self._iq = SharedIssueQueue(config.iq_entries, probe)
        # Physical file = per-thread architectural backing + shared rename
        # pool (M-Sim sizing); see MachineConfig.int_phys_regs.
        from repro.workload.generator import NUM_FP_REGS, NUM_INT_REGS
        self._regfile = PhysicalRegisterFile(
            config.int_phys_regs + NUM_INT_REGS * self.num_threads,
            config.fp_phys_regs + NUM_FP_REGS * self.num_threads,
            self.num_threads, probe)
        self._fu_pool = FunctionalUnitPool(config, probe)
        self._events: Dict[int, List[_Event]] = {}
        # Issue wakeup: phys reg -> [(instr, stamp), ...] waiting on it.
        self._waiters: Dict[int, List[Tuple[DynInstr, int]]] = {}

        self.cycle = 0
        self.total_committed = 0
        self._commit_rr = 0
        self._dispatch_rr = 0
        # Round-robin orders are pure functions of (counter % n): precompute
        # all n rotations instead of building a fresh list twice per cycle.
        self._rotations: List[List[int]] = [
            [(start + i) % self.num_threads for i in range(self.num_threads)]
            for start in range(self.num_threads)
        ]
        self._cycle_hooks = instruments.cycle_hooks
        self._commit_hooks = instruments.commit_hooks
        # Value-taint propagation (live fault injection).  Off by default:
        # a normal run pays one falsy check per issue/writeback/commit.
        self._taint = instruments.taint
        # Taint of committed memory words (8-byte aligned); empty while the
        # run is clean, so golden runs allocate nothing here.
        self.mem_tags: Dict[int, int] = {}
        #: The dataflow log: a list a taint-mode run appends its ``FLOW_*``
        #: events to, in cycle and stage order, while it is set.  Only the
        #: live-injection golden run sets it; every other run leaves it None.
        self.flow_log: Optional[List[tuple]] = None
        #: The instructions still in flight when the run ended (each
        #: thread's ROB, then its decode queue), taken before the drain
        #: empties the ROBs; empty until then.
        self.unretired: Tuple[DynInstr, ...] = ()

        # Statistics.
        self.mispredict_squashes = 0
        self.dispatched_total = 0
        self.writebacks_total = 0
        self.measure_start_cycle = 0
        self._warmup_done = sim.warmup_instructions == 0
        self._committed_at_measure_start = [0] * self.num_threads

    @property
    def engine(self):
        """The residency ledger exposed for reporting and audits (None in
        a ledger-free session)."""
        return self.instruments.ledger

    # -- public queries used by fetch policies -----------------------------------------

    def thread(self, tid: int) -> ThreadContext:
        return self.threads[tid]

    def in_flight_count(self, tid: int) -> int:
        """Front-end plus issue-queue instructions (ICOUNT's metric)."""
        return self.threads[tid].front_end_count() + self._iq.thread_count(tid)

    def fetchable_threads(self) -> List[int]:
        """Threads that could accept fetch bandwidth this cycle: not
        fetch-exhausted (so not finished either), not stalled, with
        decode-queue room.  The properties are inlined: this runs every
        cycle."""
        cycle = self.cycle
        return [
            t.id for t in self.threads
            if (t.wrong_path or t.fetch_index < len(t.trace.instrs))
            and t.fetch_blocked_until <= cycle
            and len(t.decode_queue) < DECODE_BUFFER_ENTRIES
        ]

    @property
    def issue_queue(self) -> SharedIssueQueue:
        return self._iq

    @property
    def regfile(self) -> PhysicalRegisterFile:
        return self._regfile

    @property
    def fu_pool(self) -> FunctionalUnitPool:
        return self._fu_pool

    # -- main loop ------------------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> Optional[int]:
        """Simulate until the instruction budget or all traces complete.

        Returns the number of measured cycles (post-warmup).  With
        ``until``, the run pauses once cycle ``until``'s hooks have run
        (or at once, if the core is already there) and returns None
        without draining or finalizing; a later call resumes it.  A run
        that completes before cycle ``until`` finishes normally.  The
        drain at the end feeds the residency observers, so a run nothing
        observes residency of (a ledger-free session) skips it.

        Every cycle hook runs on every simulated cycle.  After a cycle in
        which no stage changed any state, the core jumps to the cycle
        before the next one in which anything can happen, the stages' or
        a hook's (:meth:`_skip_idle`).  The result is exactly the stepped
        run's.
        """
        while until is None or self.cycle < until:
            if self._done():
                break
            self.cycle += 1
            if self.cycle > self.sim.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.sim.max_cycles} "
                    f"(committed {self.total_committed})"
                )
            self.mem.begin_cycle(self.cycle)
            active = (self._commit() + self._writeback() + self._issue()
                      + self._fu_pool.tick(self.cycle))
            active += self._rename_dispatch() + self._fetch()
            for hook in self._cycle_hooks:
                hook.on_cycle(self)
            if not active:
                self._skip_idle(until)
        else:
            return None  # paused after cycle ``until``
        self.unretired = tuple(
            instr for t in self.threads
            for instr in (*t.rob, *(i for _, i in t.decode_queue)))
        if self.instruments.observes_residency:
            self._drain()
        for hook in self.instruments.finalize_hooks:
            hook.on_finalize(self)
        return self.measured_cycles

    @property
    def measured_cycles(self) -> int:
        measured = self.cycle - self.measure_start_cycle
        if measured <= 0:
            # A run that ends inside (or exactly at the end of) its timing
            # warmup has no measurement window; clamping to one fake cycle
            # here used to mis-report IPC and AVF silently.
            raise SimulationError(
                f"empty measurement window: the run ended at cycle "
                f"{self.cycle} but measurement started at cycle "
                f"{self.measure_start_cycle} (warmup_instructions="
                f"{self.sim.warmup_instructions} of max_instructions="
                f"{self.sim.max_instructions}); lower the warmup or raise "
                f"the budget")
        return measured

    def committed_in_window(self, tid: int) -> int:
        return self.threads[tid].committed - self._committed_at_measure_start[tid]

    def _done(self) -> bool:
        if self.total_committed >= self.sim.max_instructions:
            return True
        return all(t.finished for t in self.threads)

    # -- idle-cycle skipping ---------------------------------------------------------------

    def _skip_idle(self, until: Optional[int]) -> None:
        """Jump over the cycles after an idle one in which nothing can happen.

        Called after a cycle in which no stage changed any state: nothing
        committed, wrote back, issued, freed a functional unit, dispatched,
        fetched or stalled on a fetch.  Every later cycle repeats it until
        one of the time conditions in :meth:`_next_wake` comes due, so the
        core goes straight to the cycle before that wake (capped at
        ``until`` and at ``max_cycles``), doing what each skipped cycle
        would have done: the round-robin counters advance, the FU pool
        charges its busy ticks, and the fetch policy is told
        (``on_idle_cycles``).  No cycle hook could act before its wake.
        """
        last = self._next_wake() - 1
        if until is not None and until < last:
            last = until
        if self.sim.max_cycles < last:
            last = self.sim.max_cycles
        skipped = last - self.cycle
        if skipped <= 0:
            return
        self._fu_pool.tick_span(self.cycle + 1, last)
        self._commit_rr += skipped
        self._dispatch_rr += skipped
        self.cycle = last
        self.policy.on_idle_cycles(self, skipped)

    def _next_wake(self) -> int:
        """The earliest cycle after an idle one whose work can differ: a
        writeback event, a ROB head's completion + 1 (commit), a decode
        queue head coming ready (dispatch), a fetch stall ending, or a busy
        functional unit freeing (issue), or a cycle hook's next wake.  Past
        the cycle budget if none.

        A decode-queue head already ready, or a thread free to fetch, was
        held back by a resource or the policy, which only an active cycle
        can change; so only future times are wakes.  A hook's wake at or
        before this cycle stands for the next cycle: no jump."""
        cycle = self.cycle
        wakes = [hook.next_wake(cycle) for hook in self._cycle_hooks]
        wakes.extend(self._events)
        for t in self.threads:
            head = t.rob.head()
            if head is not None and head.completed_at >= 0:
                wakes.append(head.completed_at + 1)
            if t.decode_queue and t.decode_queue[0][0] > cycle:
                wakes.append(t.decode_queue[0][0])
            if t.fetch_blocked_until > cycle:
                wakes.append(t.fetch_blocked_until)
        release = self._fu_pool.next_release()
        if release is not None:
            wakes.append(release)
        return min(wakes, default=self.sim.max_cycles + 1)

    # -- commit ------------------------------------------------------------------------------

    def _commit(self) -> int:
        """Retire completed ROB heads; returns how many committed."""
        budget = self.config.commit_width
        order = self._rotated(self._commit_rr)
        self._commit_rr += 1
        for tid in order:
            t = self.threads[tid]
            while budget > 0:
                head = t.rob.head()
                if head is None or head.completed_at < 0 or head.completed_at >= self.cycle:
                    break
                op = head.op
                if op.is_store and not head.wrong_path:
                    if not self.mem.claim_dl1_port():
                        break
                    self.mem.data_access(head.mem_addr, self.cycle, tid, is_write=True)
                t.rob.pop_head(self.cycle)
                if op.is_memory:
                    t.lsq.remove_committed(head, self.cycle)
                self._regfile.on_commit(head, self.cycle)
                head.committed_at = self.cycle
                if self._taint:
                    if op.is_store and not head.wrong_path:
                        addr = head.mem_addr & ~0x7
                        if head.value_tag:
                            self.mem_tags[addr] = head.value_tag
                        else:
                            # A clean store overwrites tainted memory: masked.
                            self.mem_tags.pop(addr, None)
                    if self.flow_log is not None:
                        self.flow_log.append((
                            self.cycle, FLOW_COMMIT, (tid, head.fetch_stamp),
                            tid, head.dest_reg, op.is_control,
                            op.is_store, head.old_phys_dest))
                if self._commit_hooks:
                    for hook in self._commit_hooks:
                        hook.on_commit(self, head)
                t.committed += 1
                self.total_committed += 1
                budget -= 1
                self._maybe_end_warmup()
        return self.config.commit_width - budget

    def _maybe_end_warmup(self) -> None:
        if self._warmup_done or self.total_committed < self.sim.warmup_instructions:
            return
        self._warmup_done = True
        self.measure_start_cycle = self.cycle
        for hook in self.instruments.reset_hooks:
            hook.on_reset(self.cycle)
        self._committed_at_measure_start = [t.committed for t in self.threads]

    # -- writeback -----------------------------------------------------------------------------

    def _writeback(self) -> bool:
        """Complete this cycle's events; True if there were any."""
        events = self._events.pop(self.cycle, None)
        if events is None:
            return False
        for instr, stamp, dl1_miss, l2_miss in events:
            self.writebacks_total += 1
            t = self.threads[instr.thread_id]
            # Miss counters were claimed by this issue instance: always release.
            if dl1_miss:
                t.outstanding_l1d -= 1
            if l2_miss:
                t.outstanding_l2 -= 1
            if instr.squashed or instr.fetch_stamp != stamp:
                continue  # stale event from a squashed-and-refetched instance
            op = instr.op
            if op.is_load or op is _PREFETCH:
                self.policy.on_load_resolved(self, instr)
            instr.completed_at = self.cycle
            if instr.phys_dest is not None:
                if self._taint:
                    self._regfile.mark_written(instr.phys_dest, self.cycle,
                                               instr.value_tag)
                    if self.flow_log is not None:
                        self.flow_log.append((
                            self.cycle, FLOW_WRITEBACK,
                            (instr.thread_id, instr.fetch_stamp),
                            instr.phys_dest))
                else:
                    self._regfile.mark_written(instr.phys_dest, self.cycle)
                self._wake_waiters(instr.phys_dest)
            if op.is_control:
                self._resolve_control(t, instr)
        return True

    def _wake_waiters(self, phys: int) -> None:
        """Producer wrote back: decrement its consumers' pending counts."""
        waiters = self._waiters.pop(phys, None)
        if not waiters:
            return
        for consumer, stamp in waiters:
            # Stale records (squashed or squashed-and-refetched consumers)
            # are ignored; a refetched instance re-registers at rename.
            if consumer.fetch_stamp == stamp and not consumer.squashed:
                consumer.pending_srcs -= 1

    def _resolve_control(self, t: ThreadContext, instr: DynInstr) -> None:
        mispredicted = t.branch_unit.resolve(instr, instr.prediction)
        if not mispredicted:
            return
        self.mispredict_squashes += 1
        self.squash_after(instr)
        t.wrong_path = False
        t.pending_branch = None
        # The redirect abandons any in-flight wrong-path I-cache miss.
        t.fetch_blocked_until = self.cycle + 1

    # -- squash (shared by mispredict recovery and FLUSH) ---------------------------------------

    def squash_after(self, boundary: DynInstr) -> None:
        """Squash everything ``boundary``'s thread fetched after it."""
        if boundary.wrong_path:
            raise SimulationError("squash boundary must be a correct-path instruction")
        t = self.threads[boundary.thread_id]
        stamp = boundary.fetch_stamp
        for dropped in t.drop_decoded_younger_than(stamp):
            self.policy.on_squash(self, dropped)
        self._iq.squash_thread(t.id, stamp, self.cycle)
        t.lsq.squash_younger_than(stamp, self.cycle)
        for squashed in t.rob.squash_younger_than(stamp, self.cycle):
            self._regfile.on_squash(squashed, self.cycle)
            self.policy.on_squash(self, squashed)
        t.fetch_index = boundary.seq + 1
        if t.pending_branch is not None and t.pending_branch.fetch_stamp > stamp:
            t.pending_branch = None
            t.wrong_path = False

    # -- issue ------------------------------------------------------------------------------------

    def _issue(self) -> int:
        """Issue ready IQ entries oldest first; returns how many issued."""
        budget = self.config.issue_width
        fu_pool = self._fu_pool
        for instr in self._iq.entries():
            if budget == 0:
                break
            if instr.squashed or instr.pending_srcs > 0:
                continue
            op = instr.op
            if not fu_pool.can_issue(op):
                continue
            if op.is_load or op is _PREFETCH:
                if not self._issue_load(instr):
                    continue
            elif op.is_store:
                self._schedule(instr, self.config.agen_latency + 1, False, False)
            else:
                self._schedule(instr, fu_pool.latency_of(op), False, False)
            fu_pool.issue(instr, self.cycle)
            ace = instr.is_ace
            for phys in instr.phys_srcs:
                self._regfile.note_read(phys, self.cycle, ace)
            if self._taint:
                for phys in instr.phys_srcs:
                    if phys is not None:
                        instr.value_tag |= self._regfile.tag_of(phys)
                if self.flow_log is not None:
                    self.flow_log.append((
                        self.cycle, FLOW_ISSUE,
                        (instr.thread_id, instr.fetch_stamp),
                        tuple(p for p in instr.phys_srcs if p is not None)))
            instr.issued_at = self.cycle
            self._iq.remove_issued(instr, self.cycle)
            budget -= 1
        return self.config.issue_width - budget

    def _issue_load(self, instr: DynInstr) -> bool:
        """Schedule a load/prefetch; False when it cannot issue this cycle."""
        t = self.threads[instr.thread_id]
        store = t.lsq.forwarding_store(instr)
        if store is not None:
            if store.completed_at < 0:
                return False  # wait for the store's data
            t.lsq.forwards += 1
            if self._taint:
                instr.value_tag |= store.value_tag
            self._schedule(instr, self.config.agen_latency + 1, False, False)
            return True
        if not self.mem.claim_dl1_port():
            return False
        if self._taint and self.mem_tags:
            instr.value_tag |= self.mem_tags.get(instr.mem_addr & ~0x7, 0)
        result = self.mem.data_access(instr.mem_addr, self.cycle + 1,
                                      instr.thread_id, is_write=False)
        instr.dl1_missed = result.dl1_miss
        instr.l2_missed = result.l2_miss
        if result.dl1_miss:
            t.outstanding_l1d += 1
        if result.l2_miss:
            t.outstanding_l2 += 1
            if not instr.wrong_path:
                self.policy.on_l2_miss(self, instr)
        self._schedule(instr, self.config.agen_latency + result.latency,
                       result.dl1_miss, result.l2_miss)
        return True

    def _schedule(self, instr: DynInstr, latency: int,
                  dl1_miss: bool, l2_miss: bool) -> None:
        when = self.cycle + max(latency, 1)
        bucket = self._events.get(when)
        if bucket is None:
            bucket = self._events[when] = []
        bucket.append((instr, instr.fetch_stamp, dl1_miss, l2_miss))

    # -- rename / dispatch ----------------------------------------------------------------------------

    def _rename_dispatch(self) -> int:
        """Rename and dispatch ready decode-queue heads; returns how many."""
        budget = self.config.issue_width
        iq_partition = (self.config.iq_entries // self.num_threads
                        if self.config.iq_partitioned else None)
        order = self._rotated(self._dispatch_rr)
        self._dispatch_rr += 1
        for tid in order:
            t = self.threads[tid]
            while budget > 0 and t.decode_queue:
                ready_cycle, instr = t.decode_queue[0]
                if ready_cycle > self.cycle:
                    break
                if t.rob.full:
                    break
                op = instr.op
                if op.is_memory and t.lsq.full:
                    break
                needs_iq = not op.bypasses_iq
                if needs_iq and self._iq.full:
                    break
                if (needs_iq and iq_partition is not None
                        and self._iq.thread_count(tid) >= iq_partition):
                    break
                if not self._regfile.rename(instr, self.cycle):
                    break
                t.decode_queue.popleft()
                instr.renamed_at = self.cycle
                instr.pending_srcs = 0
                for phys in instr.phys_srcs:
                    if phys is not None and not self._regfile.is_ready(phys):
                        instr.pending_srcs += 1
                        self._waiters.setdefault(phys, []).append(
                            (instr, instr.fetch_stamp))
                t.rob.push(instr, self.cycle)
                if op.is_memory:
                    t.lsq.add(instr, self.cycle)
                if needs_iq:
                    self._iq.add(instr, self.cycle)
                else:
                    instr.completed_at = self.cycle  # NOPs complete at dispatch
                self.dispatched_total += 1
                budget -= 1
        return self.config.issue_width - budget

    # -- fetch -------------------------------------------------------------------------------------------

    def _fetch(self) -> bool:
        """Fetch for the policy's threads; True if any thread fetched or
        stalled on an I-cache miss (a state change too: it gates the
        thread)."""
        order = self.policy.priorities(self)
        remaining = self.config.fetch_width
        threads_used = 0
        acted = False
        for tid in order:
            if threads_used >= self.config.fetch_threads_per_cycle or remaining <= 0:
                break
            t = self.threads[tid]
            fetched = self._fetch_thread(t, remaining)
            if fetched:
                remaining -= fetched
                threads_used += 1
                acted = True
            elif t.fetch_blocked_until > self.cycle:
                acted = True
        return acted

    def _fetch_thread(self, t: ThreadContext, budget: int) -> int:
        count = 0
        current_line = None
        while count < budget and len(t.decode_queue) < DECODE_BUFFER_ENTRIES:
            if t.fetch_blocked_until > self.cycle:
                break
            wrong_path = t.wrong_path
            if not wrong_path and t.fetch_index >= len(t.trace.instrs):
                break
            pc = t.wrong_pc if wrong_path else t.trace[t.fetch_index].pc
            line = self.mem.il1.line_address(pc)
            if line != current_line:
                if line == t.line_buffer:
                    # The fill this thread waited on is in its line buffer;
                    # consume it without re-probing the IL1.
                    current_line = line
                else:
                    result = self.mem.fetch_access(pc, self.cycle, t.id)
                    if result.blocks_fetch:
                        t.fetch_blocked_until = self.cycle + result.latency
                        t.line_buffer = line
                        break
                    current_line = line
                    t.line_buffer = -1
            instr = t.next_instruction()
            if instr is None:
                break
            if not wrong_path:
                t.fetch_index += 1
            t.stamp(instr)
            instr.fetched_at = self.cycle
            t.decode_queue.append((self.cycle + self.config.decode_latency, instr))
            count += 1
            self.policy.on_fetch(self, instr)
            if instr.op.is_control:
                if self._predict_control(t, instr):
                    break  # fetch block ends at a taken or mispredicted branch
        return count

    def _predict_control(self, t: ThreadContext, instr: DynInstr) -> bool:
        """Predict a control instruction at fetch; True ends the fetch block."""
        prediction = t.branch_unit.predict(instr)
        instr.prediction = prediction
        if prediction.mispredicts(instr):
            instr.mispredicted = True
            t.wrong_path = True
            t.pending_branch = instr
            if prediction.taken and prediction.target is not None:
                t.wrong_pc = t.clamp_pc(prediction.target)
            else:
                t.wrong_pc = t.clamp_pc(instr.pc + 4)
            return True
        return prediction.taken

    # -- live fault injection --------------------------------------------------------------------------------

    def inject_bit(self, structure: Structure, slot: int, bit: int,
                   length: int = 1):
        """Flip ``length`` adjacent bits starting at ``bit`` of entry
        ``slot`` of ``structure``, live (clipped at field boundaries —
        see :func:`repro.structures.strike.burst_bits`).

        ``slot`` indexes the structure's *machine-wide* capacity — private
        structures (ROB, LSQ, per-thread arch backing in the register pool)
        concatenate their per-thread banks in thread order, matching the
        capacities the ACE ledger normalises by (repro.avf.bits).  Returns
        the :class:`~repro.structures.strike.StrikeReceipt` for undo.
        """
        if structure is Structure.IQ:
            return self._iq.inject_bit(slot, bit, length)
        if structure is Structure.ROB:
            tid, index = divmod(slot, self.config.rob_entries)
            return self.threads[tid].rob.inject_bit(index, bit, self.cycle,
                                                    length)
        if structure in (Structure.LSQ_TAG, Structure.LSQ_DATA):
            tid, index = divmod(slot, self.config.lsq_entries)
            return self.threads[tid].lsq.inject_bit(index, bit, structure,
                                                    length)
        if structure is Structure.REG:
            return self._regfile.inject_bit(slot, bit, length)
        if structure is Structure.FU:
            return self._fu_pool.inject_bit(slot, bit, length)
        raise StructureError(f"structure {structure.value} is not injectable")

    def fork(self) -> "SMTCore":
        """An independent copy of this core, paused at the same point.

        Take it between cycles — after a cycle's hooks, e.g. once
        ``run(until=c)`` has returned.  Running the fork to the end gives
        exactly what running this core to the end would, and neither run
        disturbs the other, in either order.  Mutable state is copied or
        copied on write: every instruction in flight (traces are
        read-only and shared), the cache and TLB sets either core
        writes (see :meth:`Cache.fork`), every structure, predictors, the
        fetch policy, the wrong-path generators' random streams, and each
        probe-bus subscriber (see :meth:`Instrumentation.fork`).
        Otherwise only immutable configuration and lookup tables are
        shared.
        """
        cls = type(self)
        clone = cls.__new__(cls)
        clone.__dict__.update(self.__dict__)
        remap = InstrRemap()
        instruments = self.instruments.fork()
        probe = instruments.probe
        clone.instruments = instruments
        clone._cycle_hooks = instruments.cycle_hooks
        clone._commit_hooks = instruments.commit_hooks
        clone.mem = self.mem.fork(instruments.dl1_observer,
                                  instruments.dtlb_observer)
        clone.threads = [t.fork(remap, probe) for t in self.threads]
        clone._iq = self._iq.fork(remap, probe)
        clone._regfile = self._regfile.fork(probe)
        clone._fu_pool = self._fu_pool.fork(remap, probe)
        clone._events = {
            when: [(remap(instr), stamp, dl1, l2)
                   for instr, stamp, dl1, l2 in bucket]
            for when, bucket in self._events.items()}
        clone._waiters = {
            phys: [(remap(instr), stamp) for instr, stamp in waiting]
            for phys, waiting in self._waiters.items()}
        clone.mem_tags = dict(self.mem_tags)
        clone.flow_log = None  # the log is its own run's alone
        clone._committed_at_measure_start = list(
            self._committed_at_measure_start)
        # Last: policies key some state by id(), which resolves only once
        # every wrong-path instruction in flight has its copy.
        clone.policy = self.policy.fork(remap)
        return clone

    # -- helpers -----------------------------------------------------------------------------------------------

    def _rotated(self, counter: int) -> List[int]:
        return self._rotations[counter % self.num_threads]

    def _drain(self) -> None:
        """Close all open residency intervals at the final cycle."""
        self._iq.drain(self.cycle)
        for t in self.threads:
            t.rob.drain(self.cycle)
            t.lsq.drain(self.cycle)
        self._regfile.drain(self.cycle)
        self.mem.drain(self.cycle)
