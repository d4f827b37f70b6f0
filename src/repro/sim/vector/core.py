"""The vector backend's cycle kernel.

:class:`VectorCore` subclasses :class:`~repro.pipeline.core.SMTCore` and
replaces :meth:`run` with a hand-inlined mirror of the reference loop.
It mutates the *same* structures (the shared issue queue's entry list,
each thread's ROB/LSQ deques, the register file's metadata dict), in the
same order, with the same intermediate states — which is what makes it
byte-identical, including under reentrant squashes (the FLUSH policy's
``on_l2_miss`` fires mid-issue and rewinds structures the issue loop is
scanning).  What it removes is *dispatch overhead*, the dominant cost of
the Python kernel:

* per-instruction enum hashing and property calls are replaced by bit
  tests on the packed metadata of :mod:`repro.sim.vector.tables`
  (``execution_latency`` alone rebuilt a 14-entry dict per call);
* per-event probe calls are replaced by list appends into a
  :class:`~repro.sim.vector.ledger.BatchResidencyProbe`, reduced with
  numpy at the end of the run;
* per-cycle method calls (stage methods, structure accessors, no-op
  policy hooks) are inlined or skipped when the policy doesn't override
  them.

The fast loop only supports the single-subscriber probe wiring with no
lifecycle hooks — the plain "simulate and report AVF" configuration that
figures, reproductions and benchmarks run thousands of times.  Any other
wiring (interval recording, auditing, phase tracking, taint/live
injection, extra observers) transparently falls back to the inherited
reference loop, so every observer keeps working against this backend.
"""

from __future__ import annotations

from typing import Optional

from repro.avf.engine import AvfEngine
from repro.errors import SimulationError, StructureError
from repro.fetch.base import FetchPolicy
from repro.fetch.icount import IcountPolicy
from repro.instrument.structures import Structure
from repro.isa.opcodes import FUType
from repro.pipeline.core import SMTCore
from repro.pipeline.frontend import DECODE_BUFFER_ENTRIES
from repro.structures.regfile import FP_REG_BASE, _PhysReg
from repro.sim.vector.ledger import BatchResidencyProbe
from repro.sim.vector.tables import (
    ACE_BIT,
    CTRL_BIT,
    FU_MASK,
    FU_SHIFT,
    LAT_SHIFT,
    LOADLIKE_BIT,
    MEM_BIT,
    NOP_BIT,
    STORE_BIT,
    annotate_trace,
    op_meta_table,
)

_WORD_MASK = ~0x7  # store-to-load forwarding granularity (lsq._WORD_MASK)


class VectorCore(SMTCore):
    """Numpy-accelerated drop-in for :class:`SMTCore` (``--backend vector``)."""

    def run(self, until: Optional[int] = None) -> Optional[int]:
        # A paused run (``until``) is the reference loop's business: the
        # fast loop only ever runs a fresh core to the end.
        if until is not None or not self._fast_path_eligible():
            return super().run(until)
        return self._vector_run()

    def _fast_path_eligible(self) -> bool:
        """True when the fast loop reproduces the reference loop exactly.

        The conditions mirror the probe bus's single-subscriber fast path:
        the AVF engine is the only residency observer and the only
        lifecycle hook, so batching residency events cannot reorder
        anything another observer could see.
        """
        ins = self.instruments
        engine = ins.ledger
        if engine is None or ins.probe is not engine:
            return False
        if not isinstance(engine, AvfEngine) or engine.record_intervals:
            return False
        if ins.taint or ins.recorder is not None:
            return False
        if ins.cycle_hooks or ins.commit_hooks or ins.finalize_hooks:
            return False
        if any(hook is not engine for hook in ins.reset_hooks):
            return False
        if self.sim.warmup_instructions and not ins.reset_hooks:
            return False
        # The analytic functional-unit accounting below assumes a fresh
        # core: no cycles simulated, no in-flight events or reservations.
        if self.cycle != 0 or self._events or self._iq._entries:
            return False
        if any(self._fu_pool._busy.values()):
            return False
        # The fast fetch writes trace instructions in place: none may be
        # borrowed from another core (SMTCore.fork).
        if any(t.borrowed_from < len(t.trace) for t in self.threads):
            return False
        return True

    # Set by the fast loop (a closure over its local state) so reentrant
    # squashes — mispredict recovery fires from the writeback stage, the
    # FLUSH policy's hook from mid-issue — can patch the analytic
    # functional-unit credits and the ready-entry count.
    _vec_squash_fix = None

    def squash_after(self, boundary) -> None:
        super().squash_after(boundary)
        fix = self._vec_squash_fix
        if fix is not None:
            fix()

    def _vector_run(self) -> int:  # noqa: C901 - deliberately one flat loop
        config = self.config
        sim = self.sim
        mem = self.mem
        threads = self.threads
        num_threads = self.num_threads
        engine = self.instruments.ledger
        policy = self.policy
        policy_cls = type(policy)

        op_meta = op_meta_table(config)
        for t in threads:
            annotate_trace(t.trace.instrs, op_meta)

        batch = BatchResidencyProbe(engine, num_threads)

        # Policy hooks the reference loop calls unconditionally; skip the
        # base-class no-ops entirely, call overridden ones at the same spot.
        on_fetch = (policy.on_fetch
                    if policy_cls.on_fetch is not FetchPolicy.on_fetch else None)
        on_l2_miss = (policy.on_l2_miss
                      if policy_cls.on_l2_miss is not FetchPolicy.on_l2_miss
                      else None)
        on_load_resolved = (
            policy.on_load_resolved
            if policy_cls.on_load_resolved is not FetchPolicy.on_load_resolved
            else None)
        # ICOUNT's ordering (the default every other policy builds on) is
        # inlined in the fetch stage below; any overriding policy is called.
        inline_icount = (
            policy_cls.priorities is IcountPolicy.priorities
            and policy_cls.icount_order is FetchPolicy.icount_order)
        priorities = policy.priorities

        # Structure internals, aliased once.  Every mutation below goes to
        # these live objects so squash/drain/policy code sees true state.
        iq = self._iq
        iq_list = iq._entries
        iq_per_thread = iq._per_thread
        iq_cap = iq.capacity
        regfile = self._regfile
        reg_meta = regfile._meta
        int_free = regfile._int_free
        fp_free = regfile._fp_free
        int_regs = regfile.int_regs
        rename_maps = regfile._rename
        pool = self._fu_pool
        fu_order = tuple(FUType)
        busy_lists = [pool._busy[fu] for fu in fu_order]
        fu_counts = [pool._counts[fu] for fu in fu_order]
        num_fu_types = len(fu_order)
        robs = [t.rob for t in threads]
        lsqs = [t.lsq for t in threads]
        rob_entries_by = [t.rob._entries for t in threads]
        lsq_entries_by = [t.lsq._entries for t in threads]
        rob_cap = config.rob_entries
        lsq_cap = config.lsq_entries
        trace_instrs = [t.trace.instrs for t in threads]
        trace_lens = [len(t.trace) for t in threads]
        events = self._events
        waiters = self._waiters
        rotations = self._rotations

        data_access = mem.data_access
        fetch_access = mem.fetch_access
        line_address = mem.il1.line_address
        dl1_ports = mem.config.dl1.ports

        occupancy = batch.occupancy
        rob_append = occupancy.setdefault(Structure.ROB, []).append
        iq_append = occupancy.setdefault(Structure.IQ, []).append
        tag_append = occupancy.setdefault(Structure.LSQ_TAG, []).append
        data_append = occupancy.setdefault(Structure.LSQ_DATA, []).append
        reg_append = batch.reg_events.append
        fu_ace = batch.fu_ace
        fu_unace = batch.fu_unace

        commit_width = config.commit_width
        issue_width = config.issue_width
        fetch_width = config.fetch_width
        fetch_tpc = config.fetch_threads_per_cycle
        decode_latency = config.decode_latency
        agen = config.agen_latency
        store_when = agen + 1 if agen + 1 > 1 else 1  # _schedule's max(.., 1)
        iq_partition = (config.iq_entries // num_threads
                        if config.iq_partitioned else None)
        max_instructions = sim.max_instructions
        max_cycles = sim.max_cycles
        warmup_target = sim.warmup_instructions
        warmup_done = self._warmup_done
        reset_hooks = self.instruments.reset_hooks

        issued_ops = 0
        busy_unit_cycles = 0

        # Analytic functional-unit accounting.  The reference pool walks
        # every reservation every cycle; a reservation issued at cycle
        # ``i`` with latency ``lat`` is walked on exactly the ticks
        # ``i .. r`` where ``r = i + lat - 1`` (``i`` when ``lat <= 1``),
        # so the fast loop credits all ``max(lat, 1)`` busy cycles once at
        # issue and keeps only per-unit *counts* for the availability
        # check, decremented from ``fu_release`` buckets keyed by ``r``.
        # ``fu_records`` ([end_stamp, r, instr, counted_ace] per
        # reservation) lets squashes, the measurement-window reset and the
        # end of the run re-attribute the pre-credited ticks exactly as
        # the per-cycle walk would have observed them; ``demoted`` tracks
        # squash-demoted records so a refetch of the same trace
        # instruction (FLUSH re-fetches what it squashed) restores the
        # ticks the walk would again see as ACE.
        fu_records = [[] for _ in range(num_fu_types)]
        fu_release = {}
        # Persistent per-unit availability (the pool is empty at run
        # start): multi-cycle reservations decrement it until their
        # ``fu_release`` bucket fires; single-cycle ones are restored at
        # the end of the issue scan (they never span a cycle boundary).
        avail = list(fu_counts)
        avail_undo = []
        demoted = {}
        ready_count = 0
        commit_rr = self._commit_rr
        dispatch_rr = self._dispatch_rr
        max_cycles1 = max_cycles + 1
        # Idle stretches can be skipped (event-driven) only when every
        # per-cycle side effect of the reference loop is state-invariant:
        # ICOUNT's priorities are pure, and no policy hook can fire.
        can_jump = (inline_icount and on_fetch is None
                    and on_l2_miss is None and on_load_resolved is None)

        def _squash_fix() -> None:
            """Re-sync analytic state after a squash (see squash_after)."""
            nonlocal ready_count
            c = self.cycle
            n = 0
            for entry in iq_list:
                if entry.pending_srcs == 0:
                    n += 1
            ready_count = n
            for i in range(num_fu_types):
                records = fu_records[i]
                if not records:
                    continue
                live = []
                for rec in records:
                    r = rec[1]
                    if r < c:
                        continue
                    if rec[3] and rec[2].squashed:
                        # The walk would see ``squashed`` from this cycle
                        # on: ticks ``c .. r`` move to the un-ACE bucket.
                        move = r - c + 1
                        tid = rec[2].thread_id
                        fu_ace[tid] -= move
                        fu_unace[tid] += move
                        rec[3] = False
                        bucket = demoted.get(rec[2])
                        if bucket is None:
                            bucket = demoted[rec[2]] = []
                        bucket.append(rec)
                    live.append(rec)
                if len(live) != len(records):
                    records[:] = live

        # Route every residency event the loop does *not* inline (squash
        # and drain paths call structure methods) into the batch probe.
        swap_targets = [iq, regfile, pool] + robs + lsqs
        saved_probes = [obj._probe for obj in swap_targets]
        for obj in swap_targets:
            obj._probe = batch
        self._vec_squash_fix = _squash_fix
        try:
            while True:
                # -- done? (SMTCore._done, ThreadContext.finished inlined) --
                if self.total_committed >= max_instructions:
                    break
                for t in threads:
                    if (t.wrong_path or t.fetch_index < trace_lens[t.id]
                            or rob_entries_by[t.id] or t.decode_queue):
                        break
                else:
                    break

                cycle = self.cycle + 1
                self.cycle = cycle
                if cycle > max_cycles:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles} "
                        f"(committed {self.total_committed})")
                mem._cycle = cycle  # MemoryHierarchy.begin_cycle
                dl1_used = 0
                idle = True

                # -- commit (SMTCore._commit) --
                budget = commit_width
                order = rotations[commit_rr % num_threads]
                commit_rr += 1
                for tid in order:
                    if budget == 0:
                        break
                    rob_entries = rob_entries_by[tid]
                    if not rob_entries:
                        continue
                    t = threads[tid]
                    lsq_entries = lsq_entries_by[tid]
                    while budget > 0 and rob_entries:
                        head = rob_entries[0]
                        completed = head.completed_at
                        if completed < 0 or completed >= cycle:
                            break
                        meta_bits = head.iq_slot
                        if meta_bits & STORE_BIT and not head.wrong_path:
                            if dl1_used >= dl1_ports:  # mem.claim_dl1_port
                                break
                            dl1_used += 1
                            data_access(head.mem_addr, cycle, tid,
                                        is_write=True)
                        rob_entries.popleft()
                        ace = (meta_bits & ACE_BIT) != 0
                        rob_append((tid, head.renamed_at, cycle, ace))
                        if meta_bits & MEM_BIT:
                            lsq_entries.popleft()
                            tag_append((tid, head.renamed_at, cycle, ace))
                            data_append((tid, completed, cycle, ace))
                            data_append((tid, head.renamed_at, completed,
                                         False))
                        old = head.old_phys_dest
                        if old is not None:
                            reg = reg_meta.pop(old, None)
                            if reg is None:
                                raise StructureError(
                                    f"double free of phys reg {old}")
                            reg_append((reg.thread_id, reg.alloc_cycle,
                                        reg.written_cycle, reg.last_ace_read,
                                        cycle,
                                        reg.last_ace_read > reg.written_cycle
                                        >= 0))
                            (fp_free if old >= int_regs
                             else int_free).append(old)
                        head.committed_at = cycle
                        t.committed += 1
                        self.total_committed += 1
                        budget -= 1
                        if (not warmup_done
                                and self.total_committed >= warmup_target):
                            # SMTCore._maybe_end_warmup
                            warmup_done = True
                            self._warmup_done = True
                            self.measure_start_cycle = cycle
                            batch.clear()
                            for hook in reset_hooks:
                                hook.on_reset(cycle)
                            self._committed_at_measure_start = [
                                th.committed for th in threads]
                            # Reservations still busy tick on into the
                            # fresh window: re-credit their remaining
                            # ``cycle .. r`` ticks (the pool walk runs
                            # after this commit stage), drop the rest.
                            for i in range(num_fu_types):
                                records = fu_records[i]
                                if not records:
                                    continue
                                live = []
                                for rec in records:
                                    r = rec[1]
                                    if r >= cycle:
                                        cred = r - cycle + 1
                                        if rec[3]:
                                            fu_ace[rec[2].thread_id] += cred
                                        else:
                                            fu_unace[rec[2].thread_id] += cred
                                        live.append(rec)
                                records[:] = live
                if budget != commit_width:
                    idle = False

                # -- writeback (SMTCore._writeback) --
                pending = events.pop(cycle, None)
                if pending is not None:
                    idle = False
                    for instr, stamp, dl1_miss, l2_miss in pending:
                        self.writebacks_total += 1
                        t = threads[instr.thread_id]
                        if dl1_miss:
                            t.outstanding_l1d -= 1
                        if l2_miss:
                            t.outstanding_l2 -= 1
                        if instr.squashed or instr.fetch_stamp != stamp:
                            continue
                        meta_bits = instr.iq_slot
                        if meta_bits & LOADLIKE_BIT and on_load_resolved:
                            on_load_resolved(self, instr)
                        instr.completed_at = cycle
                        phys = instr.phys_dest
                        if phys is not None:
                            reg = reg_meta.get(phys)
                            if reg is None:
                                raise StructureError(
                                    f"writeback to unallocated phys reg "
                                    f"{phys}")
                            reg.ready = True
                            reg.tag = 0
                            if reg.written_cycle < 0:
                                reg.written_cycle = cycle
                            waiting = waiters.pop(phys, None)
                            if waiting:
                                for consumer, cstamp in waiting:
                                    if (consumer.fetch_stamp == cstamp
                                            and not consumer.squashed):
                                        left = consumer.pending_srcs - 1
                                        consumer.pending_srcs = left
                                        # Now ready; NOPs never enter the
                                        # IQ, so they don't count.
                                        if (left == 0 and not
                                                (consumer.iq_slot
                                                 & NOP_BIT)):
                                            ready_count += 1
                        if meta_bits & CTRL_BIT:
                            self._resolve_control(t, instr)

                # -- issue (SMTCore._issue) --
                # The reference scan over the IQ has no side effects when
                # no entry has ``pending_srcs == 0``, so it can be skipped
                # outright; ``ready_count`` tracks exactly that.
                if ready_count:
                    budget = issue_width
                    for instr in tuple(iq_list):
                        if budget == 0:
                            break
                        if instr.squashed or instr.pending_srcs > 0:
                            continue
                        meta_bits = instr.iq_slot
                        fu = (meta_bits >> FU_SHIFT) & FU_MASK
                        if avail[fu] <= 0:
                            continue
                        tid = instr.thread_id
                        if meta_bits & LOADLIKE_BIT:
                            # SMTCore._issue_load + lsq.forwarding_store
                            t = threads[tid]
                            addr = instr.mem_addr & _WORD_MASK
                            load_stamp = instr.fetch_stamp
                            store = None
                            for entry in reversed(lsq_entries_by[tid]):
                                if entry.fetch_stamp >= load_stamp:
                                    continue
                                if (entry.iq_slot & STORE_BIT
                                        and (entry.mem_addr & _WORD_MASK)
                                        == addr):
                                    store = entry
                                    break
                            if store is not None:
                                if store.completed_at < 0:
                                    continue  # wait for the store's data
                                lsqs[tid].forwards += 1
                                when = cycle + store_when
                                bucket = events.get(when)
                                if bucket is None:
                                    bucket = events[when] = []
                                bucket.append((instr, load_stamp, False,
                                               False))
                            else:
                                if dl1_used >= dl1_ports:
                                    continue  # mem.claim_dl1_port
                                dl1_used += 1
                                result = data_access(instr.mem_addr,
                                                     cycle + 1, tid,
                                                     is_write=False)
                                dl1_miss = result.dl1_miss
                                l2_miss = result.l2_miss
                                instr.dl1_missed = dl1_miss
                                instr.l2_missed = l2_miss
                                if dl1_miss:
                                    t.outstanding_l1d += 1
                                if l2_miss:
                                    t.outstanding_l2 += 1
                                    if not instr.wrong_path and on_l2_miss:
                                        on_l2_miss(self, instr)
                                latency = agen + result.latency
                                when = cycle + (latency if latency > 1 else 1)
                                bucket = events.get(when)
                                if bucket is None:
                                    bucket = events[when] = []
                                bucket.append((instr, load_stamp, dl1_miss,
                                               l2_miss))
                        elif meta_bits & STORE_BIT:
                            when = cycle + store_when
                            bucket = events.get(when)
                            if bucket is None:
                                bucket = events[when] = []
                            bucket.append((instr, instr.fetch_stamp, False,
                                           False))
                        else:
                            latency = meta_bits >> LAT_SHIFT
                            when = cycle + (latency if latency > 1 else 1)
                            bucket = events.get(when)
                            if bucket is None:
                                bucket = events[when] = []
                            bucket.append((instr, instr.fetch_stamp, False,
                                           False))
                        lat = meta_bits >> LAT_SHIFT
                        ace = (meta_bits & ACE_BIT) != 0
                        if lat > 1:
                            r = cycle + lat - 1
                            bucket = fu_release.get(r)
                            if bucket is None:
                                bucket = fu_release[r] = []
                            bucket.append(fu)
                            busy_unit_cycles += lat
                            if ace:
                                fu_ace[tid] += lat
                            else:
                                fu_unace[tid] += lat
                        else:
                            # Released on this cycle's walk: never busy at
                            # a later availability check, exactly 1 tick.
                            r = cycle
                            avail_undo.append(fu)
                            busy_unit_cycles += 1
                            if ace:
                                fu_ace[tid] += 1
                            else:
                                fu_unace[tid] += 1
                        fu_records[fu].append([cycle + lat, r, instr, ace])
                        issued_ops += 1
                        avail[fu] -= 1
                        if ace:
                            # regfile.note_read (no-op for un-ACE readers)
                            for phys in instr.phys_srcs:
                                if phys is not None:
                                    reg = reg_meta.get(phys)
                                    if (reg is not None
                                            and cycle > reg.last_ace_read):
                                        reg.last_ace_read = cycle
                        instr.issued_at = cycle
                        iq_list.remove(instr)
                        iq_per_thread[tid] -= 1
                        ready_count -= 1
                        iq_append((tid, instr.renamed_at, cycle, ace))
                        budget -= 1
                    if avail_undo:
                        for i in avail_undo:
                            avail[i] += 1
                        del avail_undo[:]
                    # A scan that issued nothing had no side effects (the
                    # reference loop's has none either); ready entries are
                    # all FU-blocked or waiting on store data, both of
                    # which wake at a known future cycle.
                    if budget != issue_width:
                        idle = False

                # -- functional units (FunctionalUnitPool.tick) --
                # Busy/ACE accrual is analytic (see above); the walk's only
                # remaining job is freeing units whose reservations lapse.
                released = fu_release.pop(cycle, None)
                if released is not None:
                    for i in released:
                        avail[i] += 1

                # -- rename/dispatch (SMTCore._rename_dispatch) --
                budget = issue_width
                order = rotations[dispatch_rr % num_threads]
                dispatch_rr += 1
                for tid in order:
                    if budget == 0:
                        break
                    t = threads[tid]
                    decode_queue = t.decode_queue
                    if not decode_queue:
                        continue
                    rob = robs[tid]
                    rob_entries = rob_entries_by[tid]
                    lsq = lsqs[tid]
                    lsq_entries = lsq_entries_by[tid]
                    rmap = rename_maps[tid]
                    while budget > 0 and decode_queue:
                        ready_cycle, instr = decode_queue[0]
                        if ready_cycle > cycle:
                            break
                        if len(rob_entries) >= rob_cap:
                            break
                        meta_bits = instr.iq_slot
                        if meta_bits & MEM_BIT and len(lsq_entries) >= lsq_cap:
                            break
                        needs_iq = not (meta_bits & NOP_BIT)
                        if needs_iq:
                            if len(iq_list) >= iq_cap:
                                break
                            if (iq_partition is not None
                                    and iq_per_thread.get(tid, 0)
                                    >= iq_partition):
                                break
                        # regfile.rename, inlined
                        dest = instr.dest_reg
                        if dest is not None:
                            free = (fp_free if dest >= FP_REG_BASE
                                    else int_free)
                            if not free:
                                break
                            instr.phys_srcs = tuple(
                                rmap.get(src) for src in instr.src_regs)
                            phys = free.pop()
                            reg_meta[phys] = _PhysReg(tid, cycle)
                            instr.old_phys_dest = rmap.get(dest)
                            instr.phys_dest = phys
                            rmap[dest] = phys
                        else:
                            instr.phys_srcs = tuple(
                                rmap.get(src) for src in instr.src_regs)
                        decode_queue.popleft()
                        instr.renamed_at = cycle
                        pending_srcs = 0
                        for phys in instr.phys_srcs:
                            if phys is not None:
                                reg = reg_meta.get(phys)
                                if reg is not None and not reg.ready:
                                    pending_srcs += 1
                                    waiting = waiters.get(phys)
                                    if waiting is None:
                                        waiting = waiters[phys] = []
                                    waiting.append((instr, instr.fetch_stamp))
                        instr.pending_srcs = pending_srcs
                        instr.rob_index = len(rob_entries)
                        rob_entries.append(instr)
                        occupied = len(rob_entries)
                        if occupied > rob.peak_occupancy:
                            rob.peak_occupancy = occupied
                        if meta_bits & MEM_BIT:
                            lsq_entries.append(instr)
                            occupied = len(lsq_entries)
                            if occupied > lsq.peak_occupancy:
                                lsq.peak_occupancy = occupied
                        if needs_iq:
                            iq_list.append(instr)
                            iq_per_thread[tid] = (
                                iq_per_thread.get(tid, 0) + 1)
                            if pending_srcs == 0:
                                ready_count += 1
                            occupied = len(iq_list)
                            if occupied > iq.peak_occupancy:
                                iq.peak_occupancy = occupied
                        else:
                            instr.completed_at = cycle  # NOPs complete here
                        self.dispatched_total += 1
                        budget -= 1
                if budget != issue_width:
                    idle = False

                # -- fetch (SMTCore._fetch / _fetch_thread) --
                if inline_icount:
                    # IcountPolicy.priorities: fetchable threads sorted by
                    # (front-end + IQ count, tid).  ``finished`` implies
                    # ``fetch_exhausted``, so one test covers both.
                    eligible = [
                        ((len(t.decode_queue)
                          + iq_per_thread.get(t.id, 0)), t.id)
                        for t in threads
                        if (t.wrong_path or t.fetch_index < trace_lens[t.id])
                        and t.fetch_blocked_until <= cycle
                        and len(t.decode_queue) < DECODE_BUFFER_ENTRIES]
                    eligible.sort()
                    order = [tid for _, tid in eligible]
                else:
                    order = priorities(self)
                remaining = fetch_width
                threads_used = 0
                for tid in order:
                    if threads_used >= fetch_tpc or remaining <= 0:
                        break
                    t = threads[tid]
                    decode_queue = t.decode_queue
                    room = DECODE_BUFFER_ENTRIES - len(decode_queue)
                    count = 0
                    current_line = None
                    instrs = trace_instrs[tid]
                    trace_len = trace_lens[tid]
                    while count < remaining and room > 0:
                        if t.fetch_blocked_until > cycle:
                            break
                        wrong = t.wrong_path
                        if wrong:
                            pc = t.wrong_pc
                        else:
                            fetch_index = t.fetch_index
                            if fetch_index >= trace_len:
                                break
                            instr = instrs[fetch_index]
                            pc = instr.pc
                        line = line_address(pc)
                        if line != current_line:
                            if line == t.line_buffer:
                                current_line = line
                            else:
                                result = fetch_access(pc, cycle, tid)
                                if result.blocks_fetch:
                                    t.fetch_blocked_until = (
                                        cycle + result.latency)
                                    t.line_buffer = line
                                    break
                                current_line = line
                                t.line_buffer = -1
                        if wrong:
                            instr = t.synth.synthesize(pc)
                            t.wrong_pc = t.clamp_pc(pc + 4)
                            t.wrong_path_fetched += 1
                            meta_bits = op_meta[instr.op.value]
                            instr.iq_slot = meta_bits
                        else:
                            meta_bits = instr.iq_slot
                            if demoted:
                                # Refetch of a squash-demoted instruction:
                                # the pool walk sees it un-squashed again
                                # from the next tick on, so ticks
                                # ``cycle+1 .. r`` return to ACE.
                                rlist = demoted.pop(instr, None)
                                if rlist is not None:
                                    for rec in rlist:
                                        back = rec[1] - cycle
                                        if back > 0:
                                            rec[3] = True
                                            fu_ace[tid] += back
                                            fu_unace[tid] -= back
                            # SMTCore._reset_pipeline_state (iq_slot kept)
                            instr.fetched_at = -1
                            instr.renamed_at = -1
                            instr.issued_at = -1
                            instr.completed_at = -1
                            instr.committed_at = -1
                            instr.phys_dest = None
                            instr.old_phys_dest = None
                            instr.phys_srcs = ()
                            instr.squashed = False
                            instr.mispredicted = False
                            instr.dl1_missed = False
                            instr.l2_missed = False
                            instr.prediction = None
                            instr.pending_srcs = 0
                            instr.value_tag = 0
                            t.fetch_index = fetch_index + 1
                            if fetch_index >= t.fetch_high:
                                t.fetch_high = fetch_index + 1
                        instr.fetch_stamp = t.next_fetch_stamp
                        t.next_fetch_stamp += 1
                        t.fetched += 1
                        instr.fetched_at = cycle
                        decode_queue.append((cycle + decode_latency, instr))
                        room -= 1
                        count += 1
                        if on_fetch:
                            on_fetch(self, instr)
                        if meta_bits & CTRL_BIT:
                            # SMTCore._predict_control
                            prediction = t.branch_unit.predict(instr)
                            instr.prediction = prediction
                            if prediction.mispredicts(instr):
                                instr.mispredicted = True
                                t.wrong_path = True
                                t.pending_branch = instr
                                if (prediction.taken
                                        and prediction.target is not None):
                                    t.wrong_pc = t.clamp_pc(prediction.target)
                                else:
                                    t.wrong_pc = t.clamp_pc(instr.pc + 4)
                                break
                            if prediction.taken:
                                break
                    if count:
                        remaining -= count
                        threads_used += 1
                if threads_used:
                    idle = False

                # -- idle fast-forward --
                # A cycle with no commits, writebacks, issues (or ready
                # entries), dispatches or fetches changes nothing the next
                # cycle can observe: under ICOUNT (pure priorities, no
                # hooks) the reference loop would spin unchanged until the
                # next writeback event, decode-ready instruction, I-cache
                # refill or commit-eligible ROB head.  Jump straight
                # there, advancing the round-robin counters by the cycles
                # the reference loop would have burned.
                if idle and can_jump:
                    target = max_cycles1
                    if events:
                        when = min(events)
                        if when < target:
                            target = when
                    if ready_count and fu_release:
                        # Ready entries blocked on a busy unit can issue
                        # the cycle after its earliest release.
                        when = min(fu_release) + 1
                        if when < target:
                            target = when
                    for t in threads:
                        rob_entries = rob_entries_by[t.id]
                        if rob_entries:
                            completed = rob_entries[0].completed_at
                            if completed >= 0:
                                when = completed + 1
                                if when < target:
                                    target = when
                        decode_queue = t.decode_queue
                        if decode_queue:
                            when = decode_queue[0][0]
                            if cycle < when < target:
                                target = when
                        when = t.fetch_blocked_until
                        if cycle < when < target:
                            target = when
                    if target > cycle + 1:
                        import repro.sim.vector.core as _m
                        _m._JUMPS = getattr(_m, "_JUMPS", 0) + 1
                        _m._SKIPPED = getattr(_m, "_SKIPPED", 0) + (target - cycle - 1)
                        if fu_release:
                            for when in [w for w in fu_release
                                         if w < target]:
                                for i in fu_release.pop(when):
                                    avail[i] += 1
                        skipped = target - cycle - 1
                        commit_rr += skipped
                        dispatch_rr += skipped
                        self.cycle = target - 1

            # The reference pool stops walking reservations at the final
            # cycle; take back the analytic over-credit for reservations
            # that outlive the run and leave them in the pool's busy
            # lists, as the reference loop would.
            final_cycle = self.cycle
            for i in range(num_fu_types):
                tail = None
                for rec in fu_records[i]:
                    r = rec[1]
                    if r > final_cycle:
                        over = r - final_cycle
                        busy_unit_cycles -= over
                        if rec[3]:
                            fu_ace[rec[2].thread_id] -= over
                        else:
                            fu_unace[rec[2].thread_id] -= over
                        if tail is None:
                            tail = []
                        tail.append((rec[0], rec[2]))
                if tail is not None:
                    busy_lists[i][:] = tail

            self._drain()
            batch.flush()
        finally:
            self._vec_squash_fix = None
            self._commit_rr = commit_rr
            self._dispatch_rr = dispatch_rr
            for obj, probe in zip(swap_targets, saved_probes):
                obj._probe = probe
        pool.issued_ops += issued_ops
        pool.busy_unit_cycles += busy_unit_cycles
        return self.measured_cycles
