"""Pipeline integration: end-to-end invariants on small simulations."""

import pytest

from repro.avf.structures import Structure
from repro.config import MachineConfig, SimConfig
from repro.sim.session import SimSession
from repro.sim.simulator import simulate
from repro.workload.mixes import get_mix


def _run_core(workload="2-CPU-A", policy="ICOUNT", instructions=600):
    mix = get_mix(workload)
    core = SimSession(mix, policy=policy,
                      sim=SimConfig(max_instructions=instructions)).core
    core.run()
    return core


class TestExecutionInvariants:
    def test_budget_reached(self):
        core = _run_core()
        assert core.total_committed >= 600

    def test_structures_empty_after_drain(self):
        core = _run_core()
        assert len(core.issue_queue) == 0
        assert core.regfile.allocated_count() == 0
        for t in core.threads:
            assert t.rob.empty
            assert len(t.lsq) == 0

    def test_commit_order_per_thread(self):
        """Committed sequence numbers are strictly increasing per thread."""
        mix = get_mix("2-CPU-A")
        core = SimSession(mix, sim=SimConfig(max_instructions=600)).core
        committed = {0: [], 1: []}
        original = core.threads[0].rob.pop_head

        def spy_factory(rob):
            orig = rob.pop_head

            def spy(cycle):
                instr = orig(cycle)
                committed[rob.thread_id].append(instr.seq)
                return instr
            return spy

        for t in core.threads:
            t.rob.pop_head = spy_factory(t.rob)
        core.run()
        for tid, seqs in committed.items():
            assert seqs == sorted(seqs), f"thread {tid} committed out of order"
            assert len(seqs) == len(set(seqs)), f"thread {tid} double-committed"

    def test_committed_instructions_follow_the_trace(self):
        """Every thread commits exactly the trace prefix (squash-replay is exact)."""
        commits = {}

        class Commits:
            def on_commit(self, core, instr):
                commits.setdefault(instr.thread_id, []).append(instr)

        core = SimSession(get_mix("2-CPU-A"), observers=(Commits(),),
                          sim=SimConfig(max_instructions=600)).core
        core.run()
        for t in core.threads:
            committed = commits[t.id]
            assert [i.seq for i in committed] == list(range(t.committed))
            assert all(i.committed_at >= 0 for i in committed)
            # Fetch copied each record; the records stay untouched.
            assert [i.pc for i in committed] == [
                r.pc for r in t.trace.instrs[:t.committed]]
            assert all(r.committed_at == -1 for r in t.trace.instrs)

    def test_ipc_positive_and_bounded(self):
        core = _run_core()
        ipc = core.total_committed / core.cycle
        assert 0 < ipc <= MachineConfig().commit_width


class TestAvfInvariants:
    @pytest.mark.parametrize("workload", ["2-CPU-A", "2-MEM-A"])
    def test_avf_within_unit_interval(self, workload):
        core = _run_core(workload)
        report = core.engine.report(core.cycle)
        for s in Structure:
            assert 0.0 <= report.avf[s] <= 1.0, s
            assert 0.0 <= report.utilization[s] <= 1.0, s

    def test_avf_never_exceeds_utilization(self):
        core = _run_core()
        report = core.engine.report(core.cycle)
        for s in Structure:
            assert report.avf[s] <= report.utilization[s] + 1e-9, s

    def test_shared_thread_contributions_sum_to_avf(self):
        core = _run_core("2-MEM-A")
        report = core.engine.report(core.cycle)
        for s in (Structure.IQ, Structure.REG, Structure.FU):
            parts = sum(report.thread_avf[s].values())
            assert parts == pytest.approx(report.avf[s], rel=1e-6)


class TestSquashRecovery:
    def test_mispredicts_occur_and_recover(self):
        core = _run_core("2-MEM-A", instructions=800)
        assert core.mispredict_squashes > 0
        assert core.total_committed >= 800

    def test_flush_policy_runs_to_completion(self):
        core = _run_core("2-MEM-A", policy="FLUSH", instructions=800)
        assert core.policy.flushes > 0
        assert core.total_committed >= 800

    def test_wrong_path_instructions_fetched(self):
        core = _run_core("2-MEM-A", instructions=800)
        assert any(t.wrong_path_fetched > 0 for t in core.threads)


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = simulate(get_mix("2-MIX-A"), sim=SimConfig(max_instructions=500, seed=9))
        b = simulate(get_mix("2-MIX-A"), sim=SimConfig(max_instructions=500, seed=9))
        assert a.cycles == b.cycles
        assert a.committed == b.committed
        for s in Structure:
            assert a.avf.avf[s] == b.avf.avf[s]

    def test_different_seed_differs(self):
        a = simulate(get_mix("2-MIX-A"), sim=SimConfig(max_instructions=500, seed=1))
        b = simulate(get_mix("2-MIX-A"), sim=SimConfig(max_instructions=500, seed=2))
        assert a.cycles != b.cycles or a.avf.avf[Structure.IQ] != b.avf.avf[Structure.IQ]


class TestWarmup:
    def test_warmup_resets_measurement_window(self):
        sim = SimConfig(max_instructions=600, warmup_instructions=300)
        result = simulate(get_mix("2-CPU-A"), sim=sim)
        # Reported committed work excludes the warmup instructions.
        assert result.committed <= 600 + 50
        assert result.committed >= 250
        assert result.cycles >= 1

    def test_zero_warmup_equivalent_to_none(self):
        a = simulate(get_mix("2-CPU-A"), sim=SimConfig(max_instructions=400))
        b = simulate(get_mix("2-CPU-A"),
                     sim=SimConfig(max_instructions=400, warmup_instructions=0))
        assert a.cycles == b.cycles
