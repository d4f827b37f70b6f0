"""Section 5 extension policies: FLUSHP, RAFT, static IQ partitioning."""

import pytest

from repro.avf.structures import Structure
from repro.config import MachineConfig, SimConfig
from repro.fetch.flushp import PredictiveFlushPolicy
from repro.fetch.raft import ReliabilityAwareThrottlePolicy
from repro.fetch.registry import EXTENSION_POLICY_NAMES, create_policy
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import OpClass
from repro.sim.simulator import simulate
from repro.workload.mixes import get_mix


def _load(tid=0, seq=0, pc=0x500):
    i = DynInstr(tid, seq, pc, OpClass.LOAD, mem_addr=0x1000)
    i.fetch_stamp = seq
    return i


class TestRegistry:
    def test_extensions_instantiable(self):
        for name in EXTENSION_POLICY_NAMES:
            assert create_policy(name).name == name


class TestFlushpUnit:
    def test_gates_on_predicted_l2_miss(self):
        from tests.test_fetch_policies import StubCore, _thread

        core = StubCore([_thread(0)])
        policy = PredictiveFlushPolicy()
        trained = _load()
        trained.l2_missed = True
        for _ in range(3):
            policy.on_load_resolved(core, trained)
        fetched = _load(seq=5)
        policy.on_fetch(core, fetched)
        assert policy.predicted_gates == 1
        assert policy.priorities(core) == [0]  # sole thread: fallback keeps one
        core2 = StubCore([_thread(0), _thread(1)])
        assert policy.priorities(core2) == [1]
        policy.on_load_resolved(core2, fetched)
        assert 0 in policy.priorities(core2)

    def test_squash_releases_gate(self):
        from tests.test_fetch_policies import StubCore, _thread

        core = StubCore([_thread(0), _thread(1)])
        policy = PredictiveFlushPolicy()
        trained = _load()
        trained.l2_missed = True
        for _ in range(3):
            policy.on_load_resolved(core, trained)
        fetched = _load(seq=5)
        policy.on_fetch(core, fetched)
        assert policy.priorities(core) == [1]
        policy.on_squash(core, fetched)
        assert 0 in policy.priorities(core)

    def test_l1_only_miss_untrains(self):
        from tests.test_fetch_policies import StubCore, _thread

        core = StubCore([_thread(0)])
        policy = PredictiveFlushPolicy()
        hit = _load()
        hit.l2_missed = True
        for _ in range(3):
            policy.on_load_resolved(core, hit)
        hit.l2_missed = False
        for _ in range(4):
            policy.on_load_resolved(core, hit)
        fetched = _load(seq=9)
        policy.on_fetch(core, fetched)
        assert policy.predicted_gates == 0


class TestRaftUnit:
    def test_rejects_bad_slack(self):
        with pytest.raises(ValueError):
            ReliabilityAwareThrottlePolicy(slack=0)


class TestExtensionsEndToEnd:
    @pytest.fixture(scope="class")
    def mem_results(self):
        mix = get_mix("2-MEM-A")
        sim = SimConfig(max_instructions=2000)
        return {
            p: simulate(mix, policy=p, sim=sim)
            for p in ("ICOUNT", "FLUSH", "FLUSHP", "RAFT")
        }

    def test_all_complete_their_budget(self, mem_results):
        for policy, r in mem_results.items():
            assert r.committed >= 2000, policy

    def test_flushp_matches_or_beats_flush_on_iq(self, mem_results):
        flushp = mem_results["FLUSHP"].avf.avf[Structure.IQ]
        icount = mem_results["ICOUNT"].avf.avf[Structure.IQ]
        assert flushp < icount

    def test_raft_preserves_throughput(self, mem_results):
        assert mem_results["RAFT"].ipc >= 0.8 * mem_results["ICOUNT"].ipc


class TestIqPartitioning:
    def test_partition_caps_per_thread_occupancy(self):
        from repro.sim.session import SimSession

        config = MachineConfig(iq_partitioned=True)
        core = SimSession(get_mix("2-MEM-A"), config=config,
                          sim=SimConfig(max_instructions=1500)).core
        cap = config.iq_entries // 2
        peak = 0
        while not core._done():
            core.cycle += 1
            core.mem.begin_cycle(core.cycle)
            core._commit(); core._writeback(); core._issue()
            core.fu_pool.tick(core.cycle)
            core._rename_dispatch(); core._fetch()
            peak = max(peak, *(core.issue_queue.thread_count(t) for t in (0, 1)))
        assert peak <= cap

    def test_unpartitioned_can_exceed_fair_share(self):
        result = simulate(get_mix("2-MEM-A"), policy="ICOUNT",
                          sim=SimConfig(max_instructions=1500))
        # Sanity: the run completes; occupancy freedom is the default.
        assert result.committed >= 1500
