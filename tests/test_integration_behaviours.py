"""Cross-cutting integration behaviours: warmup windows, FLUSH gating,
phase/warmup interaction, RMT under contention."""

import pytest

from repro.avf.structures import Structure
from repro.config import SimConfig
from repro.fetch.flush import FlushPolicy
from repro.fetch.registry import create_policy
from repro.sim.session import SimSession, functional_warmup
from repro.sim.simulator import simulate
from repro.workload.mixes import get_mix


class TestTimedWarmupWindow:
    def test_counters_cover_only_the_measured_window(self):
        sim = SimConfig(max_instructions=900, warmup_instructions=400)
        result = simulate(get_mix("2-CPU-A"), sim=sim)
        # The measured committed count excludes warmup work (give or take
        # one commit-width of slop at the boundary).
        assert result.committed <= 900 - 400 + 16
        assert result.committed > 300

    def test_warmup_and_no_warmup_avf_comparable(self):
        """Post-warmup AVF should not be wildly different from full-run AVF
        on a stationary workload — the window accounting must not corrupt
        the ledgers."""
        a = simulate(get_mix("2-CPU-A"),
                     sim=SimConfig(max_instructions=1500))
        b = simulate(get_mix("2-CPU-A"),
                     sim=SimConfig(max_instructions=1500,
                                   warmup_instructions=500))
        for s in (Structure.IQ, Structure.ROB):
            assert b.avf.avf[s] == pytest.approx(a.avf.avf[s], abs=0.25), s

    def test_phase_tracking_with_warmup(self):
        result = simulate(get_mix("2-CPU-A"),
                          sim=SimConfig(max_instructions=1200,
                                        warmup_instructions=300,
                                        phase_window_cycles=100))
        assert result.phase_series is not None
        for values in result.phase_series.avf.values():
            assert all(0.0 <= v <= 1.0 for v in values)


class TestFlushGating:
    def test_fetch_gate_opens_when_miss_returns(self):
        """A flushed thread must resume fetching once its L2 miss resolves —
        the run completing proves the gate is not sticky."""
        mix = get_mix("2-MEM-A")
        sim = SimConfig(max_instructions=1200)
        policy = FlushPolicy()
        session = SimSession(mix, policy=policy, sim=sim)
        core = session.core
        functional_warmup(core, session.traces)
        core.run()
        assert policy.flushes > 0
        # The budget was reached with multiple flush episodes per thread:
        # gates opened again after each miss returned (a sticky gate would
        # have wedged the run instead).  Gates may be legitimately pending
        # at the instant the budget cuts the run off.
        assert core.total_committed >= 1200
        assert all(t.committed > 0 for t in core.threads)
        assert policy.flushes >= 2

    def test_flushed_work_recommits(self):
        """Instructions squashed by FLUSH are refetched and committed."""
        result = simulate(get_mix("2-MEM-A"), policy="FLUSH",
                          sim=SimConfig(max_instructions=1200))
        assert result.committed >= 1200


class TestPolicyPipelineInteraction:
    @pytest.mark.parametrize("policy", ["DG", "PDG", "DWARN", "STALL"])
    def test_gating_policies_never_wedge(self, policy):
        result = simulate(get_mix("2-MEM-A"), policy=policy,
                          sim=SimConfig(max_instructions=1000,
                                        max_cycles=2_000_000))
        assert result.committed >= 1000

    def test_policy_objects_fresh_per_run(self):
        """Reusing a policy instance across runs is allowed but state-bearing
        policies document fresh instantiation; the registry always builds new."""
        a = create_policy("FLUSH")
        b = create_policy("FLUSH")
        assert a is not b


class TestRmtUnderContention:
    def test_redundant_pair_with_background_threads(self):
        """An SRT pair sharing the machine with unrelated threads still
        completes (slack policy schedules the non-redundant threads too)."""
        from repro.rmt.slack import SlackFetchPolicy

        result = simulate(["gcc", "gcc", "mesa", "twolf"],
                          policy=SlackFetchPolicy(leader=0, trailer=1),
                          sim=SimConfig(max_instructions=2000))
        assert result.committed >= 2000
        assert result.threads[2].committed > 0
        assert result.threads[3].committed > 0
