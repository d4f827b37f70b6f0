"""Redundant multithreading: slack policy, harness, coverage."""

import pytest

from repro.avf.structures import Structure
from repro.errors import ConfigError
from repro.rmt import (
    SPHERE_OF_REPLICATION,
    SlackFetchPolicy,
    coverage_analysis,
    run_redundant,
)


class TestSlackPolicyUnit:
    def test_rejects_same_context(self):
        with pytest.raises(ConfigError):
            SlackFetchPolicy(leader=0, trailer=0)

    def test_rejects_bad_slack_band(self):
        with pytest.raises(ConfigError):
            SlackFetchPolicy(min_slack=100, max_slack=50)
        with pytest.raises(ConfigError):
            SlackFetchPolicy(min_slack=0, max_slack=50)

    def test_trailer_gated_when_too_close(self):
        from tests.test_fetch_policies import StubCore, _thread

        lead, trail = _thread(0), _thread(1)
        lead.committed, trail.committed = 100, 90  # slack 10 < 32
        core = StubCore([lead, trail])
        policy = SlackFetchPolicy()
        order = policy.priorities(core)
        assert 1 not in order
        assert order[0] == 0

    def test_leader_gated_when_too_far_ahead(self):
        from tests.test_fetch_policies import StubCore, _thread

        lead, trail = _thread(0), _thread(1)
        lead.committed, trail.committed = 1000, 100  # slack 900 > 256
        core = StubCore([lead, trail])
        policy = SlackFetchPolicy()
        order = policy.priorities(core)
        assert 0 not in order
        assert 1 in order

    def test_both_run_inside_band(self):
        from tests.test_fetch_policies import StubCore, _thread

        lead, trail = _thread(0), _thread(1)
        lead.committed, trail.committed = 200, 100  # slack 100, in band
        core = StubCore([lead, trail])
        order = SlackFetchPolicy().priorities(core)
        assert order[0] == 0 and 1 in order


class TestHarness:
    @pytest.fixture(scope="class")
    def rmt(self):
        return run_redundant("gcc", instructions=1000)

    def test_both_copies_complete(self, rmt):
        for t in rmt.redundant.threads:
            assert t.committed == 1000

    def test_redundancy_costs_throughput(self, rmt):
        assert 0.0 < rmt.redundancy_tax < 0.8

    def test_logical_ipc_is_leader(self, rmt):
        assert rmt.logical_ipc == rmt.redundant.threads[0].ipc

    def test_slack_discipline_engaged(self, rmt):
        assert rmt.trailer_gated_cycles > 0

    def test_leader_prefetches_for_trailer(self, rmt):
        """The pair's DL1 miss rate must not blow up vs solo: the trailer
        rides in the leader's shadow (SRT's classic side benefit)."""
        assert rmt.trailer_dl1_benefit

    def test_summary(self, rmt):
        assert "tax" in rmt.summary()


class TestCoverage:
    @pytest.fixture(scope="class")
    def run(self):
        return run_redundant("gcc", instructions=800)

    @pytest.fixture(scope="class")
    def cov(self, run):
        return coverage_analysis(run, structures=(Structure.IQ, Structure.ROB))

    def test_rates_are_the_runs_exact_avf(self, run, cov):
        for s, c in cov.structures.items():
            assert c.unprotected_sdc_rate == run.solo.avf.avf[s]
            assert c.protected_due_rate == run.redundant.avf.avf[s]

    def test_sphere_includes_pipeline_structures(self):
        assert Structure.IQ in SPHERE_OF_REPLICATION
        assert Structure.REG in SPHERE_OF_REPLICATION

    def test_no_silent_corruption_inside_sphere(self, cov):
        for c in cov.structures.values():
            assert c.protected_sdc_rate == 0.0

    def test_strikes_detected_not_ignored(self, cov):
        assert cov.structures[Structure.IQ].protected_due_rate > 0.0

    def test_unprotected_baseline_has_sdc(self, cov):
        assert cov.structures[Structure.IQ].unprotected_sdc_rate > 0.0

    def test_summary(self, cov):
        text = cov.summary()
        assert "RMT DUE" in text and "solo SDC" in text
