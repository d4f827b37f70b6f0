"""The SRT slack band, measured during execution."""

import pytest

from repro.config import SimConfig
from repro.rmt.slack import SlackFetchPolicy
from repro.sim.session import SimSession, functional_warmup
from repro.workload.generator import generate_trace
from repro.workload.spec2000 import get_profile


@pytest.fixture(scope="module")
def slack_samples():
    """Run an SRT pair and sample the lead-trail distance every cycle."""
    instructions = 1200
    traces = [generate_trace(get_profile("gcc"), tid, instructions, seed=1)
              for tid in (0, 1)]
    policy = SlackFetchPolicy(leader=0, trailer=1, min_slack=32, max_slack=256)
    sim = SimConfig(max_instructions=2 * instructions)
    core = SimSession(["gcc", "gcc"], policy=policy, sim=sim,
                      traces=traces).core
    functional_warmup(core, traces)
    samples = []
    while not core._done():
        core.cycle += 1
        core.mem.begin_cycle(core.cycle)
        core._commit(); core._writeback(); core._issue()
        core.fu_pool.tick(core.cycle)
        core._rename_dispatch(); core._fetch()
        samples.append(policy.slack_instructions(core))
    return samples, policy


class TestSlackBand:
    def test_leader_stays_ahead_once_started(self, slack_samples):
        samples, _ = slack_samples
        # After the ramp-up, the trailer never overtakes the leader.
        steady = samples[len(samples) // 4:]
        assert min(steady) >= 0

    def test_slack_never_exceeds_band_by_much(self, slack_samples):
        samples, policy = slack_samples
        # The leader gate bounds the distance: allow a commit-width of slop
        # past max_slack (gating acts at fetch, commits drain in flight).
        assert max(samples) <= policy.max_slack + 128

    def test_slack_spends_time_inside_the_band(self, slack_samples):
        samples, policy = slack_samples
        inside = sum(1 for s in samples
                     if policy.min_slack <= s <= policy.max_slack)
        # Excluding ramp-up and drain, the pair lives in the band.
        assert inside > 0.3 * len(samples)

    def test_gates_engaged_in_both_directions_or_progress(self, slack_samples):
        _, policy = slack_samples
        assert policy.trailer_gated_cycles + policy.leader_gated_cycles > 0
