"""Property-based tests of the VulnerabilityAccount conservation laws.

Hypothesis drives the ledger with randomly generated residency schedules
built to be *physically realisable* — per-slot, non-overlapping intervals —
so the conservation law (ACE + un-ACE + idle == capacity × cycles) must
hold exactly, not just approximately.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.avf.account import NO_THREAD, VulnerabilityAccount
from repro.errors import StructureError
from repro.instrument import IntervalRecorder, Structure

# One structure slot's schedule: interval lengths and the gaps between
# them, consumed left to right along the timeline.
_segment = st.tuples(
    st.integers(min_value=0, max_value=20),   # idle gap before the interval
    st.integers(min_value=1, max_value=50),   # interval length
    st.booleans(),                            # ACE?
    st.integers(min_value=0, max_value=3),    # thread id
)
_slot_schedule = st.lists(_segment, max_size=8)
_schedules = st.lists(_slot_schedule, min_size=1, max_size=6)


def _fill(account: VulnerabilityAccount, schedules,
          recorder: "IntervalRecorder | None" = None) -> int:
    """Apply per-slot schedules (logging each interval to ``recorder`` as
    an IQ event, if given); returns the horizon (max end cycle)."""
    horizon = 0
    for slot in schedules[:account.capacity]:
        t = 0
        for gap, length, ace, thread in slot:
            start = t + gap
            end = start + length
            account.add_interval(thread, start, end, ace=ace)
            if recorder is not None:
                recorder.occupy(Structure.IQ, thread, start, end, ace)
            t = end
        horizon = max(horizon, t)
    return horizon


class TestConservation:
    @given(schedules=_schedules)
    @settings(max_examples=200, deadline=None)
    def test_ace_unace_idle_sum_to_budget(self, schedules):
        capacity = len(schedules)
        acct = VulnerabilityAccount("prop", capacity=capacity)
        horizon = _fill(acct, schedules)
        cycles = horizon + 1   # any horizon ≥ the last interval end works
        assert acct.occupied_cycles() == acct.total_ace() + acct.total_unace()
        idle = acct.idle_cycles(cycles)
        assert idle >= 0
        assert acct.total_ace() + acct.total_unace() + idle == pytest.approx(
            capacity * cycles)

    @given(schedules=_schedules)
    @settings(max_examples=200, deadline=None)
    def test_replay_matches_ledger(self, schedules):
        capacity = len(schedules)
        acct = VulnerabilityAccount("prop", capacity=capacity)
        recorder = IntervalRecorder()
        _fill(acct, schedules, recorder)
        ace_sums, unace_sums = recorder.replay_totals(Structure.IQ)
        assert ace_sums == pytest.approx(acct.ace_cycles)
        assert unace_sums == pytest.approx(acct.unace_cycles)


class TestAvfBounds:
    @given(schedules=_schedules, extra=st.integers(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_avf_in_unit_interval_and_below_utilization(self, schedules, extra):
        capacity = len(schedules)
        acct = VulnerabilityAccount("prop", capacity=capacity)
        horizon = _fill(acct, schedules)
        cycles = max(horizon, 1) + extra
        avf = acct.avf(cycles)
        util = acct.utilization(cycles)
        assert 0.0 <= avf <= 1.0
        assert 0.0 <= util <= 1.0
        assert avf <= util + 1e-9

    @given(schedules=_schedules)
    @settings(max_examples=200, deadline=None)
    def test_thread_contributions_sum_to_avf(self, schedules):
        capacity = len(schedules)
        acct = VulnerabilityAccount("prop", capacity=capacity)
        horizon = _fill(acct, schedules)
        cycles = horizon + 1
        total = acct.avf(cycles)
        contributions = sum(acct.thread_avf(t, cycles) for t in acct.threads())
        contributions += acct.thread_avf(NO_THREAD, cycles)
        # Realisable schedules never exceed the budget, so no per-thread
        # clamping fires and the decomposition is exact.
        assert contributions == pytest.approx(total)


class TestValidation:
    @given(start=st.integers(min_value=0, max_value=1000),
           delta=st.integers(min_value=1, max_value=1000))
    def test_reversed_interval_always_raises(self, start, delta):
        acct = VulnerabilityAccount("prop", capacity=4)
        with pytest.raises(StructureError):
            acct.add_interval(0, start + delta, start, ace=True)
        assert acct.occupied_cycles() == 0.0

    @given(amount=st.floats(max_value=-1e-9, min_value=-1e9,
                            allow_nan=False))
    def test_negative_sample_always_raises(self, amount):
        acct = VulnerabilityAccount("prop", capacity=4)
        with pytest.raises(StructureError):
            acct.add(0, amount, ace=True)
        assert acct.occupied_cycles() == 0.0
