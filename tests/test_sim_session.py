"""SimSession and the instrumentation bus.

Differential coverage: the RMT harness constructs its cores through
:class:`repro.sim.SimSession`; its golden file in ``tests/golden/`` was
produced by the pre-refactor code path (the harness wiring its own core),
so a byte-identical payload proves the re-route changed nothing
observable.
"""

import json
from pathlib import Path

import pytest

from repro.avf.engine import AvfEngine
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.errors import ReproError
from repro.instrument import (
    NULL_PROBE,
    IntervalRecorder,
    ProbeBus,
    ResidencyProbe,
    Structure,
)
from repro.sim import SimSession, simulate

GOLDEN = Path(__file__).parent / "golden"


class TestRmtDifferential:
    def test_rmt_matches_pre_refactor_golden(self):
        from repro.rmt.harness import run_redundant

        result = run_redundant("gcc", instructions=800, seed=3)
        golden = json.loads((GOLDEN / "golden_rmt.json").read_text())
        payload = {
            "redundant": result.redundant.to_payload(),
            "solo": result.solo.to_payload(),
            "trailer_gated_cycles": result.trailer_gated_cycles,
            "leader_gated_cycles": result.leader_gated_cycles,
        }
        # The goldens are round-tripped through json, so compare likewise.
        assert json.loads(json.dumps(payload, sort_keys=True)) == golden


class TestSimSessionWiring:
    def test_simulate_and_session_agree(self):
        sim = SimConfig(max_instructions=800, seed=4)
        via_session = SimSession(["bzip2", "gcc"], sim=sim).run()
        via_simulate = simulate(["bzip2", "gcc"], sim=sim)
        assert via_session.to_payload() == via_simulate.to_payload()

    def test_default_run_collapses_to_direct_ledger_accrual(self):
        # The zero-overhead fast path: with only the AVF engine subscribed,
        # structures must hold the engine itself, not a fan-out wrapper.
        session = SimSession(["bzip2"], sim=SimConfig(max_instructions=100))
        assert session.core.instruments.probe is session.engine
        assert session.core.issue_queue._probe is session.engine

    def test_recorded_run_fans_out_through_the_bus(self):
        sim = SimConfig(max_instructions=100, record_intervals=True)
        session = SimSession(["bzip2"], sim=sim)
        assert session.recorder is not None
        assert session.core.instruments.probe is session.bus

    def test_observers_exposed_on_session(self):
        sim = SimConfig(max_instructions=100, check_invariants=10,
                        phase_window_cycles=50)
        session = SimSession(["bzip2"], sim=sim)
        assert session.auditor is not None
        assert session.phase_tracker is not None
        result = session.run()
        assert result.audit is not None
        assert result.phase_series is not None


class TestProbeBus:
    def test_no_subscribers_yields_null_probe(self):
        assert ProbeBus().residency_probe() is NULL_PROBE

    def test_single_residency_subscriber_returned_directly(self):
        bus = ProbeBus()
        engine = bus.subscribe(AvfEngine(DEFAULT_CONFIG, 1))
        assert bus.residency_probe() is engine

    def test_multiple_subscribers_fan_out_in_order(self):
        bus = ProbeBus()
        first, second = IntervalRecorder(), IntervalRecorder()
        bus.subscribe(first)
        bus.subscribe(second)
        probe = bus.residency_probe()
        assert probe is bus
        probe.occupy(Structure.IQ, 0, 5, 9, True)
        assert first.intervals(Structure.IQ) == [(0, 5, 9, True)]
        assert second.intervals(Structure.IQ) == [(0, 5, 9, True)]

    def test_partial_residency_protocol_rejected(self):
        class Half:
            def occupy(self, structure, thread_id, start, end, ace):
                pass

        with pytest.raises(ReproError, match="fu_busy_cycle"):
            ProbeBus().subscribe(Half())

    def test_lifecycle_only_subscriber_accepted(self):
        class CycleCounter:
            cycles = 0

            def on_cycle(self, core):
                self.cycles += 1

        bus = ProbeBus()
        counter = bus.subscribe(CycleCounter())
        assert bus.residency_probe() is NULL_PROBE
        bus.on_cycle(None)
        assert counter.cycles == 1

    def test_engine_satisfies_protocol(self):
        assert isinstance(AvfEngine(DEFAULT_CONFIG, 1), ResidencyProbe)
        assert isinstance(IntervalRecorder(), ResidencyProbe)

    def test_repr_lists_live_subscribers(self):
        bus = ProbeBus()
        assert repr(bus) == "ProbeBus([])"
        bus.subscribe(AvfEngine(DEFAULT_CONFIG, 1))
        bus.subscribe(IntervalRecorder())
        assert repr(bus) == "ProbeBus([AvfEngine, IntervalRecorder])"


class TestIntervalRecorder:
    def test_reset_clears_logs_and_clips_window(self):
        rec = IntervalRecorder()
        rec.occupy(Structure.ROB, 0, 0, 10, True)
        rec.on_reset(100)
        assert rec.intervals(Structure.ROB) == []
        rec.occupy(Structure.ROB, 0, 50, 150, True)   # clipped at 100
        assert rec.intervals(Structure.ROB) == [(0, 100, 150, True)]
        rec.occupy(Structure.ROB, 1, 90, 100, False)  # entirely pre-window
        assert len(rec.intervals(Structure.ROB)) == 1

    def test_replay_totals_match_engine_ledger(self):
        # The recorder and the engine consume the identical event stream;
        # their per-thread sums must agree exactly for bus-fed structures.
        sim = SimConfig(max_instructions=600, seed=6, record_intervals=True)
        session = SimSession(["bzip2", "gcc"], sim=sim)
        session.run()
        for structure in (Structure.IQ, Structure.REG, Structure.FU):
            ace_sums, unace_sums = session.recorder.replay_totals(structure)
            accounts = session.engine._shared.get(structure)
            if accounts is not None:
                ledger_ace = accounts.ace_cycles
            else:
                ledger_ace = {}
                for tid in range(2):
                    acct = session.engine.account(structure, tid)
                    for t, v in acct.ace_cycles.items():
                        ledger_ace[t] = ledger_ace.get(t, 0.0) + v
            for tid, total in ace_sums.items():
                assert total == pytest.approx(ledger_ace.get(tid, 0.0))
