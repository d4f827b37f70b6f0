"""Forking a paused core, and the batch driver that forks it per strike.

A live batch advances one golden driver core through its strikes in cycle
order and forks it only for strikes that need a faulty run of their own.
That shortcut must be invisible: a fork run to the end is the unforked
run, the driver is untouched by its forks, and every strike of a forked
batch gets exactly the record it gets as a batch of one (its own driver,
struck in place, never forked).
"""

import pytest

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.faultinject import InjectionOutcome, LiveConfig
from repro.faultinject.classify import DigestRecorder
from repro.faultinject.live import (
    INJECTABLE,
    LiveBatchJob,
    StrikeSpec,
    _StrikeDriver,
    draw_strike,
    golden_run,
    machine_capacity,
    run_one_strike,
)
from repro.pipeline.core import SMTCore
from repro.protection import ProtectionConfig, ProtectionScheme
from repro.sim.session import SimSession, functional_warmup, package_result
from repro.structures.strike import MbuConfig, entry_bits

WORKLOAD = ("gcc", "mcf")
SIM = SimConfig(max_instructions=400, seed=5)
LIVE = LiveConfig()

#: Found by sweeping ROB completion-status strikes on WORKLOAD/SIM: the
#: flip completes an unexecuted instruction early, a younger writer of the
#: same register commits and frees its destination, and the late
#: writeback raises — a contained-exception DUE.
CONTAINED_DUE = StrikeSpec(Structure.ROB, index=900, cycle=82, slot=36,
                           bit=66)


def _golden():
    return golden_run(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM)


# -- SMTCore.run(until=) and SMTCore.fork() ----------------------------------------


def _session(policy="ICOUNT", sim=SIM):
    session = SimSession(WORKLOAD, policy=policy, sim=sim,
                         observers=(DigestRecorder(),), taint=True)
    functional_warmup(session.core, session.traces)
    return session


def _finish(session, core):
    """Run ``core`` to the end; (SimResult payload, digest)."""
    cycles = core.run()
    recorder = next(s for s in core.instruments.bus.subscribers
                    if isinstance(s, DigestRecorder))
    result = package_result(core, session.workload, session.names,
                            core.policy, cycles)
    return result.to_payload(), recorder.digest()


class TestPausedRun:
    def test_until_pauses_after_the_cycle_and_resumes(self):
        session = _session()
        assert session.core.run(until=40) is None
        assert session.core.cycle == 40
        assert session.core.run(until=40) is None  # already there
        assert session.core.cycle == 40
        reference = _session()
        assert _finish(session, session.core)[0] == _finish(
            reference, reference.core)[0]

    def test_pause_on_the_final_cycle_does_not_finalize(self):
        golden = _golden()
        session = _session()
        assert session.core.run(until=golden.cycles) is None
        assert session.core.cycle == golden.cycles
        # Still open: drain and finalize happen on the resuming call.
        _, digest = _finish(session, session.core)
        assert digest == golden.digest

    def test_until_past_the_end_finishes_normally(self):
        golden = _golden()
        session = _session()
        assert session.core.run(until=golden.cycles + 500) == (
            golden.measured_cycles)
        assert session.core.cycle == golden.cycles


class TestFork:
    @pytest.fixture(scope="class")
    def reference(self):
        session = _session()
        return _finish(session, session.core)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_fork_runs_to_the_unforked_result(self, reference, where):
        golden = _golden()
        cycle = {"first": 1, "middle": golden.cycles // 2,
                 "last": golden.cycles - 1}[where]
        session = _session()
        session.core.run(until=cycle)
        fork = session.core.fork()
        assert fork.cycle == cycle
        assert _finish(session, fork) == reference
        # The fork's run left the driver exactly where it was: its own run
        # to the end is still the golden run.
        payload, digest = _finish(session, session.core)
        assert (payload, digest) == reference
        assert digest == golden.digest

    @pytest.mark.parametrize("policy", ["FLUSH", "FLUSHP", "PDG"])
    def test_stateful_policies_fork_exactly(self, policy):
        # These policies hold in-flight instructions (or their ids), so
        # the fork must remap them; squash-heavy mid-run is the hard case.
        sim = SimConfig(max_instructions=600, seed=2)
        session = _session(policy, sim)
        reference = _finish(session, session.core)
        session = _session(policy, sim)
        session.core.run(until=reference[0]["cycles"] // 2)
        assert _finish(session, session.core.fork()) == reference

    def test_only_immutable_state_is_shared(self):
        session = _session()
        session.core.run(until=100)
        fork = session.core.fork()
        shared_ok = {"config", "sim", "num_threads", "_rotations", "_taint"}
        for name, value in vars(session.core).items():
            if name in shared_ok or isinstance(value, (int, type(None))):
                continue
            if isinstance(value, tuple):  # hook tuples: copied hooks
                assert all(a is not b
                           for a, b in zip(value, vars(fork)[name])), name
                continue
            assert vars(fork)[name] is not value, name
        for ours, theirs in zip(session.core.threads, fork.threads):
            assert theirs.trace.instrs[0] is not ours.trace.instrs[0]
            assert theirs.rob is not ours.rob
            assert theirs.branch_unit.gshare is not ours.branch_unit.gshare

    def test_vector_backend_forwards_until(self):
        session = SimSession(WORKLOAD, sim=SIM, backend="vector")
        assert session.core.run(until=25) is None
        assert session.core.cycle == 25
        reference = SimSession(WORKLOAD, sim=SIM, backend="python")
        expected = reference.core.run()
        assert session.core.run() == expected


# -- forked batch == batch of one ---------------------------------------------------


def _alone(spec, protection):
    """The strike as a batch of one: its own driver, struck in place."""
    return run_one_strike(spec, WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                          _golden(), protection, LIVE)


def _job(structure, indices, seed, protection=ProtectionScheme.NONE,
         mbu=MbuConfig()):
    return LiveBatchJob(workload_name="+".join(WORKLOAD), programs=WORKLOAD,
                        policy="ICOUNT", config=DEFAULT_CONFIG, sim=SIM,
                        seed=seed,
                        protection=ProtectionConfig.coerce(protection),
                        live=LIVE, structure=structure,
                        indices=tuple(indices), mbu=mbu)


def _assert_batch_matches_alone(job):
    golden = _golden()
    payload = job.run()
    job.validate(payload)
    capacity = machine_capacity(job.structure, DEFAULT_CONFIG, 2)
    outcomes = []
    for index, record in zip(job.indices, payload["records"]):
        spec = draw_strike(job.seed, job.structure, index, golden.cycles,
                           capacity, entry_bits(job.structure), job.mbu)
        assert record == _alone(spec, job.protection).to_payload(), spec
        outcomes.append(record["outcome"])
    return outcomes


class TestBatchDifferential:
    @pytest.mark.parametrize("structure", INJECTABLE, ids=lambda s: s.value)
    def test_unprotected_single_bit(self, structure):
        outcomes = _assert_batch_matches_alone(
            _job(structure, range(8), seed=21))
        assert len(outcomes) == 8

    def test_rob_batch_with_a_hang(self):
        # Campaign seed 2 draws a ROB completion-bit strike (index 10)
        # that strands the commit head until the watchdog trips.
        outcomes = _assert_batch_matches_alone(
            _job(Structure.ROB, range(6, 12), seed=2))
        assert "HANG" in outcomes

    @pytest.mark.parametrize("scheme", [ProtectionScheme.PARITY,
                                        ProtectionScheme.SECDED])
    def test_protected_multi_bit(self, scheme):
        outcomes = []
        for structure in (Structure.IQ, Structure.LSQ_TAG):
            outcomes += _assert_batch_matches_alone(
                _job(structure, range(8), seed=7, protection=scheme,
                     mbu=MbuConfig(max_len=3)))
        assert {"DUE", "MASKED_IDLE"} <= set(outcomes)

    def test_contained_exception_due(self):
        golden = _golden()
        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        early = StrikeSpec(Structure.IQ, index=901, cycle=40, slot=3, bit=5)
        late = StrikeSpec(Structure.REG, index=902, cycle=300, slot=7, bit=1)
        none = ProtectionConfig.coerce(ProtectionScheme.NONE)
        forked = [run_one_strike(spec, WORKLOAD, "ICOUNT", DEFAULT_CONFIG,
                                 SIM, golden, none, LIVE, driver)
                  for spec in (early, CONTAINED_DUE, late)]
        assert forked[1].outcome is InjectionOutcome.DUE
        assert forked[1].detail.startswith("contained StructureError")
        for spec, record in zip((early, CONTAINED_DUE, late), forked):
            assert record.to_payload() == _alone(spec, none).to_payload()


# -- short-circuits never fork ------------------------------------------------------


class TestShortCircuits:
    @pytest.fixture
    def fork_calls(self, monkeypatch):
        calls = []
        original = SMTCore.fork

        def spy(core):
            calls.append(core.cycle)
            return original(core)

        monkeypatch.setattr(SMTCore, "fork", spy)
        return calls

    def test_idle_and_protection_resolved_strikes_never_fork(self,
                                                             fork_calls):
        payload = _job(Structure.IQ, range(16), seed=3,
                       protection=ProtectionScheme.PARITY).run()
        outcomes = {r["outcome"] for r in payload["records"]}
        assert outcomes == {"MASKED_IDLE", "DUE"}
        assert fork_calls == []

    def test_only_applied_unresolved_strikes_fork(self, fork_calls):
        payload = _job(Structure.IQ, range(16), seed=3).run()
        applied = [r for r in payload["records"]
                   if r["outcome"] != "MASKED_IDLE"]
        assert applied and len(fork_calls) == len(applied)
        assert fork_calls == sorted(fork_calls)  # one pass, cycle order

    def test_batch_of_one_never_forks(self, fork_calls):
        golden = _golden()
        spec = StrikeSpec(Structure.IQ, index=0, cycle=golden.cycles // 2,
                          slot=0, bit=0)
        record = _alone(spec, ProtectionScheme.NONE)
        assert record.outcome is not InjectionOutcome.MASKED_IDLE
        assert fork_calls == []
