"""Forking a paused core, and the strike driver that forks it per strike.

A live campaign advances one golden driver core through all its pending
strikes in cycle order and forks it only for strikes that need a faulty
run of their own.  Those shortcuts must be invisible: a fork run to the
end is the unforked run, the driver is untouched by its forks, every
strike of a forked batch gets exactly the record it gets as a batch of
one (its own driver, struck in place, never forked), and every batch of
a campaign struck on one shared driver gets exactly the payload it gets
run alone.
"""

import json
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.faultinject import InjectionOutcome, LiveConfig
from repro.faultinject import live as live_module
from repro.faultinject.classify import DigestRecorder
from repro.faultinject.live import (
    INJECTABLE,
    LiveBatchJob,
    StrikeSpec,
    _StrikeDriver,
    draw_strike,
    golden_run,
    machine_capacity,
    plan_live_batches,
    run_batches,
    run_live_campaign,
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


# -- one campaign driver == every batch alone -------------------------------------


def _campaign(structures, seed, protection=ProtectionScheme.NONE,
              mbu=MbuConfig(), injections=8, strike_batch=4):
    return plan_live_batches(list(WORKLOAD), injections=injections,
                             structures=structures, sim=SIM, seed=seed,
                             protection=protection, mbu=mbu,
                             live=replace(LIVE, strike_batch=strike_batch))


def _assert_campaign_matches_alone(jobs):
    """Strike ``jobs`` on one shared driver; every batch's payload must be
    byte-equal to the batch run alone.  Returns the shared-driver records."""
    shared = {}
    for job, payload in run_batches(jobs):
        assert job.digest() not in shared, f"{job.label} yielded twice"
        shared[job.digest()] = payload
    assert len(shared) == len(jobs)
    records = []
    for job in jobs:
        payload = shared[job.digest()]
        job.validate(payload)
        assert (json.dumps(payload, sort_keys=True)
                == json.dumps(job.run(), sort_keys=True)), job.label
        records += payload["records"]
    return records


class TestCampaignDifferential:
    def test_all_structures_unprotected_single_bit(self):
        records = _assert_campaign_matches_alone(
            _campaign(INJECTABLE, seed=21))
        assert len(records) == 8 * len(INJECTABLE)
        assert {"MASKED_IDLE", "MASKED", "SDC"} <= {r["outcome"]
                                                     for r in records}

    @pytest.mark.parametrize("scheme", [ProtectionScheme.NONE,
                                        ProtectionScheme.PARITY,
                                        ProtectionScheme.SECDED])
    def test_multi_bit_under_protection(self, scheme):
        records = _assert_campaign_matches_alone(
            _campaign((Structure.IQ, Structure.LSQ_TAG), seed=7,
                      protection=scheme, mbu=MbuConfig(max_len=3)))
        assert any(r.get("cluster_len", 1) > 1 for r in records)
        if scheme is not ProtectionScheme.NONE:
            assert "DUE" in {r["outcome"] for r in records}

    def test_rob_batch_with_a_hang(self):
        # Seed 2's ROB strike 10 (the HANG of TestBatchDifferential) in
        # the second of three ROB batches, next to two IQ batches.
        records = _assert_campaign_matches_alone(
            _campaign((Structure.IQ, Structure.ROB), seed=2, injections=12))
        assert any(r["outcome"] == "HANG" and r["index"] == 10
                   for r in records)

    def test_contained_exception_due(self, monkeypatch):
        # No drawn strike of this configuration crashes the simulator, so
        # ROB strike 5 is replaced by the known contained-exception DUE —
        # in the shared-driver campaign and in the batch run alone alike.
        original = draw_strike

        def draw(seed, structure, index, *args):
            if structure is Structure.ROB and index == 5:
                return replace(CONTAINED_DUE, index=index)
            return original(seed, structure, index, *args)

        monkeypatch.setattr(live_module, "draw_strike", draw)
        records = _assert_campaign_matches_alone(
            _campaign((Structure.ROB, Structure.REG), seed=3))
        due = next(r for r in records
                   if r["structure"] == "ROB" and r["index"] == 5)
        assert due["outcome"] == "DUE"
        assert due["detail"].startswith("contained StructureError")

    def test_partly_warm_cache_strikes_only_pending_batches(
            self, tmp_path, monkeypatch):
        kw = dict(injections=8, structures=(Structure.IQ, Structure.REG),
                  sim=SIM, seed=9, live=replace(LIVE, strike_batch=4))
        run_live_campaign(list(WORKLOAD), cache_dir=tmp_path, **kw)
        entries = {path.name: path.read_bytes()
                   for path in tmp_path.glob("live-*.json")}
        jobs = plan_live_batches(list(WORKLOAD), **kw)
        pending = jobs[1::2]
        for job in pending:
            (tmp_path / f"live-{job.digest()}.json").unlink()

        struck = []
        original = run_one_strike

        def spy(spec, *args):
            struck.append((spec.structure.value, spec.index))
            return original(spec, *args)

        monkeypatch.setattr(live_module, "run_one_strike", spy)
        again = run_live_campaign(list(WORKLOAD), cache_dir=tmp_path, **kw)
        assert (again.batches_cached, again.batches_executed) == (2, 2)
        assert sorted(struck) == sorted(
            (job.structure.value, index)
            for job in pending for index in job.indices)
        assert {path.name: path.read_bytes()
                for path in tmp_path.glob("live-*.json")} == entries
        monkeypatch.undo()
        _assert_campaign_matches_alone(pending)


# -- the inline campaign's shape ------------------------------------------------------


class TestInlineCampaignShape:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Count driver constructions and functional warmups, starting from
        an empty golden-run memo."""
        counts = {"drivers": 0, "warmups": 0}
        init = _StrikeDriver.__init__
        warmup = live_module.functional_warmup

        def counted_init(self, *args, **kwargs):
            counts["drivers"] += 1
            init(self, *args, **kwargs)

        def counted_warmup(*args):
            counts["warmups"] += 1
            return warmup(*args)

        monkeypatch.setattr(_StrikeDriver, "__init__", counted_init)
        monkeypatch.setattr(live_module, "functional_warmup", counted_warmup)
        monkeypatch.setattr(live_module, "_GOLDEN_MEMO", OrderedDict())
        return counts

    @pytest.mark.parametrize("strike_batch", [1, 3, 6])
    def test_one_driver_and_two_warmups_whatever_the_batch_count(
            self, counts, strike_batch):
        landed = []
        result = run_live_campaign(
            list(WORKLOAD), injections=6,
            structures=(Structure.IQ, Structure.ROB), sim=SIM, seed=4,
            live=replace(LIVE, strike_batch=strike_batch),
            on_batch=lambda job, payload: landed.append((job, payload)))
        batches = 2 * (6 // strike_batch)
        assert counts == {"drivers": 1, "warmups": 2}
        assert (result.batches_cached, result.batches_executed) == (
            0, batches)
        assert len(landed) == batches
        assert len({job.digest() for job, _ in landed}) == batches
        for job, payload in landed:
            job.validate(payload)  # one record per index, in index order
            assert [r["index"] for r in payload["records"]] == list(
                job.indices)

    def test_batch_counts_with_a_cache(self, counts, tmp_path):
        kw = dict(injections=6, structures=(Structure.IQ,), sim=SIM, seed=4,
                  live=replace(LIVE, strike_batch=2), cache_dir=tmp_path)
        first = run_live_campaign(list(WORKLOAD), **kw)
        assert (first.batches_cached, first.batches_executed) == (0, 3)
        landed = []
        warm = run_live_campaign(
            list(WORKLOAD), on_batch=lambda job, _: landed.append(job), **kw)
        assert (warm.batches_cached, warm.batches_executed) == (3, 0)
        assert len(landed) == 3
        assert counts["drivers"] == 1  # the warm run struck nothing
        assert warm.summary() == first.summary()

    @pytest.mark.parametrize("change", [{"seed": 22},
                                        {"protection": ProtectionConfig.coerce(
                                            ProtectionScheme.PARITY)}],
                             ids=["seed", "protection"])
    def test_jobs_of_two_campaigns_are_refused(self, change):
        job = _job(Structure.IQ, range(4), seed=21)
        other = replace(job, indices=(4, 5, 6, 7), **change)
        with pytest.raises(ValueError, match="not a batch of the campaign"):
            next(run_batches([job, other]))


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
