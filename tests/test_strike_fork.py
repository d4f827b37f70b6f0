"""Forking a paused core, and the strike driver that forks it per strike.

A live campaign advances one golden driver core through all its pending
strikes in cycle order and forks it only for strikes that need a faulty
run of their own.  Those shortcuts must be invisible: a fork run to the
end is the unforked run, the driver is untouched by its forks, every
strike of a forked batch gets exactly the record it gets as a batch of
one (its own driver, struck in place, never forked), and every batch of
a campaign struck on one shared driver gets exactly the payload it gets
run alone.  So must the replay that decides a taint-only strike without a
faulty run: every strike gets the record it gets when it is forked and its
run goes to the end.
"""

import json
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.faultinject import InjectionOutcome, LiveConfig
from repro.faultinject import live as live_module
from repro.avf.engine import AvfEngine
from repro.errors import ReproError
from repro.experiments.validate_injection import (VALIDATION_BUDGET_CAP,
                                                  VALIDATION_WORKLOAD)
from repro.faultinject.classify import DataflowLog, DigestRecorder, TaintReplay
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
from repro.isa.instruction import AceClass, DynInstr
from repro.pipeline.core import (FLOW_COMMIT, FLOW_ISSUE, FLOW_WRITEBACK,
                                 SMTCore)
from repro.protection import ProtectionConfig, ProtectionScheme
from repro.sim import session as session_module
from repro.sim.session import SimSession, functional_warmup, package_result
from repro.structures.strike import MbuConfig, entry_bits, locate_field
from repro.workload.mixes import get_mix

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


class TestStrikeRange:
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_a_strike_outside_the_golden_run_is_refused(self, where):
        golden = _golden()
        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        cycle = 0 if where == "before" else golden.cycles + 5
        spec = StrikeSpec(Structure.IQ, index=0, cycle=cycle, slot=0, bit=0)
        for shared in (driver, None):
            with pytest.raises(ReproError,
                               match=rf"cycle {cycle} .*\[1, {golden.cycles}\]"):
                run_one_strike(spec, WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, ProtectionScheme.NONE, LIVE, shared)

    def test_advancing_past_the_end_is_no_verdict(self):
        golden = _golden()
        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        driver.advance(golden.cycles + 5)
        assert driver.core.cycle == golden.cycles
        assert driver.failure is None


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
        for fork_first in (True, False):
            session = _session()
            session.core.run(until=cycle)
            fork = session.core.fork()
            assert fork.cycle == cycle
            # Whichever runs first leaves the other exactly where it was:
            # the fork's run is the unforked run, and the driver's own run
            # to the end is still the golden run.
            runs = ((fork, session.core) if fork_first
                    else (session.core, fork))
            for core in runs:
                assert _finish(session, core) == reference, fork_first
        assert reference[1] == golden.digest

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
            assert 0 < ours.committed < ours.fetch_index < len(ours.trace)
            # The read-only trace is shared; every instruction in flight
            # is copied.
            assert theirs.trace is ours.trace
            mine, its = list(ours.rob), list(theirs.rob)
            assert mine and len(mine) == len(its)
            assert all(a is not b for a, b in zip(mine, its))
            assert [_slot_values(a) for a in mine] == [
                _slot_values(b) for b in its]
            assert theirs.rob is not ours.rob
            assert theirs.branch_unit.gshare is not ours.branch_unit.gshare


# -- what a fork shares, nobody writes ----------------------------------------------
#
# A fork shares its parent's traces for good and every cache and TLB set
# until one side writes it.  Sharing is safe only if neither run writes any
# of that: snapshot it at the fork, run both cores to the end in either
# order, and the snapshot must still hold.


def _slot_values(instr):
    return tuple(getattr(instr, name) for name in DynInstr.__slots__)


def _shared_instrs(core):
    """(record, its slot values) for every trace record a fork taken now
    shares with ``core``: all of them."""
    return [(instr, _slot_values(instr))
            for t in core.threads for instr in t.trace.instrs]


def _memory_contents(core):
    """Every resident cache line and TLB entry, per set in LRU order."""
    mem = core.mem
    caches = [[[(tag, line.fill_cycle, line.last_access_cycle,
                 tuple(line.word_last_read), tuple(line.word_last_write),
                 tuple(line.word_dirty), line.accesses)
                for tag, line in entries.items()]
               for entries in cache._sets]
              for cache in (mem.il1, mem.dl1, mem.l2)]
    tlbs = [[[(vpn, e.fill_cycle, e.last_use_cycle, e.uses)
              for vpn, e in entries.items()]
             for entries in tlb._sets]
            for tlb in (mem.itlb, mem.dtlb)]
    return caches, tlbs


def _strike_lsq_address(core):
    """Flip an address bit of an in-flight LSQ entry (a structural strike
    on a field the trace record holds too), as the strike driver does;
    (receipt, the struck instruction)."""
    for tid, thread in enumerate(core.threads):
        for index, instr in enumerate(thread.lsq._entries):
            if instr.issued_at < 0 and not instr.wrong_path:
                slot = tid * DEFAULT_CONFIG.lsq_entries + index
                return core.inject_bit(Structure.LSQ_TAG, slot, 13), instr
    raise AssertionError("no unissued LSQ entry to strike")


class TestSharedStateOwnership:
    @pytest.mark.parametrize("fork_first", [True, False],
                             ids=["fork_first", "parent_first"])
    @pytest.mark.parametrize("case", ["ICOUNT", "FLUSH", "FLUSHP", "PDG",
                                      "LSQ_address_strike"])
    def test_shared_state_is_never_written(self, case, fork_first):
        policy = "ICOUNT" if case == "LSQ_address_strike" else case
        sim = SimConfig(max_instructions=600, seed=2)
        session = _session(policy, sim)
        reference = _finish(session, session.core)
        session = _session(policy, sim)
        core = session.core
        core.run(until=reference[0]["cycles"] // 2)
        shared = _shared_instrs(core)
        memory = _memory_contents(core)
        if case == "LSQ_address_strike":
            receipt, struck = _strike_lsq_address(core)
            try:
                fork = core.fork()
            finally:
                receipt.undo()
            copy = next(i for i in fork.threads[struck.thread_id].lsq._entries
                        if i.fetch_stamp == struck.fetch_stamp)
            assert copy is not struck and copy.mem_addr != struck.mem_addr
        else:
            fork = core.fork()
        assert _memory_contents(fork) == memory

        first, second = (fork, core) if fork_first else (core, fork)
        first_result = _finish(session, first)
        # The first run wrote only sets it owns: the other core's caches
        # and TLBs are still as the fork left them.
        assert _memory_contents(second) == memory
        second_result = _finish(session, second)
        for instr, values in shared:
            assert _slot_values(instr) == values, instr
        parent_result = second_result if fork_first else first_result
        assert parent_result == reference
        fork_result = first_result if fork_first else second_result
        if case != "LSQ_address_strike":
            assert fork_result == reference


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
        # ... and of those only the structural ones: an IQ strike is
        # structural when it hits the scheduler bits (seed 6 draws two).
        payload = _job(Structure.IQ, range(16), seed=6).run()
        applied = [r for r in payload["records"]
                   if r["outcome"] != "MASKED_IDLE"]
        structural = [r for r in applied
                      if locate_field(Structure.IQ, r["bit"])[0] == "sched"]
        assert structural and len(structural) < len(applied)
        assert len(fork_calls) == len(structural)
        assert fork_calls == sorted(fork_calls)  # one pass, cycle order

    def test_taint_only_strikes_neither_fork_nor_simulate(self, fork_calls):
        golden = _golden()
        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        cycle = golden.cycles // 2
        driver.advance(cycle)
        none = ProtectionConfig.coerce(ProtectionScheme.NONE)
        outcomes = set()
        for slot in range(8):
            spec = StrikeSpec(Structure.IQ, index=slot, cycle=cycle,
                              slot=slot, bit=slot)
            outcome, _, target = driver.strike(spec, none, fork=True)
            assert outcome in (InjectionOutcome.SDC, InjectionOutcome.MASKED)
            outcomes.add(outcome)
            assert driver.core.cycle == cycle and target
        assert fork_calls == [] and len(outcomes) == 2

    def test_batch_of_one_never_forks(self, fork_calls):
        golden = _golden()
        spec = StrikeSpec(Structure.IQ, index=0, cycle=golden.cycles // 2,
                          slot=0, bit=60)  # a structural scheduler bit
        record = _alone(spec, ProtectionScheme.NONE)
        assert record.outcome is not InjectionOutcome.MASKED_IDLE
        assert fork_calls == []


# -- taint-only strikes: the dataflow replay ------------------------------------------
#
# A taint-only strike is decided by replaying its victim's taint over the
# golden run's dataflow log.  The oracle is what the replay replaced: a fork
# of the driver, struck the same way and run to the end.  These helpers
# build that fork; nothing in the library can be switched back to it.


def _fork_to_the_end(monkeypatch, ends=None, memo=None):
    """Make :meth:`_StrikeDriver.strike` decide every applied, unresolved,
    taint-only strike on a fork run to the end instead of by replay.

    ``ends`` collects each such fork's (final cycle, commits); ``memo``
    caches outcomes by strike point, which decides a strike on its own."""
    original = _StrikeDriver.strike

    def strike(self, spec, protection, fork):
        if (self.failure is not None or protection.resolve(
                spec.structure, spec.effective_length) is not None):
            return original(self, spec, protection, fork)
        point = (spec.structure, spec.cycle, spec.slot, spec.bit,
                 spec.length)
        if memo is not None and point in memo:
            return memo[point]
        receipt = self.core.inject_bit(spec.structure, spec.slot, spec.bit,
                                       spec.length)
        if not (receipt.applied and receipt.taint_only):
            receipt.undo()
            return original(self, spec, protection, fork)
        try:
            run = self.core.fork()
        finally:
            receipt.undo()
        decided = (*self.finish(run), receipt.target)
        if ends is not None:
            ends.append((run.cycle, run.total_committed))
        if memo is not None:
            memo[point] = decided
        return decided

    monkeypatch.setattr(_StrikeDriver, "strike", strike)


class _Replays:
    """Spy on :meth:`TaintReplay.run`: every replay's cycle and result."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = TaintReplay.run

        def spy(replay, log, cycle):
            corrupts = original(replay, log, cycle)
            self.calls.append((cycle, corrupts))
            return corrupts

        monkeypatch.setattr(TaintReplay, "run", spy)


def _records(jobs):
    return json.dumps([payload for _job, payload in run_batches(jobs)],
                      sort_keys=True)


def _assert_replay_exact(monkeypatch, jobs, memo=None):
    """Strike ``jobs`` as the library does, then again with every taint-only
    strike forked and run to the end: the records must be byte-equal.
    Returns the replays of the first pass and its records.  Undoes every
    earlier patch of ``monkeypatch`` between the passes."""
    replays = _Replays(monkeypatch)
    replayed = _records(jobs)
    monkeypatch.undo()
    _fork_to_the_end(monkeypatch, memo=memo)
    assert _records(jobs) == replayed
    return replays.calls, [record for payload in json.loads(replayed)
                           for record in payload["records"]]


class TestEarlyExitDifferential:
    def test_all_structures_unprotected_single_bit(self, monkeypatch):
        replays, _ = _assert_replay_exact(
            monkeypatch, _campaign(INJECTABLE, seed=21))
        assert {True, False} <= {corrupts for *_, corrupts in replays}

    @pytest.mark.parametrize("scheme", [ProtectionScheme.NONE,
                                        ProtectionScheme.PARITY,
                                        ProtectionScheme.SECDED])
    def test_multi_bit_under_protection(self, monkeypatch, scheme):
        replays, records = _assert_replay_exact(
            monkeypatch, _campaign(INJECTABLE, seed=7, protection=scheme,
                                   mbu=MbuConfig(max_len=3), injections=24,
                                   strike_batch=8))
        assert replays
        assert any(r.get("cluster_len", 1) == 3 for r in records)

    def test_rob_hang(self, monkeypatch):
        _, records = _assert_replay_exact(
            monkeypatch, _campaign((Structure.IQ, Structure.ROB), seed=2,
                                   injections=12))
        assert any(r["outcome"] == "HANG" and r["index"] == 10
                   for r in records)

    def test_contained_exception_due(self, monkeypatch):
        original = draw_strike

        def draw(seed, structure, index, *args):
            if structure is Structure.ROB and index == 5:
                return replace(CONTAINED_DUE, index=index)
            return original(seed, structure, index, *args)

        monkeypatch.setattr(live_module, "draw_strike", draw)
        jobs = _campaign((Structure.ROB, Structure.REG), seed=3)
        replayed = _records(jobs)
        _fork_to_the_end(monkeypatch)
        assert _records(jobs) == replayed
        due = next(r for payload in json.loads(replayed)
                   for r in payload["records"]
                   if r["structure"] == "ROB" and r["index"] == 5)
        assert due["detail"].startswith("contained StructureError")

    def test_taint_only_runs_are_the_golden_run(self, monkeypatch):
        # The premise of the replay: a strike that wrote only taint changes
        # no kernel decision, so its run, taken to the end, ends exactly
        # where the golden run does, with the same number of commits.
        golden = _golden()
        ends = []
        _fork_to_the_end(monkeypatch, ends=ends)
        forks = []
        original = SMTCore.fork
        monkeypatch.setattr(SMTCore, "fork",
                            lambda core: forks.append(1) or original(core))
        for _ in run_batches(_campaign(INJECTABLE, seed=21, injections=16,
                                       mbu=MbuConfig(max_len=3))):
            pass
        assert len(ends) > 20 and len(forks) > len(ends)  # and structural
        assert set(ends) == {(golden.cycles, golden.committed)}


# The replay's differential runs on the injection_validation artefact's
# configuration: unlike WORKLOAD/SIM, its golden run squashes and forwards.
VALIDATION_MIX = get_mix(VALIDATION_WORKLOAD)
VALIDATION_SIM = SimConfig(
    max_instructions=VALIDATION_BUDGET_CAP * VALIDATION_MIX.num_threads,
    seed=1)

#: Found by sweeping FLUSH budgets: the shared budget ends this run while
#: FLUSH keeps two threads from refetching the renamed correct-path
#: instructions it squashed, one of them a cycle before the end.
FLUSH_MIX = ("gcc", "mcf", "perlbmk", "twolf")
FLUSH_SIM = SimConfig(max_instructions=300, seed=1)


def _validation_golden():
    return golden_run(VALIDATION_MIX, "ICOUNT", DEFAULT_CONFIG,
                      VALIDATION_SIM)


class TestReplayDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_taint_only_strike(self, monkeypatch, seed):
        # Six structures x none/parity/SECDED x single-bit/3-bit MBU.
        # Protection and MBU reuse the unprotected single-bit strike points,
        # so the forks run to the end are shared by strike point.
        memo = {}
        replays = []
        for mbu in (MbuConfig(), MbuConfig(max_len=3)):
            for scheme in (ProtectionScheme.NONE, ProtectionScheme.PARITY,
                           ProtectionScheme.SECDED):
                jobs = plan_live_batches(
                    VALIDATION_MIX, injections=24, sim=VALIDATION_SIM,
                    seed=seed, protection=scheme, mbu=mbu)
                calls, _ = _assert_replay_exact(monkeypatch, jobs, memo)
                monkeypatch.undo()
                replays += calls
        assert len(replays) > 60
        assert {True, False} <= {corrupts for _, corrupts in replays}

    @pytest.mark.parametrize("policy", ["FLUSH", "FLUSHP", "PDG"])
    def test_policies_that_squash_the_correct_path(self, monkeypatch,
                                                   policy):
        memo = {}
        replays = []
        for mbu in (MbuConfig(), MbuConfig(max_len=3)):
            jobs = plan_live_batches(
                VALIDATION_MIX, injections=24, sim=VALIDATION_SIM, seed=1,
                policy=policy, mbu=mbu)
            calls, _ = _assert_replay_exact(monkeypatch, jobs, memo)
            monkeypatch.undo()
            replays += calls
        assert len(replays) > 20
        assert {True, False} <= {corrupts for _, corrupts in replays}

    def test_strikes_on_instructions_flushed_at_the_end(self, monkeypatch):
        # Squashed, an instruction is not ACE, so finalize does not count
        # its taint as pending although it was never refetched: MASKED,
        # replayed and forked alike.
        golden = golden_run(FLUSH_MIX, "FLUSH", DEFAULT_CONFIG, FLUSH_SIM)
        end = _StrikeDriver(FLUSH_MIX, "FLUSH", DEFAULT_CONFIG, FLUSH_SIM,
                            golden, LIVE).core
        # The last squashed instance of each trace instruction; stranded if
        # nothing refetched it before the end.
        squashed = {}
        on_squash = end.policy.on_squash

        def record(core, instr):
            squashed[instr.thread_id, instr.seq] = instr
            on_squash(core, instr)

        end.policy.on_squash = record
        end.run()
        stranded = sorted(
            (instr.renamed_at, tid, instr.fetch_stamp)
            for (tid, seq), instr in squashed.items()
            if seq >= end.threads[tid].fetch_index and instr.renamed_at >= 0
            and instr.committed_at < 0 and instr.ace is AceClass.ACE)
        assert len(stranded) == 5 and stranded[-1][0] >= golden.cycles - 12
        payload = next(bit for bit in range(entry_bits(Structure.ROB))
                       if locate_field(Structure.ROB, bit)[0] != "status")
        none = ProtectionConfig.coerce(ProtectionScheme.NONE)

        def strikes():
            driver = _StrikeDriver(FLUSH_MIX, "FLUSH", DEFAULT_CONFIG,
                                   FLUSH_SIM, golden, LIVE)
            for cycle, tid, stamp in stranded:
                driver.advance(cycle)
                rob = [i.fetch_stamp for i in driver.core.threads[tid].rob]
                spec = StrikeSpec(
                    Structure.ROB, index=0, cycle=cycle, bit=payload,
                    slot=tid * DEFAULT_CONFIG.rob_entries + rob.index(stamp))
                yield driver.strike(spec, none, fork=True)

        replays = _Replays(monkeypatch)
        replayed = list(strikes())
        assert len(replays.calls) == len(stranded)
        assert {outcome for outcome, *_ in replayed} == {
            InjectionOutcome.MASKED}
        monkeypatch.undo()
        _fork_to_the_end(monkeypatch)
        assert list(strikes()) == replayed


class TestDataflowLog:
    @pytest.mark.parametrize("case", ["gcc+mcf", "validation", "FLUSH"])
    def test_the_golden_log_is_the_drivers(self, case):
        # The replay reads the log of the golden run, which keeps a ledger;
        # strikes land on the ledger-free driver.  Run to the end with a log
        # of its own, the driver must record the very same events.
        workload, sim, policy = {
            "gcc+mcf": (WORKLOAD, SIM, "ICOUNT"),
            "validation": (VALIDATION_MIX, VALIDATION_SIM, "ICOUNT"),
            "FLUSH": (FLUSH_MIX, FLUSH_SIM, "FLUSH")}[case]
        golden = golden_run(workload, policy, DEFAULT_CONFIG, sim)
        driver = _StrikeDriver(workload, policy, DEFAULT_CONFIG, sim, golden,
                               LIVE)
        driver.core.flow_log = []
        driver.core.run()
        log = DataflowLog.of(driver.core)
        assert log.events == golden.flow.events
        assert log.pending == golden.flow.pending
        assert {event[1] for event in log.events} == {
            FLOW_ISSUE, FLOW_WRITEBACK, FLOW_COMMIT}

    def test_only_the_golden_run_records(self):
        golden = _golden()
        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        driver.advance(golden.cycles // 2)
        assert driver.core.flow_log is None
        assert driver.core.fork().flow_log is None
        session = SimSession(WORKLOAD, sim=SIM)
        session.core.run()
        assert session.core.flow_log is None


# -- each replay rule is needed -----------------------------------------------------
#
# The replay's rules are TaintReplay's issue, writeback and commit methods,
# the overwrite half of commit (a clean commit clears a tainted architectural
# register) and at_end.  A case is a (cycle, victim) pair — a physical
# register or an in-flight instance of the validation golden run — whose
# replay the rule takes part in: it changes the tainted sets, or decides SDC
# (at_end: the pending set decides).  Every case used below is checked
# against a fork with the same taint planted, run to the end.

RULES = ("issue", "writeback", "commit", "overwrite", "at_end")

TOKEN = (1 << 40) | 1


class _Traced(TaintReplay):
    """A replay that records in ``fired`` the rules taking part in it."""

    def __init__(self, victim):
        super().__init__(victim)
        self.fired = set()

    def _traced(self, name, rule, event):
        sizes = (len(self.instances), len(self.registers), len(self.arch))
        verdict = rule(event)
        if verdict is True or sizes != (
                len(self.instances), len(self.registers), len(self.arch)):
            self.fired.add(name)
        return verdict

    def issue(self, event):
        return self._traced("issue", super().issue, event)

    def writeback(self, event):
        return self._traced("writeback", super().writeback, event)

    def commit(self, event):
        _, _, instance, thread, dest, *_ = event
        name = ("overwrite" if instance not in self.instances
                and (thread, dest) in self.arch else "commit")
        return self._traced(name, super().commit, event)

    def at_end(self, pending):
        if self.instances and not self.arch:
            self.fired.add("at_end")
        return super().at_end(pending)


class _NoOverwrite(TaintReplay):
    def commit(self, event):
        if event[2] not in self.instances:
            event = (*event[:4], None, *event[5:])  # overwrites nothing
        return super().commit(event)


def _dropped(rule):
    """TaintReplay with ``rule`` dropped."""
    if rule == "overwrite":
        return _NoOverwrite
    if rule == "at_end":
        return type("NoAtEnd", (TaintReplay,),
                    {"at_end": lambda self, pending: bool(self.arch)})
    return type(f"No{rule}", (TaintReplay,),
                {rule: lambda self, event: None})


def _planted(driver, victim):
    """The oracle for a hand-made case: plant ``victim``'s taint on a fork
    of ``driver`` and run it to the end.  True when it ends SDC."""
    fork = driver.core.fork()
    if isinstance(victim, int):
        fork.regfile._meta[victim].tag = TOKEN
    else:
        thread, stamp = victim
        (instr,) = [i for i in fork.threads[thread].rob
                    if i.fetch_stamp == stamp]
        instr.value_tag = TOKEN
    outcome = driver.finish(fork)[0]
    assert outcome in (InjectionOutcome.SDC, InjectionOutcome.MASKED)
    return outcome is InjectionOutcome.SDC


@pytest.fixture(scope="module")
def rule_cases():
    """Hand-made cases of the validation golden run, (cycle, victim,
    corrupts, fired rules), each checked against its planted fork: the
    first case of each (rule, outcome) found, and the first case where
    dropping a rule flips the outcome."""
    golden = _validation_golden()
    log = golden.flow
    driver = _StrikeDriver(VALIDATION_MIX, "ICOUNT", DEFAULT_CONFIG,
                           VALIDATION_SIM, golden, LIVE)
    decided, flipped, cases = set(), set(), []
    for cycle in range(40, golden.cycles, 160):
        driver.advance(cycle)
        core = driver.core
        victims = sorted(core.regfile._meta) + [
            (t.id, instr.fetch_stamp) for t in core.threads
            for instr in t.rob]
        for victim in victims:
            replay = _Traced(victim)
            corrupts = replay.run(log, cycle)
            new = {(rule, corrupts) for rule in replay.fired} - decided
            flips = {rule for rule in replay.fired - flipped
                     if _dropped(rule)(victim).run(log, cycle)
                     is not corrupts}
            if new or flips:
                assert _planted(driver, victim) is corrupts, (cycle, victim)
                cases.append((cycle, victim, corrupts, replay.fired))
                decided |= new
                flipped |= flips
    return cases


class TestLiveTaintClauses:
    def test_every_clause_has_a_case(self, rule_cases):
        decided = {(rule, corrupts) for _, _, corrupts, fired in rule_cases
                   for rule in fired}
        for rule in RULES:
            assert (rule, True) in decided, f"{rule}: no SDC case"
            assert (rule, False) in decided, f"{rule}: no MASKED case"

    @pytest.mark.parametrize("rule", RULES)
    def test_dropping_the_clause_breaks_the_exit(self, rule_cases, rule):
        log = _validation_golden().flow
        assert any(
            _dropped(rule)(victim).run(log, cycle) is not corrupts
            for cycle, victim, corrupts, fired in rule_cases
            if rule in fired), f"dropping {rule} flipped no outcome"

    def test_the_stranded_plant_leaves_the_driver_alone(self):
        golden = _golden()
        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        driver.advance(golden.cycles // 2)
        fork = driver.core.fork()
        before = _shared_instrs(driver.core) + [
            (instr, _slot_values(instr))
            for t in driver.core.threads for instr in t.rob]
        # Taint that finalize counts as pending: an ACE instruction still
        # in flight when the shared budget ends the run.  Paused on the
        # final cycle, the fork has not finalized yet.
        assert fork.run(until=golden.cycles) is None
        instr = next(i for t in fork.threads for i in t.rob if i.is_ace)
        instr.value_tag = TOKEN
        assert driver.finish(fork)[0] is InjectionOutcome.SDC
        assert [(i, _slot_values(i)) for i, _ in before] == before
        assert driver.finish(driver.core)[0] is InjectionOutcome.MASKED


# -- faulty runs carry no ledger ------------------------------------------------------


class TestLedgerFreeDriver:
    def test_only_the_golden_run_keeps_a_ledger(self, monkeypatch):
        sessions = []

        class Recorded(SimSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sessions.append(self)

        monkeypatch.setattr(live_module, "SimSession", Recorded)
        monkeypatch.setattr(live_module, "_GOLDEN_MEMO", OrderedDict())
        golden = _golden()
        (golden_session,) = sessions
        assert any(isinstance(sub, AvfEngine)
                   for sub in golden_session.bus.subscribers)
        assert golden.avf[Structure.IQ] > 0

        driver = _StrikeDriver(WORKLOAD, "ICOUNT", DEFAULT_CONFIG, SIM,
                               golden, LIVE)
        driver.advance(golden.cycles // 2)
        fork = driver.core.fork()
        for core in (driver.core, fork):
            assert core.engine is None
            assert not any(isinstance(sub, AvfEngine)
                           for sub in core.instruments.bus.subscribers)

    @pytest.mark.parametrize("observed", [{"check_invariants": 50},
                                          {"check_invariants": 1},
                                          {"phase_window_cycles": 100}],
                             ids=["check_invariants", "check_every_cycle",
                                  "phase_window_cycles"])
    def test_campaign_under_ledger_observers(self, observed):
        # The golden run subscribes (and so audits, records, tracks) what
        # the SimConfig asks for; the strike driver subscribes none of it,
        # so its forks need not copy what cannot be copied.
        kw = dict(injections=8, structures=INJECTABLE, seed=21)
        plain = run_live_campaign(list(WORKLOAD), sim=SIM, **kw)
        watched = run_live_campaign(list(WORKLOAD),
                                    sim=replace(SIM, **observed), **kw)
        assert ([r.to_payload() for r in watched.records]
                == [r.to_payload() for r in plain.records])
        assert watched.summary() == plain.summary()
