"""Idle-cycle skipping in ``SMTCore.run`` and the static op facts.

A core jumps over cycles in which nothing can happen, neither in its
stages nor in a cycle hook (each hook names its next wake).  The jump must
be invisible: every run gives exactly what a stepping oracle gives —
``run(until=cycle + 1)`` repeated, which never jumps because each call is
capped one cycle ahead — down to the result payload, the verbatim
residency log, the fetch policy's counters, a golden run's dataflow log,
an audited run's event trace and a live strike's record.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.audit.auditor import SimAuditor
from repro.avf.engine import AvfEngine
from repro.avf.phases import PhaseTracker
from repro.avf.structures import Structure as AvfStructure
from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.errors import ReproError
from repro.faultinject import LiveConfig
from repro.faultinject.classify import DigestRecorder, Watchdog
from repro.faultinject.live import (_ForcedCrash, _ForcedHang, golden_run,
                                    plan_live_batches, run_batches,
                                    run_forced_strike)
from repro.fetch.registry import (EXTENSION_POLICY_NAMES, POLICY_NAMES,
                                  create_policy)
from repro.instrument import PROBE_STRUCTURES, IntervalRecorder, Structure
from repro.instrument.probe import ProbeBus
from repro.isa.opcodes import FUType, OpClass
from repro.pipeline.core import SMTCore
from repro.rmt.slack import SlackFetchPolicy
from repro.sim.session import (SimSession, build_traces,
                               functional_warmup, package_result)

SRC = Path(__file__).resolve().parents[1] / "src"

#: One workload per context count; MEM mixes stall the most, so skip most.
WORKLOADS = {1: ["mcf"], 2: ["mcf", "twolf"],
             4: ["mcf", "equake", "twolf", "galgel"],
             8: ["mcf", "twolf", "swim", "lucas", "equake", "applu", "vpr",
                 "mgrid"]}
POLICIES = POLICY_NAMES + EXTENSION_POLICY_NAMES + ("SLACK",)


def _policy(name):
    if name == "SLACK":
        # A tight band, so both gates engage within a short run.
        return SlackFetchPolicy(leader=0, trailer=1, min_slack=8,
                                max_slack=24)
    return create_policy(name)


def _session(workload, policy, sim, traces, **kwargs):
    return SimSession(workload, policy=_policy(policy), sim=sim,
                      traces=traces, **kwargs)


def _stepped(session):
    """The oracle: the session's run, one cycle per ``run`` call."""
    core = session.core
    if session.sim.functional_warmup:
        functional_warmup(core, session.traces)
    cycles = None
    while cycles is None:
        before = core.cycle
        cycles = core.run(until=core.cycle + 1)
        assert core.cycle <= before + 1
    return session.package(cycles)


def _stepping(monkeypatch):
    """Turn every later ``SMTCore.run`` into the stepping oracle: the same
    pause and end semantics, one cycle per inner call."""
    run = SMTCore.run

    def oracle(core, until=None):
        while until is None or core.cycle < until:
            before = core.cycle
            try:
                cycles = run(core, until=core.cycle + 1)
            finally:
                assert core.cycle <= before + 1
            if cycles is not None:
                return cycles
        return None

    monkeypatch.setattr(SMTCore, "run", oracle)


def _count_cycles_simulated(monkeypatch):
    """A list that grows by one per simulated (not skipped) cycle."""
    commit = SMTCore._commit
    calls = []

    def counted(core):
        calls.append(1)
        return commit(core)

    monkeypatch.setattr(SMTCore, "_commit", counted)
    return calls


def _snapshot(value):
    """A copy of a policy attribute that a later mutation cannot reach
    (instructions it holds are compared by identity)."""
    if isinstance(value, dict):
        return {k: _snapshot(v) for k, v in value.items()}
    if isinstance(value, (list, set, bytearray)):
        return copy.copy(value)
    return value


def _counters(policy):
    return {k: v for k, v in vars(policy).items() if type(v) is int}


def _payload(result):
    return json.dumps(result.to_payload(), sort_keys=True)


def _pair(workload, policy, sim, **kwargs):
    traces = build_traces(workload, sim)
    skipping = _session(workload, policy, sim, traces, **kwargs)
    stepping = _session(workload, policy, sim, traces, **kwargs)
    return skipping, skipping.run(), stepping, _stepped(stepping)


class TestSkipDifferential:
    # SLACK needs a leader and a trailer context.
    @pytest.mark.parametrize("policy, contexts", [
        (policy, contexts) for policy in POLICIES
        for contexts in sorted(WORKLOADS)
        if policy != "SLACK" or contexts > 1])
    def test_run_equals_the_stepping_oracle(self, policy, contexts):
        workload = WORKLOADS[contexts]
        # Timing warmup on odd context counts, off on even ones.
        warmup = 40 * contexts if contexts % 2 else 0
        sim = SimConfig(max_instructions=120 * contexts, seed=3,
                        warmup_instructions=warmup)
        skipping, result, stepping, oracle = _pair(workload, policy, sim)
        assert _payload(result) == _payload(oracle)
        assert _counters(skipping.policy) == _counters(stepping.policy)
        assert skipping.core.cycle == stepping.core.cycle
        assert (skipping.core.fu_pool.busy_unit_cycles
                == stepping.core.fu_pool.busy_unit_cycles)

    @pytest.mark.parametrize("policy", ["ICOUNT", "FLUSH", "SLACK"])
    def test_recorded_intervals_are_equal(self, policy):
        # The recorder rides as a plain observer, with no cycle hook.
        workload = WORKLOADS[4]
        sim = SimConfig(max_instructions=480, seed=2,
                        warmup_instructions=100)
        traces = build_traces(workload, sim)
        skip_log, step_log = IntervalRecorder(), IntervalRecorder()
        skipping = _session(workload, policy, sim, traces,
                            observers=(skip_log,))
        stepping = _session(workload, policy, sim, traces,
                            observers=(step_log,))
        assert _payload(skipping.run()) == _payload(_stepped(stepping))
        for structure in PROBE_STRUCTURES:
            assert (skip_log.intervals(structure)
                    == step_log.intervals(structure)), structure
        assert skip_log.intervals(Structure.FU)

    def test_a_unit_freeing_wakes_the_core(self):
        # With one slow address unit a ready load waits for the unit, not
        # for any event: only the unit's release can wake the core.
        machine = MachineConfig(load_store_units=1, agen_latency=3)
        sim = SimConfig(max_instructions=300, seed=1)
        _, result, _, oracle = _pair(WORKLOADS[2], "ICOUNT", sim,
                                     config=machine)
        assert _payload(result) == _payload(oracle)

    def test_without_functional_warmup(self):
        sim = SimConfig(max_instructions=300, seed=5, functional_warmup=False)
        _, result, _, oracle = _pair(WORKLOADS[2], "STALL", sim)
        assert _payload(result) == _payload(oracle)

    @pytest.mark.parametrize("policy", ["ICOUNT", "FLUSH"])
    def test_golden_flow_log_is_equal(self, policy):
        workload = WORKLOADS[2]
        sim = SimConfig(max_instructions=400, seed=1)
        traces = build_traces(workload, sim)
        logs, digests = [], []
        for step in (False, True):
            recorder = DigestRecorder()
            session = _session(workload, policy, sim, traces,
                               observers=(recorder,), taint=True)
            session.core.flow_log = []
            if step:
                _stepped(session)
            else:
                session.run()
            logs.append(session.core.flow_log)
            digests.append(recorder.digest())
        assert logs[0] == logs[1]
        assert digests[0] == digests[1]
        assert logs[0]

    def test_a_pause_lands_on_its_cycle(self):
        # A jump never passes ``until``: a paused core, and a fork taken
        # there, each end exactly as the stepped run does — which runs
        # over the same traces while the core is paused.
        workload = WORKLOADS[2]
        sim = SimConfig(max_instructions=400, seed=1)
        traces = build_traces(workload, sim)
        session = _session(workload, "ICOUNT", sim, traces)
        core = session.core
        functional_warmup(core, session.traces)
        for until in (37, 150, 151, 400):
            assert core.run(until=until) is None
            assert core.cycle == until
        oracle = _payload(_stepped(_session(workload, "ICOUNT", sim, traces)))
        fork = core.fork()
        assert _payload(package_result(fork, workload, session.names,
                                       fork.policy, fork.run())) == oracle
        assert _payload(session.package(core.run())) == oracle


LIVE_WORKLOAD = ("gcc", "mcf")
LIVE_SIM = SimConfig(max_instructions=400, seed=5)

#: Watchdog progress windows -> the clause that trips on a hang: the
#: default window outlasts these short runs' cycle budget; 150 does not.
WATCHDOG_WINDOWS = {LiveConfig().progress_window: "exceeded cycle budget",
                    150: "no commit in 150 cycles"}


def _live_golden():
    return golden_run(LIVE_WORKLOAD, "ICOUNT", DEFAULT_CONFIG, LIVE_SIM)


class TestHookWakes:
    """Each built-in cycle hook names the cycles its ``on_cycle`` acts at."""

    def test_watchdog(self):
        assert Watchdog(1000).next_wake(5) == 1000
        assert Watchdog(1000, 1500).next_wake(5) == 1000
        watchdog = Watchdog(1000, 300)
        assert watchdog.next_wake(5) == 300
        watchdog.on_cycle(SimpleNamespace(cycle=300, total_committed=10))
        assert watchdog.next_wake(300) == 600
        assert watchdog.fork().next_wake(300) == 600

    def test_auditor(self):
        audited = SimAuditor(check_every=64)
        assert [audited.next_wake(c) for c in (0, 63, 64)] == [64, 64, 128]
        assert SimAuditor().next_wake(150) == 200

    def test_phase_tracker(self):
        tracker = PhaseTracker(AvfEngine(DEFAULT_CONFIG, 1), window=37)
        assert tracker.next_wake(5) == 37
        tracker.tick(40)
        assert tracker.next_wake(40) == 77

    @pytest.mark.parametrize("hook", [_ForcedHang, _ForcedCrash])
    def test_forced_hooks_wake_every_cycle_until_they_fire(self, hook):
        forced = hook(after_cycle=50)
        assert forced.next_wake(3) == 50
        assert forced.next_wake(60) == 61
        forced.done = True
        assert forced.next_wake(60) == float("inf")


class TestHookedSkipDifferential:
    """Runs with cycle hooks (watchdog, forced-outcome hooks, auditor,
    phase tracker) skip too, and end exactly as the stepping oracle."""

    @pytest.mark.parametrize("kind, outcome", [
        ("hang", "HANG"), ("crash", "DUE"), ("due", "DUE")])
    @pytest.mark.parametrize("window", WATCHDOG_WINDOWS)
    def test_forced_strikes(self, monkeypatch, kind, outcome, window):
        golden = _live_golden()

        def strike():
            return run_forced_strike(
                kind, LIVE_WORKLOAD, "ICOUNT", DEFAULT_CONFIG, LIVE_SIM,
                golden, LiveConfig(progress_window=window)).to_payload()

        skipped = strike()
        _stepping(monkeypatch)
        assert skipped == strike()
        assert skipped["outcome"] == outcome
        if kind == "hang":
            assert WATCHDOG_WINDOWS[window] in skipped["detail"]

    @pytest.mark.parametrize("window", WATCHDOG_WINDOWS)
    def test_rob_hang_campaign(self, monkeypatch, window):
        # Seed 2 draws a ROB completion-bit strike (index 10) that strands
        # the commit head until the watchdog trips; the other strikes'
        # forks run to the end under the same watchdog.
        jobs = plan_live_batches(
            list(LIVE_WORKLOAD), injections=12,
            structures=(AvfStructure.IQ, AvfStructure.ROB), sim=LIVE_SIM,
            seed=2, live=LiveConfig(strike_batch=4, progress_window=window))

        def records():
            return json.dumps([payload for _, payload in run_batches(jobs)],
                              sort_keys=True)

        simulated = _count_cycles_simulated(monkeypatch)
        skipped = records()
        skipping_cycles = len(simulated)
        _stepping(monkeypatch)
        assert skipped == records()
        assert any(r["outcome"] == "HANG" and r["index"] == 10
                   and WATCHDOG_WINDOWS[window] in r["detail"]
                   for batch in json.loads(skipped)
                   for r in batch["records"])
        # The watched driver and its forks skipped most of their cycles.
        assert skipping_cycles < 0.5 * (len(simulated) - skipping_cycles)

    @pytest.mark.parametrize("check_invariants", [0, 1, 64])
    def test_audited_run_and_its_event_trace(self, monkeypatch, tmp_path,
                                             check_invariants):
        # 0: a trace with no checker, sampled every 100 cycles.
        workload = WORKLOADS[2]
        sim = SimConfig(max_instructions=400, seed=1,
                        check_invariants=check_invariants)
        traces = build_traces(workload, sim)
        paths = tmp_path / "skip.jsonl", tmp_path / "step.jsonl"
        skipping = _session(workload, "ICOUNT", sim, traces,
                            trace_out=str(paths[0]))
        stepping = _session(workload, "ICOUNT", sim, traces,
                            trace_out=str(paths[1]))
        simulated = _count_cycles_simulated(monkeypatch)
        results = [skipping.run().to_payload()]
        end = skipping.core.cycle
        # Checking every cycle wakes the auditor every cycle: no skip.
        assert (len(simulated) == end) == (check_invariants == 1)
        results.append(_stepped(stepping).to_payload())
        for payload in results:
            assert payload["audit"].pop("trace_path")
        assert results[0] == results[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert results[0]["audit"]["invariant_checks"] == (
            end // check_invariants + 1 if check_invariants else 0)

    def test_phase_series(self):
        workload = WORKLOADS[4]
        sim = SimConfig(max_instructions=480, seed=2,
                        phase_window_cycles=37)
        skipping, result, _, oracle = _pair(workload, "ICOUNT", sim)
        assert _payload(result) == _payload(oracle)
        assert result.phase_series.avf == oracle.phase_series.avf
        assert (result.phase_series.windows()
                == -(-skipping.core.cycle // 37))


class TestSkipHappens:
    def test_a_mem_mix_runs_fewer_stage_calls_than_cycles(self, monkeypatch):
        sim = SimConfig(max_instructions=400, seed=1)
        session = SimSession(WORKLOADS[2], sim=sim)
        core = session.core
        calls = []
        commit = core._commit
        monkeypatch.setattr(core, "_commit",
                            lambda: calls.append(1) or commit())
        session.run()
        assert 0 < len(calls) < core.cycle
        # Far fewer: a memory-bound mix is idle for most of its cycles.
        assert len(calls) < 0.75 * core.cycle

    def test_a_hook_with_a_wake_still_skips_and_runs_at_each_wake(self):
        class Hook:
            def __init__(self):
                self.cycles = []

            def on_cycle(self, core):
                self.cycles.append(core.cycle)

            def next_wake(self, cycle):
                return (cycle // 50 + 1) * 50

        sim = SimConfig(max_instructions=400, seed=1)
        hook = Hook()
        session = SimSession(WORKLOADS[2], sim=sim, observers=(hook,))
        session.run()
        end = session.core.cycle
        assert len(hook.cycles) < 0.75 * end
        assert set(range(50, end + 1, 50)) <= set(hook.cycles)
        assert hook.cycles == sorted(set(hook.cycles))

    def test_a_hook_without_a_wake_is_refused(self):
        class Hook:
            def on_cycle(self, core):
                pass

        with pytest.raises(ReproError, match="next_wake"):
            ProbeBus().subscribe(Hook())


class TestPoliciesArePure:
    @pytest.mark.parametrize("name", POLICY_NAMES + EXTENSION_POLICY_NAMES)
    def test_priorities_leave_the_policy_unchanged(self, name):
        """The core skips idle cycles without calling ``priorities``, so
        calling it must change nothing a later cycle can see."""
        sim = SimConfig(max_instructions=600, seed=1)
        session = SimSession(WORKLOADS[4], policy=name, sim=sim)
        core, policy = session.core, session.policy
        functional_warmup(core, session.traces)
        checked = 0
        while core.run(until=core.cycle + 7) is None:
            before = _snapshot(vars(policy))
            order = policy.priorities(core)
            assert policy.priorities(core) == order
            assert vars(policy) == before
            checked += 1
        assert checked > 20


class TestStaticOpFacts:
    def test_facts_match_the_op_tables(self):
        from repro.isa.opcodes import (fu_type_for, is_control_op,
                                       is_memory_op)
        for op in OpClass:
            assert op.fu is fu_type_for(op)
            assert op.is_memory == is_memory_op(op)
            assert op.is_control == is_control_op(op)
            assert op.is_load == (op is OpClass.LOAD)
            assert op.is_store == (op is OpClass.STORE)
            assert op.bypasses_iq == (op is OpClass.NOP)

    def test_members_hash_by_identity(self):
        for enum in (OpClass, FUType, Structure):
            for member in enum:
                assert hash(member) == object.__hash__(member)
                assert {member: 1}[member] == 1

    def test_payload_does_not_depend_on_the_hash_seed(self):
        """Identity hashing must not let set or dict order leak into a
        result: one run under two hash seeds gives the same bytes."""
        script = (
            "import json; from repro.config import SimConfig; "
            "from repro.sim import simulate; "
            "r = simulate(['mcf', 'equake', 'twolf', 'galgel'], policy='PDG', "
            "sim=SimConfig(max_instructions=400, seed=2)); "
            "print(json.dumps(r.to_payload(), sort_keys=True))")
        outputs = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(SRC))
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["committed"] >= 400
