"""Idle-cycle skipping in ``SMTCore.run`` and the static op facts.

A core without cycle hooks jumps over cycles in which nothing can happen.
The jump must be invisible: every run gives exactly what a stepping oracle
gives — ``run(until=cycle + 1)`` repeated, which never jumps because each
call is capped one cycle ahead — down to the result payload, the verbatim
residency log, the fetch policy's counters and a golden run's dataflow log.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import MachineConfig, SimConfig
from repro.faultinject.classify import DigestRecorder
from repro.fetch.registry import (EXTENSION_POLICY_NAMES, POLICY_NAMES,
                                  create_policy)
from repro.instrument import PROBE_STRUCTURES, IntervalRecorder, Structure
from repro.isa.opcodes import FUType, OpClass
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
    assert not core._cycle_hooks
    if session.sim.functional_warmup:
        functional_warmup(core, session.traces)
    cycles = None
    while cycles is None:
        before = core.cycle
        cycles = core.run(until=core.cycle + 1)
        assert core.cycle <= before + 1
    return session.package(cycles)


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
        # The recorder rides as a plain observer: an audited session would
        # carry it too, but the auditor's cycle hook turns skipping off.
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
        # there, each end exactly as the stepped run does.
        workload = WORKLOADS[2]
        sim = SimConfig(max_instructions=400, seed=1)
        traces = build_traces(workload, sim)
        # The oracle runs first: a live core writes in-flight trace
        # instructions in place, so no other run may share them meanwhile.
        oracle = _payload(_stepped(_session(workload, "ICOUNT", sim, traces)))
        session = _session(workload, "ICOUNT", sim, traces)
        core = session.core
        functional_warmup(core, session.traces)
        for until in (37, 150, 151, 400):
            assert core.run(until=until) is None
            assert core.cycle == until
        fork = core.fork()
        assert _payload(package_result(fork, workload, session.names,
                                       fork.policy, fork.run())) == oracle
        assert _payload(session.package(core.run())) == oracle


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

    def test_cycle_hooks_disable_skipping(self):
        class Hook:
            cycles = 0

            def on_cycle(self, core):
                Hook.cycles += 1

        sim = SimConfig(max_instructions=200, seed=1)
        session = SimSession(WORKLOADS[2], sim=sim, observers=(Hook(),))
        session.run()
        assert Hook.cycles == session.core.cycle


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
