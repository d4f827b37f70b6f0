"""The runtime invariant-audit and observability layer (repro.audit)."""

import json

import pytest

from repro.audit.invariants import (InvariantChecker, check_commit_agreement,
                                    check_interval_replay)
from repro.avf.structures import Structure
from repro.config import DEFAULT_CONFIG, SimConfig
from repro.errors import ConfigError, InvariantViolation
from repro.experiments.runner import AUDIT_ENV_VAR, ExperimentScale
from repro.pipeline.core import SMTCore
from repro.sim.session import SimSession
from repro.sim.simulator import simulate

WORKLOAD = ["bzip2", "gcc"]


def _core(sim: SimConfig, workload=WORKLOAD, **kwargs) -> SMTCore:
    return SimSession(workload, sim=sim, **kwargs).core


class TestCleanRuns:
    def test_audited_run_attaches_audit_record(self):
        sim = SimConfig(max_instructions=2000, seed=5, check_invariants=50)
        result = simulate(WORKLOAD, sim=sim)
        audit = result.audit
        assert audit is not None
        assert audit["check_interval"] == 50
        assert audit["invariant_checks"] > 0
        assert audit["violations"] == 0
        assert audit["stage_counters"]["committed"] >= result.committed
        assert audit["peak_occupancy"]["IQ"] <= DEFAULT_CONFIG.iq_entries
        assert "audit" in result.to_payload()

    def test_unaudited_run_has_no_audit_record(self):
        result = simulate(WORKLOAD, sim=SimConfig(max_instructions=2000, seed=5))
        assert result.audit is None
        assert "audit" not in result.to_payload()

    def test_every_cycle_audit_with_warmup_and_intervals(self):
        # The hardest clean configuration: warmup resets the measurement
        # window mid-run (and the recorded intervals the final replay
        # check re-sums), and every cycle is audited.
        sim = SimConfig(max_instructions=1500, seed=9, warmup_instructions=300,
                        check_invariants=1)
        result = simulate(WORKLOAD, sim=sim)
        assert result.audit["invariant_checks"] >= result.cycles

    def test_audit_survives_functional_warmup(self):
        sim = SimConfig(max_instructions=1500, seed=2, functional_warmup=True,
                        check_invariants=1)
        result = simulate(WORKLOAD, sim=sim)
        assert result.audit["violations"] == 0


class TestDifferential:
    def test_audited_run_is_byte_identical_to_unaudited(self):
        # Auditing is observation-only: apart from the audit record itself,
        # an every-cycle-audited run must serialize byte-for-byte the same
        # as an unaudited run of the identical configuration.
        base = SimConfig(max_instructions=2000, seed=13)
        audited = simulate(WORKLOAD, sim=SimConfig(
            max_instructions=2000, seed=13, check_invariants=1))
        plain = simulate(WORKLOAD, sim=base)
        assert audited.summary() == plain.summary()
        audited_payload = audited.to_payload()
        audited_payload.pop("audit")
        blob = lambda p: json.dumps(p, sort_keys=True)
        assert blob(audited_payload) == blob(plain.to_payload())


class TestViolationDetection:
    def test_corrupted_ledger_is_caught_and_named(self):
        # Inject a double-count into the IQ ledger before the run starts:
        # the conservation check must catch it on the first audited cycle
        # and name the structure and cycle in the raised error.
        sim = SimConfig(max_instructions=2000, seed=5, check_invariants=10)
        core = _core(sim)
        core.engine.account(Structure.IQ).add(0, 1e9, ace=True)
        with pytest.raises(InvariantViolation) as excinfo:
            core.run()
        violation = excinfo.value
        assert violation.structure == "IQ"
        assert violation.invariant == "ledger-conservation"
        assert violation.cycle >= 0
        assert violation.delta > 0
        assert "IQ" in str(violation) and "cycle" in str(violation)

    def test_double_count_is_caught_by_interval_replay(self):
        # A post-hoc double-count leaves occupancy under budget (the cheap
        # conservation check passes) but cannot match the recorded
        # intervals: the replay cross-validation catches it.
        sim = SimConfig(max_instructions=1000, seed=5, check_invariants=1000)
        core = _core(sim)
        core.run()
        account = core.engine.account(Structure.IQ)
        check_interval_replay(core, core.cycle)   # clean before tampering
        tid = next(iter(account.ace_cycles))
        account.ace_cycles[tid] += 42.0
        with pytest.raises(InvariantViolation) as excinfo:
            check_interval_replay(core, core.cycle)
        assert excinfo.value.structure == "IQ"
        assert excinfo.value.invariant == "interval-replay"
        assert excinfo.value.delta == pytest.approx(42.0)

    def test_commit_disagreement_is_caught(self):
        sim = SimConfig(max_instructions=500, seed=5)
        core = _core(sim)
        core.run()
        check_commit_agreement(core, core.cycle)   # clean before tampering
        core.total_committed += 5
        with pytest.raises(InvariantViolation, match="commit-agreement"):
            check_commit_agreement(core, core.cycle)


class TestChecker:
    def test_interval_below_one_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(every=0)

    def test_checks_run_counts_scheduled_audits(self):
        sim = SimConfig(max_instructions=1000, seed=5, check_invariants=100)
        result = simulate(WORKLOAD, sim=sim)
        # One audit per 100 cycles (approximately) plus the final one.
        expected = result.cycles // 100
        assert abs(result.audit["invariant_checks"] - expected) <= 2


class TestTracing:
    def test_trace_is_valid_jsonl_with_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sim = SimConfig(max_instructions=1000, seed=5, check_invariants=50)
        result = simulate(WORKLOAD, sim=sim, trace_out=str(path))
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events, "trace must not be empty"
        kinds = [e["kind"] for e in events]
        assert kinds[-1] == "summary"
        assert all(k == "sample" for k in kinds[:-1])
        for e in events:
            assert e["cycle"] >= 0
            assert "counters" in e
        assert result.audit["trace_events"] == len(events)
        assert result.audit["trace_path"] == str(path)

    def test_violation_is_recorded_in_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sim = SimConfig(max_instructions=2000, seed=5, check_invariants=10)
        core = _core(sim, trace_out=str(path))
        core.engine.account(Structure.IQ).add(0, 1e9, ace=True)
        with pytest.raises(InvariantViolation):
            core.run()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        violations = [e for e in events if e["kind"] == "violation"]
        assert len(violations) == 1
        assert violations[0]["structure"] == "IQ"

    def test_tracing_without_checker_samples_at_default_interval(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result = simulate(WORKLOAD, sim=SimConfig(max_instructions=1000, seed=5),
                          trace_out=str(path))
        assert result.audit is not None
        assert result.audit["check_interval"] == 0
        assert result.audit["invariant_checks"] == 0
        assert path.exists()


class TestConfigPlumbing:
    def test_negative_check_interval_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(check_invariants=-1)

    def test_scale_reads_audit_env(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV_VAR, "64")
        scale = ExperimentScale.from_env()
        assert scale.check_invariants == 64
        assert scale.sim_config(2).check_invariants == 64

    def test_scale_defaults_to_no_audit(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV_VAR, raising=False)
        assert ExperimentScale.from_env().check_invariants == 0

    def test_scale_rejects_bad_audit_env(self, monkeypatch):
        monkeypatch.setenv(AUDIT_ENV_VAR, "often")
        with pytest.raises(ConfigError):
            ExperimentScale.from_env()
        monkeypatch.setenv(AUDIT_ENV_VAR, "-3")
        with pytest.raises(ConfigError):
            ExperimentScale.from_env()
