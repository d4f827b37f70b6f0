"""Top-level simulate() API: input validation and contract."""

import pytest

from repro.config import MachineConfig, SimConfig
from repro.errors import WorkloadError
from repro.fetch.flush import FlushPolicy
from repro.sim.simulator import build_traces, simulate, simulate_single_thread
from repro.workload.mixes import get_mix


class TestInputs:
    def test_accepts_mix_object(self):
        r = simulate(get_mix("2-CPU-A"), sim=SimConfig(max_instructions=300))
        assert r.workload == "2-CPU-A"

    def test_accepts_program_list(self):
        r = simulate(["bzip2", "mcf"], sim=SimConfig(max_instructions=300))
        assert r.workload == "bzip2+mcf"
        assert r.num_threads == 2

    def test_rejects_empty_workload(self):
        with pytest.raises(WorkloadError):
            simulate([], sim=SimConfig(max_instructions=100))

    def test_rejects_unknown_program(self):
        with pytest.raises(WorkloadError):
            simulate(["doom"], sim=SimConfig(max_instructions=100))

    def test_accepts_policy_instance(self):
        policy = FlushPolicy()
        r = simulate(get_mix("2-MEM-A"), policy=policy,
                     sim=SimConfig(max_instructions=300))
        assert r.policy == "FLUSH"

    def test_prebuilt_traces(self):
        sim = SimConfig(max_instructions=300)
        mix = get_mix("2-CPU-A")
        traces = build_traces(mix, sim)
        r = simulate(mix, sim=sim, traces=traces)
        assert r.committed >= 300

    def test_trace_count_mismatch_rejected(self):
        sim = SimConfig(max_instructions=300)
        traces = build_traces(get_mix("2-CPU-A"), sim)
        with pytest.raises(WorkloadError):
            simulate(get_mix("4-CPU-A"), sim=sim, traces=traces)

    def test_custom_machine_config(self):
        config = MachineConfig(iq_entries=32)
        r = simulate(get_mix("2-CPU-A"), config=config,
                     sim=SimConfig(max_instructions=300))
        assert r.committed >= 300


class TestResultContract:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(get_mix("2-MIX-A"), sim=SimConfig(max_instructions=500))

    def test_counts_consistent(self, result):
        assert result.committed == sum(t.committed for t in result.threads)
        assert result.ipc == pytest.approx(result.committed / result.cycles)

    def test_thread_metadata(self, result):
        assert [t.program for t in result.threads] == ["eon", "twolf"]
        for t in result.threads:
            assert t.ipc == pytest.approx(t.committed / result.cycles)

    def test_rates_in_unit_interval(self, result):
        for rate in (result.dl1_miss_rate, result.l2_miss_rate,
                     result.il1_miss_rate, result.dtlb_miss_rate):
            assert 0.0 <= rate <= 1.0

    def test_summary_text(self, result):
        text = result.summary()
        assert "2-MIX-A" in text and "ICOUNT" in text

    def test_thread_ipcs_tuple(self, result):
        assert len(result.thread_ipcs()) == 2

    def test_no_phase_series_by_default(self, result):
        assert result.phase_series is None


class TestSingleThread:
    def test_commits_exactly_requested_work_or_more(self):
        r = simulate_single_thread("bzip2", 400)
        assert r.committed >= 400
        assert r.num_threads == 1

    def test_functional_warmup_can_be_disabled(self):
        cold = simulate(get_mix("2-CPU-A"),
                        sim=SimConfig(max_instructions=300,
                                      functional_warmup=False))
        warm = simulate(get_mix("2-CPU-A"),
                        sim=SimConfig(max_instructions=300))
        assert cold.cycles > warm.cycles  # cold-start is strictly slower


class TestDegenerateRuns:
    def test_package_rejects_zero_cycles(self):
        """Regression: packaging divided by cycles unguarded, so a
        degenerate zero-cycle run crashed with ZeroDivisionError instead of
        a diagnosable ReproError."""
        from repro.errors import ReproError, SimulationError
        from repro.sim.session import package_result

        with pytest.raises(SimulationError) as excinfo:
            package_result(None, ["bzip2"], ["bzip2"], None, 0)
        assert isinstance(excinfo.value, ReproError)
        assert "0 cycles" in str(excinfo.value)

    def test_package_rejects_negative_cycles(self):
        from repro.errors import SimulationError
        from repro.sim.session import package_result

        with pytest.raises(SimulationError):
            package_result(None, ["bzip2"], ["bzip2"], None, -3)
