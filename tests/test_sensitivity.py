"""Resource-sweep experiment plumbing."""

import pytest

from repro.avf.bits import structure_bits
from repro.config import DEFAULT_CONFIG
from repro.errors import ConfigError
from repro.experiments import parallel
from repro.experiments.parallel import RESOURCE_SWEEP
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.experiments.sensitivity import (
    SWEEPABLE,
    SweepData,
    SweepPoint,
    format_sweep,
    run_resource_sweep,
)
from repro.sim.session import build_traces
from repro.sim.simulator import simulate
from repro.workload.mixes import WorkloadMix, get_mix

TINY = ExperimentScale(instructions_per_thread=250)


class TestValidation:
    def test_unknown_resource(self):
        with pytest.raises(ConfigError):
            run_resource_sweep("btb", (16, 32))

    def test_needs_two_sizes(self):
        with pytest.raises(ConfigError):
            run_resource_sweep("iq", (96,))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ConfigError):
            run_resource_sweep("iq", (0, 96))


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_resource_sweep("iq", (48, 96), workload="2-MIX-A",
                                  scale=TINY)

    def test_point_per_size(self, sweep):
        assert [p.size for p in sweep.points] == [48, 96]

    def test_values_sane(self, sweep):
        for p in sweep.points:
            assert p.ipc > 0
            assert 0.0 <= p.avf <= 1.0
            assert p.exposed_bits >= 0.0

    def test_gain_helpers(self, sweep):
        assert sweep.ipc_gain(1) == pytest.approx(
            sweep.points[1].ipc / sweep.points[0].ipc - 1.0)

    def test_format(self, sweep):
        text = format_sweep(sweep)
        assert "Resource sweep" in text
        assert "48" in text and "96" in text

    def test_all_resources_sweepable(self):
        for resource in SWEEPABLE:
            data = run_resource_sweep(resource, (32, 64),
                                      workload="2-CPU-A", scale=TINY)
            assert len(data.points) == 2


def _sweep_by_hand(resource, sizes, mix):
    """The sweep as plain per-step ``simulate`` calls, each on its own
    fresh traces: what every sweep must equal."""
    fields, structure = SWEEPABLE[resource]
    data = SweepData(resource=resource, workload=mix.name,
                     structure=structure)
    for size in sizes:
        config = DEFAULT_CONFIG.with_overrides(**{f: size for f in fields})
        result = simulate(mix, config=config,
                          sim=TINY.sim_config(mix.num_threads))
        avf = result.avf.avf[structure]
        data.points.append(SweepPoint(
            size=size, ipc=result.ipc, avf=avf,
            exposed_bits=avf * structure_bits(structure, config,
                                              mix.num_threads)))
    return data


class TestOneSweepPath:
    """Every sweep plans its steps through ``run_jobs``: the steps share
    one trace build and the data equals independent per-step runs."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def spy(workload, sim):
            calls.append(tuple(workload))
            return build_traces(workload, sim)

        monkeypatch.setattr(parallel, "build_traces", spy)
        return calls

    def test_rob_ladder_equals_per_step_runs(self, builds):
        resource, sizes, _ = RESOURCE_SWEEP
        mix = get_mix("2-MIX-A")
        data = run_resource_sweep(resource, sizes, workload=mix.name,
                                  scale=TINY)
        assert data == _sweep_by_hand(resource, sizes, mix)
        assert builds == [mix.programs]

    def test_caller_cache_receives_every_step(self, builds):
        cache = ResultCache()
        run_resource_sweep("iq", (48, 96), workload="2-CPU-A", scale=TINY,
                           cache=cache)
        assert cache.simulated == 2 and len(builds) == 1
        run_resource_sweep("iq", (48, 96), workload="2-CPU-A", scale=TINY,
                           cache=cache)
        assert cache.simulated == 2 and len(builds) == 1

    def test_custom_mix_is_simulated_once_per_step(self, builds):
        mix = WorkloadMix(name="my-pair", num_threads=2, mix_type="MIX",
                          group="A", programs=("gcc", "swim"))
        cache = ResultCache()
        data = run_resource_sweep("lsq", (16, 48), workload=mix, scale=TINY,
                                  cache=cache)
        assert data == _sweep_by_hand("lsq", (16, 48), mix)
        assert cache.simulated == 2 and builds == []
