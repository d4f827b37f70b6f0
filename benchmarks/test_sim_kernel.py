"""Raw simulator-kernel throughput benchmarks (not figure reproductions).

These time the hot paths with fresh state each round, so the numbers are
honest (the figure benchmarks above reuse the shared result cache and time
mostly cache hits after the first run).
"""

import pytest

from repro.config import DEFAULT_CONFIG, MachineConfig, SimConfig
from repro.faultinject import LiveConfig
from repro.faultinject.live import DECIDE_EVERY, _StrikeDriver, golden_run
from repro.sim.session import SimSession, functional_warmup
from repro.sim.simulator import build_traces, simulate
from repro.workload.generator import generate_trace
from repro.workload.mixes import get_mix
from repro.workload.spec2000 import get_profile


def test_trace_generation_throughput(benchmark):
    profile = get_profile("gcc")
    trace = benchmark(generate_trace, profile, 0, 5000, 1)
    assert len(trace) == 5000


@pytest.mark.parametrize("workload", ["2-CPU-A", "2-MEM-A"])
def test_smt_simulation_throughput(benchmark, workload):
    mix = get_mix(workload)
    sim = SimConfig(max_instructions=1500 * mix.num_threads)

    def run():
        return simulate(mix, policy="ICOUNT", sim=sim)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.committed >= sim.max_instructions


def test_kernel_cycle_throughput(benchmark):
    """Cycle-loop-only timing on one workload.

    Times ``core.run()`` alone — traces are prebuilt and the functional
    warmup happens in setup — so it measures the kernel itself, not trace
    generation or report assembly.  The scenario (one memory-bound thread,
    elevated memory latency) is the paper's single-thread stall regime,
    where the cycle loop dominates.
    """
    sim = SimConfig(max_instructions=3000, seed=11)
    machine = MachineConfig(memory_latency=800)
    traces = build_traces(["lucas"], sim)

    def fresh_core():
        session = SimSession(["lucas"], config=machine, sim=sim,
                             traces=list(traces))
        functional_warmup(session.core, session.traces)
        return (session.core,), {}

    cycles = benchmark.pedantic(lambda core: core.run(), setup=fresh_core,
                                rounds=7, iterations=1)
    assert cycles > 0


def test_core_fork(benchmark):
    """One strike's fork: fork a live campaign's driver, then step it.

    The driver is the ``injection_validation`` campaign's (2-MIX-A, 500
    instructions per thread, taint on, no ledger), paused mid-run.  Each
    round forks it and runs the fork for one ``DECIDE_EVERY`` slice, so
    the state a fork copies on first write is timed along with the fork.
    """
    mix = get_mix("2-MIX-A")
    sim = SimConfig(max_instructions=500 * mix.num_threads, seed=1)
    golden = golden_run(mix, "ICOUNT", DEFAULT_CONFIG, sim)
    driver = _StrikeDriver(mix, "ICOUNT", DEFAULT_CONFIG, sim, golden,
                           LiveConfig())
    paused = golden.cycles // 2
    driver.advance(paused)

    def fork_and_step():
        fork = driver.core.fork()
        fork.run(paused + DECIDE_EVERY)
        return fork

    fork = benchmark.pedantic(fork_and_step, rounds=50, iterations=1)
    assert fork.cycle == paused + DECIDE_EVERY
    assert driver.core.cycle == paused


def test_flush_policy_simulation(benchmark):
    mix = get_mix("2-MEM-A")
    sim = SimConfig(max_instructions=1500 * mix.num_threads)

    def run():
        return simulate(mix, policy="FLUSH", sim=sim)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.committed >= sim.max_instructions
