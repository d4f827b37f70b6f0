"""repro — a reliability-aware SMT processor simulator.

Reproduction of *"An Analysis of Microarchitecture Vulnerability to Soft
Errors on Simultaneous Multithreaded Architectures"* (Zhang, Fu, Li &
Fortes, ISPASS 2007): a cycle-level SMT pipeline model instrumented with
ACE-bit Architectural Vulnerability Factor (AVF) accounting, six fetch
policies, statistical SPEC CPU 2000 workload models, and a benchmark
harness regenerating every figure of the paper's evaluation.

Quick start::

    from repro import simulate, get_mix, Structure

    result = simulate(get_mix("4-MIX-A"), policy="ICOUNT")
    print(result.ipc, result.avf.avf[Structure.IQ])
"""

from repro.config import MachineConfig, SimConfig, DEFAULT_CONFIG, scaled_instruction_budget
from repro.avf import (
    AvfEngine,
    AvfReport,
    FitEstimate,
    PhaseSeries,
    Structure,
    fit_estimate,
    phase_statistics,
)
from repro.fetch import POLICY_NAMES, create_policy
from repro.sim import (
    SimResult,
    ThreadResult,
    simulate,
    simulate_single_thread,
)
from repro.workload import (
    PROFILES,
    TABLE2_MIXES,
    BenchmarkProfile,
    WorkloadMix,
    generate_trace,
    get_mix,
    get_profile,
    mixes_for,
)
from repro.metrics import (
    harmonic_mean_weighted_ipc,
    normalize_to_baseline,
    reliability_efficiency,
    weighted_speedup,
)

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "SimConfig",
    "DEFAULT_CONFIG",
    "scaled_instruction_budget",
    "AvfEngine",
    "AvfReport",
    "FitEstimate",
    "fit_estimate",
    "PhaseSeries",
    "phase_statistics",
    "Structure",
    "POLICY_NAMES",
    "create_policy",
    "SimResult",
    "ThreadResult",
    "simulate",
    "simulate_single_thread",
    "PROFILES",
    "TABLE2_MIXES",
    "BenchmarkProfile",
    "WorkloadMix",
    "generate_trace",
    "get_mix",
    "get_profile",
    "mixes_for",
    "harmonic_mean_weighted_ipc",
    "normalize_to_baseline",
    "reliability_efficiency",
    "weighted_speedup",
    "__version__",
]
