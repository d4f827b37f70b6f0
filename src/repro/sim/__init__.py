"""Top-level simulation API.

:func:`repro.sim.simulate` runs one SMT workload and returns a
:class:`~repro.sim.results.SimResult` bundling performance counters with the
AVF report; :func:`repro.sim.simulate_single_thread` runs one program alone
for the paper's SMT-vs-superscalar comparisons.
"""

from repro.sim.session import SimSession
from repro.sim.simulator import simulate, simulate_single_thread, build_traces
from repro.sim.results import SimResult, ThreadResult

__all__ = [
    "simulate",
    "simulate_single_thread",
    "build_traces",
    "SimSession",
    "SimResult",
    "ThreadResult",
]
