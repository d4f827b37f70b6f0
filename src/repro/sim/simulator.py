"""Top-level entry points: thin wrappers over :class:`repro.sim.session.SimSession`.

Trace building, observer wiring, core construction and result packaging
all live in one place, :mod:`repro.sim.session`.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.config import MachineConfig, SimConfig
from repro.fetch.base import FetchPolicy
from repro.sim.results import SimResult
from repro.sim.session import SimSession, WorkloadSpec, build_traces
from repro.workload.generator import ThreadTrace

__all__ = [
    "WorkloadSpec",
    "build_traces",
    "simulate",
    "simulate_single_thread",
]


def simulate(workload: WorkloadSpec,
             policy: Union[str, FetchPolicy] = "ICOUNT",
             config: Optional[MachineConfig] = None,
             sim: Optional[SimConfig] = None,
             traces: Optional[List[ThreadTrace]] = None,
             trace_out: Optional[str] = None) -> SimResult:
    """Run one SMT workload to its instruction budget and report results.

    Parameters
    ----------
    workload:
        A Table 2 :class:`WorkloadMix` or a sequence of SPEC program names
        (one per SMT context).
    policy:
        Fetch policy name (``"ICOUNT"``, ``"FLUSH"``, ``"STALL"``, ``"DG"``,
        ``"PDG"``, ``"DWARN"``) or a :class:`FetchPolicy` instance.
    config, sim:
        Machine (Table 1) and run-length configuration.  Set
        ``sim.check_invariants=N`` to audit conservation laws every N
        cycles (see :mod:`repro.audit`).
    traces:
        Pre-built traces, one per program; only their count is checked
        (``ResultCache.run`` checks them fully before it caches).
        A run leaves their trace-owned fields unchanged, so one set may
        serve several runs one after another, never two at once: a
        running core writes its in-flight state into the trace's
        instructions, so a second core over the same traces, run while
        the first is paused mid-run, changes the first one's result.
    trace_out:
        Path for a JSONL observability trace (occupancy samples, stage
        counters, audit events); None disables tracing.
    """
    return SimSession(workload, policy=policy, config=config, sim=sim,
                      traces=traces, trace_out=trace_out).run()


def simulate_single_thread(program: str, instructions: int,
                           policy: Union[str, FetchPolicy] = "ICOUNT",
                           config: Optional[MachineConfig] = None,
                           seed: int = 1) -> SimResult:
    """Run one program alone on the machine (superscalar mode).

    Used for the paper's Figures 3 and 4: the single-thread run commits
    exactly the instruction count its SMT counterpart completed, so the
    amount of work is identical across execution modes.
    """
    sim = SimConfig(max_instructions=instructions, seed=seed)
    return simulate([program], policy=policy, config=config, sim=sim)
