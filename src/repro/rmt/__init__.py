"""Redundant multithreading (RMT): SMT as a fault-*detection* substrate.

The paper's related-work section (refs [24, 25]: Reinhardt & Mukherjee's
SRT, Vijaykumar et al.'s SRTR) points at the other face of the
SMT-reliability coin: instead of asking how multithreading changes
vulnerability, use the spare context to run the *same* program twice and
compare — a transient strike that corrupts one copy makes the streams
diverge and is detected at the comparison point.

This package implements an SRT-style harness on the simulator:

* :class:`~repro.rmt.slack.SlackFetchPolicy` — the leading/trailing thread
  arrangement with a bounded slack, SRT's key mechanism (the trail runs in
  the lead's shadow: branch outcomes and prefetched cache lines are
  resolved by the time it needs them);
* :func:`~repro.rmt.harness.run_redundant` — run a program redundantly,
  measure the redundancy tax (lead IPC vs solo IPC) and the slack actually
  maintained;
* :func:`~repro.rmt.coverage.coverage_analysis` — read one redundant
  run's exact per-structure AVF under a sphere of replication: strikes
  that would be silent data corruptions alone become *detected* (DUE)
  when they land in replicated state.
"""

from repro.rmt.slack import SlackFetchPolicy
from repro.rmt.harness import RedundantRunResult, run_redundant
from repro.rmt.coverage import CoverageResult, coverage_analysis, SPHERE_OF_REPLICATION

__all__ = [
    "SlackFetchPolicy",
    "RedundantRunResult",
    "run_redundant",
    "CoverageResult",
    "coverage_analysis",
    "SPHERE_OF_REPLICATION",
]
