"""Performance and reliability-efficiency metrics (paper Section 3).

* IPC / per-thread IPC — raw throughput.
* MITF (mean instructions to failure) is proportional to IPC/AVF at fixed
  frequency and raw error rate; IPC/AVF is the paper's reliability-
  efficiency metric.
* Weighted speedup and harmonic mean of weighted IPC add fairness
  (Luo et al.; Raasch & Reinhardt) — used in Figure 8.
"""

from repro.metrics.perf import (
    ipc,
    weighted_speedup,
    harmonic_mean_weighted_ipc,
)
from repro.metrics.reliability import (
    reliability_efficiency,
    normalize_to_baseline,
)

__all__ = [
    "ipc",
    "weighted_speedup",
    "harmonic_mean_weighted_ipc",
    "reliability_efficiency",
    "normalize_to_baseline",
]
