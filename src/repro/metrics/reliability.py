"""Reliability-efficiency metrics built on AVF.

MITF = (committed instructions between failures).  At fixed frequency and
raw device error rate, MITF is proportional to IPC/AVF (Weaver et al.,
ISCA 2004), so IPC/AVF ratios compare design points without knowing the raw
error rate.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

_EPSILON = 1e-12


def wilson_interval(successes: int, trials: int,
                    z: float = 1.959963984540054) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The live fault-injection validation uses this to ask whether the
    ACE-computed AVF falls inside the statistical-injection estimate's
    confidence interval (paper Section 2: the two methodologies must
    agree up to sampling error).  Wilson rather than the normal
    approximation because campaign SDC counts are small and the rates
    sit near 0 for lightly occupied structures.  ``z`` defaults to the
    two-sided 95% quantile.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes ({successes}) outside [0, {trials}]")
    if trials == 0:
        return 0.0, 1.0  # no information: the vacuous interval
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = (z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
            / denom)
    # Analytically the interval always contains p, and at k=0 / k=n the
    # touching bound is exactly 0 / 1; the float evaluation above can
    # miss both by an ulp, so clamp against p as well as against [0, 1].
    return (max(0.0, min(centre - half, p)),
            min(1.0, max(centre + half, p)))


def reliability_efficiency(ipc_value: float, avf: float) -> float:
    """IPC/AVF: work completed per unit of vulnerability.

    An AVF of zero means no ACE bits were ever exposed; the efficiency is
    unbounded and we return ``inf`` so callers can surface it explicitly.
    A dead design point — zero IPC *and* zero AVF — did no work and
    exposed nothing, so its efficiency is the indeterminate 0/0: ``nan``,
    rendered as ``n/a`` in reports, never the flattering ``inf``.
    """
    if avf <= _EPSILON:
        if ipc_value <= _EPSILON:
            return float("nan")
        return float("inf")
    return ipc_value / avf


def normalize_to_baseline(values: Mapping[str, float],
                          baseline_key: str) -> Dict[str, float]:
    """Scale a {name: value} mapping so the baseline entry equals 1.0.

    Figures 7 and 8 present IPC/AVF normalised to the ICOUNT baseline.
    """
    baseline = values[baseline_key]
    if abs(baseline) <= _EPSILON:
        return {k: float("inf") if v > 0 else 0.0 for k, v in values.items()}
    return {k: v / baseline for k, v in values.items()}
