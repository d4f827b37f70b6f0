"""Statistical fault injection: the paper's complementary methodology.

Section 2 of the paper contrasts AVF computation with statistical fault
injection (Wang et al.; Czeck & Siewiorek): inject transient bit flips at
random (cycle, bit) points and observe whether execution is affected.  The
two methodologies must agree — the fraction of injections that corrupt
architecturally required state *is* the AVF, up to sampling error.

This package implements an injection campaign over the pipeline structures
(IQ, ROB, LSQ, register file, FUs).  It reconstructs each structure's
ACE/un-ACE occupancy timeline from the raw residency intervals (recorded
with ``SimConfig(record_intervals=True)``) — an independent computation
path from the summed AVF ledgers — then samples injections uniformly over
(cycle x entry) and classifies each as

* ``MASKED_IDLE``  — the struck entry held nothing,
* ``MASKED_UNACE`` — it held state that cannot affect the outcome
  (NOP/dead/wrong-path/not-yet-valid/already-consumed),
* ``SDC``          — it held ACE state: silent data corruption.

The campaign's SDC rate converging to the reported AVF validates the
interval arithmetic end to end.

:mod:`repro.faultinject.live` adds the second methodology for real: it
flips an actual bit in a live structure mid-run and classifies the strike
by differencing the faulty run against a memoized golden run —
``MASKED``/``SDC`` by architectural digest, ``DUE`` by protection
detection or contained simulator failure, ``HANG`` by watchdog, and
``CORRECTED`` under ECC.  Its per-structure SDC rate carries a Wilson
confidence interval; the ACE-computed AVF landing inside it is the
paper's Section-2 cross-validation of the two methodologies.
"""

from repro.faultinject.campaign import (
    CampaignJob,
    ClassifyTask,
    InjectionCampaignResult,
    InjectionOutcome,
    MASKED_OUTCOMES,
    run_campaign,
    run_campaign_supervised,
)
from repro.faultinject.classify import DigestRecorder, Watchdog
from repro.faultinject.live import (
    FORCED_KINDS,
    GoldenRun,
    LiveBatchJob,
    LiveCampaignResult,
    LiveConfig,
    LiveStrikeRecord,
    StrikeSpec,
    draw_strike,
    golden_run,
    machine_capacity,
    plan_live_batches,
    run_live_campaign,
    run_one_strike,
)

__all__ = ["CampaignJob", "ClassifyTask", "InjectionOutcome",
           "InjectionCampaignResult", "MASKED_OUTCOMES",
           "run_campaign", "run_campaign_supervised",
           "DigestRecorder", "Watchdog",
           "FORCED_KINDS", "GoldenRun", "LiveBatchJob", "LiveCampaignResult",
           "LiveConfig", "LiveStrikeRecord", "StrikeSpec",
           "draw_strike", "golden_run", "machine_capacity",
           "plan_live_batches", "run_live_campaign", "run_one_strike"]
