"""Statistical fault injection: the paper's complementary methodology.

Section 2 of the paper contrasts AVF computation with statistical fault
injection (Wang et al.; Czeck & Siewiorek): inject transient bit flips at
random (cycle, bit) points and observe whether execution is affected.  The
two methodologies must agree — the fraction of injections that corrupt
architecturally required state *is* the AVF, up to sampling error.

The exact route is the ACE ledger (:mod:`repro.avf`): every run reports
each structure's AVF, and the auditor's interval replay
(:func:`repro.audit.check_interval_replay`) re-derives the ledger totals
from the raw residency intervals.  This package is the injection route,
done for real: :mod:`repro.faultinject.live` flips an actual bit in a
live structure mid-run and classifies the strike by differencing the
faulty run against a memoized golden run — ``MASKED_IDLE`` when the
struck slot was empty, ``MASKED``/``SDC`` by architectural digest,
``DUE`` by protection detection or contained simulator failure, ``HANG``
by watchdog, and ``CORRECTED`` under ECC.  Its per-structure SDC rate
carries a Wilson confidence interval; the ACE-computed AVF landing
inside it is the paper's Section-2 cross-validation of the two
methodologies.
"""

from repro.faultinject.classify import DigestRecorder, Watchdog
from repro.faultinject.live import (
    FORCED_KINDS,
    INJECTABLE,
    MASKED_OUTCOMES,
    GoldenRun,
    InjectionOutcome,
    LiveBatchJob,
    LiveCampaignResult,
    LiveConfig,
    LiveStrikeRecord,
    StrikeSpec,
    StructureCampaign,
    draw_strike,
    golden_run,
    machine_capacity,
    plan_live_batches,
    run_batches,
    run_live_campaign,
    run_one_strike,
)

__all__ = ["DigestRecorder", "Watchdog",
           "FORCED_KINDS", "INJECTABLE", "MASKED_OUTCOMES", "GoldenRun",
           "InjectionOutcome", "LiveBatchJob", "LiveCampaignResult",
           "LiveConfig", "LiveStrikeRecord", "StrikeSpec", "StructureCampaign",
           "draw_strike", "golden_run", "machine_capacity",
           "plan_live_batches", "run_batches", "run_live_campaign",
           "run_one_strike"]
