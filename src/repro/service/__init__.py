"""Campaign-as-a-service: a long-lived asyncio campaign server.

The paper's AVF methodology becomes decision-grade at fleet scale —
millions of strikes across many configurations — which no single CLI
invocation should own.  This package turns the supervised campaign
substrate (result cache, checkpoint journal, supervised worker pool,
live injection campaigns, reproduce artefacts) into a shared
service:

- :mod:`repro.service.specs` — schema-validated campaign specs with a
  content-hash identity (the dedup key);
- :mod:`repro.service.store` — the content-hash cache promoted to a
  shared artifact store with per-campaign manifests;
- :mod:`repro.service.scheduler` — shards specs into supervised job
  units (:class:`~repro.faultinject.LiveBatchJob`, reproduce prewarm
  jobs),
  executes them on per-campaign supervisor pools, and streams progress
  with partial Wilson intervals as batches land;
- :mod:`repro.service.server` — the asyncio REST/JSON front end
  (``POST /campaigns``, ``GET /campaigns/{id}``, ...).

Two clients submitting the identical spec trigger exactly one
computation and receive byte-identical final artefacts; a crashing
worker degrades at most its own campaign (per-campaign pools and
degradation budgets), never its neighbours.

Durability (:mod:`repro.service.journal`): every campaign lifecycle
transition is journaled write-ahead; a killed service replays the
journal at startup, re-admits interrupted campaigns, and resumes them
through the per-batch cache — finished batches are never recomputed and
recovered artefacts are byte-identical to an uninterrupted run's.
Admission control bounds the queue (429 + ``Retry-After`` beyond it) and
``DELETE /campaigns/{id}`` cancels with a graceful supervisor drain.

Leased dispatch (:mod:`repro.service.fleet`, :mod:`repro.service.leases`):
every live batch runs under a time-bounded, heartbeat-renewed lease with
a fencing token — at-least-once dispatch, exactly-once commit, hedged
redispatch of slow shards.  The service's own pool is an in-process
shard; remote shards (``repro-sim worker --connect``) lease from the
same coordinator over HTTP, and when every one is lost their leases
expire and the local shard takes the batches back.
"""

from repro.service.fleet import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEDGE_AFTER,
    ChaosTransport,
    FleetCoordinator,
    FleetError,
    FleetExecutor,
    HttpTransport,
    ShardAgent,
    job_from_wire,
    job_to_wire,
)
from repro.service.journal import (
    FLEET_ID_PREFIX,
    SERVICE_ID,
    SERVICE_JOURNAL_NAME,
    SERVICE_JOURNAL_VERSION,
    JournaledCampaign,
    ServiceJournal,
)
from repro.service.leases import (
    DEFAULT_LEASE_TIMEOUT,
    Lease,
    LeaseTable,
)
from repro.service.scheduler import (
    DEFAULT_MAX_QUEUED,
    DEFAULT_MAX_RUNNING,
    CampaignScheduler,
    CancelConflict,
    QueueFull,
)
from repro.service.server import API_SCHEMA_VERSION, CampaignServer, run_service
from repro.service.specs import (
    SPEC_SCHEMA_VERSION,
    CampaignSpec,
    SpecError,
    parse_spec,
    validate_schema,
)
from repro.service.store import ArtifactStore

__all__ = [
    "API_SCHEMA_VERSION",
    "ArtifactStore",
    "CampaignScheduler",
    "CampaignServer",
    "CampaignSpec",
    "CancelConflict",
    "ChaosTransport",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEDGE_AFTER",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_QUEUED",
    "DEFAULT_MAX_RUNNING",
    "FLEET_ID_PREFIX",
    "FleetCoordinator",
    "FleetError",
    "FleetExecutor",
    "HttpTransport",
    "JournaledCampaign",
    "Lease",
    "LeaseTable",
    "QueueFull",
    "SERVICE_ID",
    "SERVICE_JOURNAL_NAME",
    "SERVICE_JOURNAL_VERSION",
    "SPEC_SCHEMA_VERSION",
    "ServiceJournal",
    "ShardAgent",
    "SpecError",
    "job_from_wire",
    "job_to_wire",
    "parse_spec",
    "run_service",
    "validate_schema",
]
