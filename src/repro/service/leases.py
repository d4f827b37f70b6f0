"""Time-bounded work leases with fencing tokens for the worker fleet.

A lease is the server's only claim about a remote shard: *this shard
holds this batch until this monotonic deadline*.  Everything the fleet
guarantees follows from three rules:

1. **Dispatch is at-least-once.**  A lease that misses its heartbeat
   window expires; the batch returns to the dispatch pool and is charged
   one attempt (the PR-3 crash discipline: the culprit cannot be told
   from a victim, so everyone lost pays one attempt).
2. **Commit is exactly-once.**  The first *valid* commit of a digest
   wins.  A later commit under a still-active lease (a hedge partner
   racing the winner) is a ``duplicate`` — accepted as a no-op, because
   content-hashed batches are byte-identical by construction.  A commit
   under an expired or unknown lease (a zombie on the far side of a
   partition) is ``fenced`` — rejected and journaled, because the server
   already re-leased that work and must not let a ghost interleave.
3. **Clocks are monotonic.**  Deadlines come from an injected
   ``time.monotonic`` clock, never wall time, so an NTP step (or a test
   mocking ``time.time``) can neither expire a live lease nor keep a
   dead one alive.

Fencing tokens are one global monotonically increasing counter: a token
identifies exactly one grant, so "is this token in the active table" is
the entire fencing decision — no shard identity games, no wall-clock
comparisons.

Lease transitions are journaled write-ahead into the PR-8 service
journal under ``fleet:<digest16>`` ids — observability records that
compaction drops wholesale and campaign-lifecycle folding never sees
(:data:`repro.service.journal.FLEET_ID_PREFIX`).  Renewals are counted,
never journaled, and so are the routine grants and commits of the
service's in-process shard (:data:`LOCAL_SHARD_ID`): the journal costs
a fleet-less service nothing per batch, and heartbeat traffic never
grows it.  Expiry, fencing and failure are journaled for every shard.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.service.journal import FLEET_ID_PREFIX

#: Seconds a lease lives without renewal before it expires.
DEFAULT_LEASE_TIMEOUT = 15.0

#: Commit verdicts (the wire contract of POST /fleet/commit).
VERDICTS = ("ok", "duplicate", "fenced", "invalid")

#: Shard id of the service's in-process shard (refused over HTTP).
LOCAL_SHARD_ID = "local"

#: Committed digests the table remembers for ``duplicate`` verdicts.  A
#: hedge partner committing later than this many commits reads ``ok``,
#: which its grantor already treats alike (the batch has its payload).
COMMITTED_MEMORY = 1 << 16


@dataclass
class Lease:
    """One live grant: a fencing token binding (batch, shard, deadline)."""

    token: int
    digest: str
    label: str
    campaign_id: str
    shard_id: str
    deadline: float  # monotonic
    granted_at: float  # monotonic
    #: The grantor's own record of the leased work (opaque to the table).
    ref: object = None

    def journal_id(self) -> str:
        return f"{FLEET_ID_PREFIX}{self.digest[:16]}"


class LeaseTable:
    """The server's lease ledger: grant, renew, expire, fence (thread-safe).

    The table never dispatches or redispatches anything itself — it is
    the bookkeeping the :class:`~repro.service.fleet.FleetCoordinator`
    consults — but it owns every verdict, so exactly-once logic lives in
    one lockable place.
    """

    def __init__(self, journal=None, *,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 clock=time.monotonic) -> None:
        self.journal = journal
        self.lease_timeout = lease_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._next_token = 1
        self._active: Dict[int, Lease] = {}
        self._by_digest: Dict[str, Set[int]] = {}
        self._committed: Dict[str, None] = {}  # insertion-ordered
        #: No active lease's deadline is earlier (renewals only raise
        #: deadlines), so :meth:`expire_due` scans only once it passes.
        self._earliest = math.inf
        self._closed = False
        # Cumulative counters (the /stats fleet block).
        self.granted = 0
        self.renewed = 0
        self.reclaimed = 0
        self.fenced = 0

    # -- journaling ------------------------------------------------------------------

    def _journal(self, lease: Lease, event: str, routine: bool = False,
                 **extra: object) -> None:
        if self.journal is None or (routine
                                    and lease.shard_id == LOCAL_SHARD_ID):
            return
        record = {"token": lease.token, "shard": lease.shard_id,
                  "label": lease.label, "campaign": lease.campaign_id}
        record.update(extra)
        self.journal.record(lease.journal_id(), event, extra=record)

    # -- shutdown gate ---------------------------------------------------------------

    def close(self) -> None:
        """Stop granting: the first step of graceful shutdown.

        Existing leases keep their deadlines (in-flight work may still
        commit during the drain); only *new* grants are refused.
        """
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- grant / renew / expire ------------------------------------------------------

    def grant(self, digest: str, label: str, campaign_id: str,
              shard_id: str, ref: object = None) -> Optional[Lease]:
        """Lease one batch to one shard; None when the table is closed."""
        with self._lock:
            if self._closed:
                return None
            now = self._clock()
            token = self._next_token
            self._next_token += 1
            lease = Lease(token=token, digest=digest, label=label,
                          campaign_id=campaign_id, shard_id=shard_id,
                          deadline=now + self.lease_timeout, granted_at=now,
                          ref=ref)
            self._active[token] = lease
            self._earliest = min(self._earliest, lease.deadline)
            self._by_digest.setdefault(digest, set()).add(token)
            self.granted += 1
        self._journal(lease, "lease_granted", routine=True)
        return lease

    def renew(self, shard_id: str, tokens: Iterable[int]
              ) -> Dict[str, List[int]]:
        """Heartbeat: extend every live token the shard still holds.

        Returns ``{"renewed": [...], "lost": [...]}`` — a lost token
        tells a well-behaved shard to abandon that batch (its commit
        would be fenced anyway).  Only tokens the shard *claims to still
        hold* are renewed: a batch the shard abandoned stops being
        renewed and ages out naturally.
        """
        renewed: List[int] = []
        lost: List[int] = []
        with self._lock:
            now = self._clock()
            for token in tokens:
                lease = self._active.get(token)
                if lease is None or lease.shard_id != shard_id:
                    lost.append(token)
                    continue
                lease.deadline = now + self.lease_timeout
                renewed.append(token)
                self.renewed += 1
        return {"renewed": renewed, "lost": lost}

    def expire_due(self) -> List[Lease]:
        """Reclaim every lease past its monotonic deadline.

        The caller (the coordinator's maintenance pass) charges the
        attempt and requeues the batch; the table only rules on *which*
        leases died.
        """
        expired: List[Lease] = []
        with self._lock:
            now = self._clock()
            if now < self._earliest:
                return expired
            for token, lease in list(self._active.items()):
                if lease.deadline <= now:
                    self._drop_locked(token)
                    self.reclaimed += 1
                    expired.append(lease)
            self._earliest = min((lease.deadline
                                  for lease in self._active.values()),
                                 default=math.inf)
        for lease in expired:
            self._journal(lease, "lease_expired")
            self._journal(lease, "lease_reclaimed")
        return expired

    def _drop_locked(self, token: int) -> None:
        lease = self._active.pop(token, None)
        if lease is None:
            return
        holders = self._by_digest.get(lease.digest)
        if holders is not None:
            holders.discard(token)
            if not holders:
                del self._by_digest[lease.digest]

    def release(self, token: int, event: Optional[str] = None,
                **extra: object) -> None:
        """Drop a lease without verdict (withdrawn, cancelled or failed
        work), journaling ``event`` for it if given."""
        with self._lock:
            lease = self._active.get(token)
            self._drop_locked(token)
        if lease is not None and event is not None:
            self._journal(lease, event, **extra)

    # -- the exactly-once verdict ----------------------------------------------------

    def commit(self, shard_id: str, token: int, digest: str) -> str:
        """Rule on one commit attempt: ``ok``, ``duplicate`` or ``fenced``.

        ``fenced`` — the token is not in the active table (expired and
        reclaimed, or never granted) or does not match the claim: the
        server may already have re-leased this work, so the ghost's
        bytes are refused and the fencing is journaled.

        ``duplicate`` — the lease is live but the digest was already
        committed by a hedge partner: accepted as a no-op (the store is
        content-hashed; both copies are byte-identical by construction).

        ``ok`` — first commit of this digest under a live lease; the
        caller must persist the payload *before* acknowledging the
        shard.
        """
        with self._lock:
            lease = self._active.get(token)
            valid = (lease is not None and lease.digest == digest
                     and lease.shard_id == shard_id)
            if valid:
                self._drop_locked(token)
                if digest in self._committed:
                    verdict = "duplicate"
                else:
                    self._committed[digest] = None
                    if len(self._committed) > COMMITTED_MEMORY:
                        del self._committed[next(iter(self._committed))]
                    verdict = "ok"
            else:
                verdict = "fenced"
                self.fenced += 1
        if verdict == "fenced":
            ghost = Lease(token=token, digest=digest, label="",
                          campaign_id="", shard_id=shard_id,
                          deadline=0.0, granted_at=0.0)
            self._journal(ghost, "lease_fenced")
        elif lease is not None:
            event = "committed" if verdict == "ok" else "duplicate"
            self._journal(lease, f"lease_{event}", routine=True)
        return verdict

    # -- queries ---------------------------------------------------------------------

    def get(self, token: int) -> Optional[Lease]:
        with self._lock:
            return self._active.get(token)

    def holders(self, digest: str) -> List[Lease]:
        with self._lock:
            return [self._active[t]
                    for t in self._by_digest.get(digest, ())]

    def is_committed(self, digest: str) -> bool:
        with self._lock:
            return digest in self._committed

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"active": len(self._active), "granted": self.granted,
                    "renewed": self.renewed, "reclaimed": self.reclaimed,
                    "fenced": self.fenced}
