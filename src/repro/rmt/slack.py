"""Slack fetch: SRT's leading/trailing thread arrangement.

The redundant pair runs the same instruction stream on two contexts.  The
*trailing* thread is held a bounded number of committed instructions behind
the *leader*: far enough back that the leader has already resolved the
branches and warmed the cache lines the trailer is about to need, close
enough that the comparison buffer stays small.  Fetch priority therefore:

* gate the trailer whenever its distance to the leader drops below
  ``min_slack``;
* gate the *leader* whenever the trailer has fallen more than ``max_slack``
  behind (the store-comparison buffer would overflow);
* otherwise ICOUNT order.

Non-redundant threads sharing the machine are scheduled by ICOUNT among
themselves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.errors import ConfigError
from repro.fetch.base import FetchPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore


class SlackFetchPolicy(FetchPolicy):
    name = "SLACK"

    def __init__(self, leader: int = 0, trailer: int = 1,
                 min_slack: int = 32, max_slack: int = 256) -> None:
        if leader == trailer:
            raise ConfigError("leader and trailer must be distinct contexts")
        if not 0 < min_slack < max_slack:
            raise ConfigError("need 0 < min_slack < max_slack")
        self.leader = leader
        self.trailer = trailer
        self.min_slack = min_slack
        self.max_slack = max_slack
        self.trailer_gated_cycles = 0
        self.leader_gated_cycles = 0

    def slack_instructions(self, core: "SMTCore") -> int:
        """Current lead-over-trail distance in committed instructions."""
        return (core.thread(self.leader).committed
                - core.thread(self.trailer).committed)

    def priorities(self, core: "SMTCore") -> List[int]:
        eligible = core.fetchable_threads()
        slack = self.slack_instructions(core)
        gated = set()
        if slack < self.min_slack:
            gated.add(self.trailer)
            self.trailer_gated_cycles += 1
        elif slack > self.max_slack:
            gated.add(self.leader)
            self.leader_gated_cycles += 1
        order = self.icount_order(core, [t for t in eligible if t not in gated])
        # Leader first among the redundant pair when both are eligible:
        # its progress is what unblocks the trailer.
        if self.leader in order:
            order.remove(self.leader)
            order.insert(0, self.leader)
        if not order and eligible:
            return self.icount_order(core, eligible)[:1]
        return order

    def on_idle_cycles(self, core: "SMTCore", cycles: int) -> None:
        # priorities() would have gated the same thread in every one.
        slack = self.slack_instructions(core)
        if slack < self.min_slack:
            self.trailer_gated_cycles += cycles
        elif slack > self.max_slack:
            self.leader_gated_cycles += cycles
