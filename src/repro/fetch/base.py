"""Fetch-policy interface.

A policy sees the core each cycle and returns the ordered list of threads
allowed to fetch; it also receives the pipeline events the published
policies key on (L1/L2 data misses and their resolution, instruction fetch).
Policies are stateful and must be instantiated fresh per simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List

from repro.isa.instruction import DynInstr, InstrRemap

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import SMTCore


class FetchPolicy(ABC):
    """Decides, each cycle, which threads may fetch and in what order."""

    #: Short name used in reports and the registry.
    name: str = "base"

    @abstractmethod
    def priorities(self, core: "SMTCore") -> List[int]:
        """Ordered thread ids eligible to fetch this cycle (best first)."""

    # -- event hooks (default: ignore) ---------------------------------------------

    def on_fetch(self, core: "SMTCore", instr: DynInstr) -> None:
        """A correct- or wrong-path instruction entered the front end."""

    def on_l2_miss(self, core: "SMTCore", load: DynInstr) -> None:
        """A load was discovered to miss in the L2."""

    def on_load_resolved(self, core: "SMTCore", load: DynInstr) -> None:
        """A load's data arrived (its miss counters were just released)."""

    def on_squash(self, core: "SMTCore", instr: DynInstr) -> None:
        """A fetched instruction was squashed (it may never execute)."""

    # -- forking ------------------------------------------------------------------------

    def fork(self, remap: InstrRemap) -> "FetchPolicy":
        """An independent copy for a fork of the core (see
        :meth:`SMTCore.fork`).  The default shallow copy suits policies
        whose state is scalars; a policy holding containers or
        instructions must override it."""
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    # -- shared helper ----------------------------------------------------------------

    @staticmethod
    def icount_order(core: "SMTCore", thread_ids) -> List[int]:
        """ICOUNT ordering: fewest in-flight front-end/IQ instructions first."""
        return sorted(thread_ids, key=lambda tid: (core.in_flight_count(tid), tid))
