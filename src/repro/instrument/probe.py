"""Typed probe bus: the pipeline's one-way channel to its observers.

The cycle kernel and the occupancy-tracked structures emit *residency
events* — an IQ entry vacated, a register lifetime closed, a functional
unit busy for a cycle — to a :class:`ResidencyProbe`.  The protocol is
deliberately narrow: it knows nothing about AVF maths, auditing, tracing
or fault injection, so nothing under ``repro.pipeline`` or
``repro.structures`` needs to import ``repro.avf``.

Consumers (the AVF engine, the interval recorder, the phase tracker,
the auditor, the JSONL trace writer) subscribe to a :class:`ProbeBus`.
The bus multiplexes residency events to every residency subscriber and
sorts each subscriber's lifecycle hooks; :meth:`ProbeBus.attach` freezes
them into the tuples of an :class:`Instrumentation`, which the core calls
directly:

``on_reset(cycle)``
    the measurement window restarted (end of timing warmup);
``on_cycle(core)``
    one simulated cycle finished (all stages ran); not called on the idle
    cycles the core skips, so a cycle hook also answers
    ``next_wake(cycle)``: the first cycle after ``cycle`` it can act at;
``on_commit(core, instr)``
    one instruction retired (live fault injection's digest capture);
``on_finalize(core)``
    the run drained — every residency interval is closed.

Fast path: with exactly one residency subscriber — the common case, where
only the final AVF report is wanted — :meth:`ProbeBus.residency_probe`
returns that subscriber itself, so structures call the ledger directly and
the bus adds zero dispatch overhead to the hot loop.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, Tuple, runtime_checkable

from repro.errors import ReproError
from repro.instrument.structures import Structure


@runtime_checkable
class ResidencyProbe(Protocol):
    """What the pipeline needs from an observer of residency events.

    ``AvfEngine`` satisfies this protocol directly; so do
    :class:`~repro.instrument.recorder.IntervalRecorder`, :class:`NullProbe`
    and :class:`ProbeBus` itself (the multi-subscriber fan-out).
    """

    def occupy(self, structure: Structure, thread_id: int, start: int,
               end: int, ace: bool) -> None:
        """One entry of ``structure`` was occupied over ``[start, end)``."""
        ...

    def fu_busy_cycle(self, thread_id: int, ace: bool, cycle: int = -1) -> None:
        """One functional unit was busy for one cycle."""
        ...

    def reg_lifetime(self, thread_id: int, alloc: int, written: int,
                     last_read: int, freed: int, ace: bool) -> None:
        """One physical register's full allocation lifetime closed."""
        ...


#: The three methods a residency subscriber must implement in full.
_RESIDENCY_METHODS = ("occupy", "fu_busy_cycle", "reg_lifetime")


class NullProbe:
    """Residency sink for unobserved runs: every event is dropped."""

    __slots__ = ()

    def occupy(self, structure: Structure, thread_id: int, start: int,
               end: int, ace: bool) -> None:
        pass

    def fu_busy_cycle(self, thread_id: int, ace: bool, cycle: int = -1) -> None:
        pass

    def reg_lifetime(self, thread_id: int, alloc: int, written: int,
                     last_read: int, freed: int, ace: bool) -> None:
        pass


NULL_PROBE = NullProbe()


class Instrumentation:
    """Everything a core needs from one wiring of the probe bus.

    Built by :meth:`ProbeBus.attach`; the core never walks the bus itself —
    it reads the collapsed residency probe and pre-resolved hook tuples off
    this container, so an unobserved run pays nothing per cycle.
    """

    __slots__ = ("probe", "bus", "ledger", "recorder", "cycle_hooks",
                 "reset_hooks", "finalize_hooks", "commit_hooks", "taint",
                 "dl1_observer", "dtlb_observer")

    def __init__(self, probe, bus: Optional["ProbeBus"] = None, ledger=None,
                 recorder=None, cycle_hooks: Tuple = (),
                 reset_hooks: Tuple = (), finalize_hooks: Tuple = (),
                 commit_hooks: Tuple = (), taint: bool = False,
                 dl1_observer=None, dtlb_observer=None) -> None:
        self.probe = probe
        self.bus = bus
        self.ledger = ledger
        self.recorder = recorder
        self.cycle_hooks = cycle_hooks
        self.reset_hooks = reset_hooks
        self.finalize_hooks = finalize_hooks
        self.commit_hooks = commit_hooks
        self.taint = taint
        self.dl1_observer = dl1_observer
        self.dtlb_observer = dtlb_observer

    @property
    def observes_residency(self) -> bool:
        """Whether anything reads residency: a subscriber on the residency
        probe, or the ledger's cache/TLB observers.  Without one, the
        end-of-run drain that closes every open interval has no reader."""
        return (self.probe is not NULL_PROBE
                or self.dl1_observer is not None
                or self.dtlb_observer is not None)

    def fork(self) -> "Instrumentation":
        """The same wiring over independent copies of every subscriber.

        Each subscriber must implement ``fork()``; one that does not (an
        auditor, a trace writer, a strike hook) cannot be duplicated
        faithfully, so the fork is refused rather than silently sharing
        it.  Subscription order is kept, so hooks fire in the same order.
        """
        if self.bus is None:
            raise ReproError("cannot fork instrumentation built without a bus")
        bus = ProbeBus()
        copies = {}
        for subscriber in self.bus.subscribers:
            fork = getattr(subscriber, "fork", None)
            if fork is None:
                raise ReproError(f"cannot fork a core observed by "
                                 f"{type(subscriber).__name__}")
            copies[id(subscriber)] = bus.subscribe(fork())
        return bus.attach(ledger=copies.get(id(self.ledger)),
                          recorder=copies.get(id(self.recorder)),
                          taint=self.taint)

    def __repr__(self) -> str:
        return (f"Instrumentation(probe={type(self.probe).__name__}, "
                f"bus={self.bus!r})")


class ProbeBus:
    """Multiplexes residency events to subscribers; collects their hooks.

    Subscribers declare their interests structurally: implementing the full
    :class:`ResidencyProbe` protocol routes residency events to them, and
    each of ``on_reset`` / ``on_cycle`` / ``on_commit`` / ``on_finalize``
    puts the subscriber in that hook's tuple of :meth:`attach`'s
    :class:`Instrumentation`.  Hooks fire in subscription order.  An
    ``on_cycle`` subscriber must also answer ``next_wake``.
    """

    def __init__(self) -> None:
        self._subscribers: List[object] = []
        self._residency: List[ResidencyProbe] = []
        self._reset: List[object] = []
        self._cycle: List[object] = []
        self._commit: List[object] = []
        self._finalize: List[object] = []

    # -- wiring ------------------------------------------------------------------

    def subscribe(self, subscriber):
        """Register ``subscriber`` for every hook it implements."""
        implemented = [m for m in _RESIDENCY_METHODS if hasattr(subscriber, m)]
        if implemented and len(implemented) != len(_RESIDENCY_METHODS):
            missing = sorted(set(_RESIDENCY_METHODS) - set(implemented))
            raise ReproError(
                f"{type(subscriber).__name__} implements only part of the "
                f"residency protocol (missing: {', '.join(missing)})")
        if hasattr(subscriber, "on_cycle") \
                and not hasattr(subscriber, "next_wake"):
            raise ReproError(f"{type(subscriber).__name__} has on_cycle but "
                             f"no next_wake")
        self._subscribers.append(subscriber)
        if implemented:
            self._residency.append(subscriber)
        if hasattr(subscriber, "on_reset"):
            self._reset.append(subscriber)
        if hasattr(subscriber, "on_cycle"):
            self._cycle.append(subscriber)
        if hasattr(subscriber, "on_commit"):
            self._commit.append(subscriber)
        if hasattr(subscriber, "on_finalize"):
            self._finalize.append(subscriber)
        return subscriber

    @property
    def subscribers(self) -> Tuple[object, ...]:
        return tuple(self._subscribers)

    def residency_probe(self) -> ResidencyProbe:
        """The collapsed residency target for structure constructors.

        Zero subscribers: the null sink.  Exactly one (only the final AVF
        report is consumed): that subscriber itself — the zero-overhead fast
        path.  Several: the bus, which fans each event out in order.
        """
        if not self._residency:
            return NULL_PROBE
        if len(self._residency) == 1:
            return self._residency[0]
        return self

    def attach(self, ledger=None, recorder=None,
               taint: bool = False) -> Instrumentation:
        """Freeze the current wiring into an :class:`Instrumentation`.

        ``ledger`` is the subscriber exposed as ``core.engine`` (and the
        source of the cache/TLB observers, which sample aggregates directly
        rather than through the bus); ``recorder`` is exposed to the audit
        layer for interval-replay cross-validation.  ``taint`` switches on
        the core's value-taint propagation (live fault injection); normal
        runs leave it off and pay nothing for it.
        """
        return Instrumentation(
            probe=self.residency_probe(),
            bus=self,
            ledger=ledger,
            recorder=recorder,
            cycle_hooks=tuple(self._cycle),
            reset_hooks=tuple(self._reset),
            finalize_hooks=tuple(self._finalize),
            commit_hooks=tuple(self._commit),
            taint=taint,
            dl1_observer=getattr(ledger, "dl1_observer", None),
            dtlb_observer=getattr(ledger, "dtlb_observer", None),
        )

    # -- residency fan-out (multi-subscriber slow path) --------------------------

    def occupy(self, structure: Structure, thread_id: int, start: int,
               end: int, ace: bool) -> None:
        for probe in self._residency:
            probe.occupy(structure, thread_id, start, end, ace)

    def fu_busy_cycle(self, thread_id: int, ace: bool, cycle: int = -1) -> None:
        for probe in self._residency:
            probe.fu_busy_cycle(thread_id, ace, cycle)

    def reg_lifetime(self, thread_id: int, alloc: int, written: int,
                     last_read: int, freed: int, ace: bool) -> None:
        for probe in self._residency:
            probe.reg_lifetime(thread_id, alloc, written, last_read, freed, ace)

    def __repr__(self) -> str:
        names = ", ".join(type(s).__name__ for s in self._subscribers)
        return f"ProbeBus([{names}])"
