"""Outside-in layer tracing: spans recorded around calls into the program's
public functions, wrapped from the benchmark's own files.

A :class:`Probe` names one public callable and the layer it belongs to.
:meth:`Tracer.install` replaces each probed callable with a wrapper that
records a span (name, id, parent id, ``perf_counter_ns`` start and end,
optional attributes) and :meth:`Tracer.uninstall` puts the exact original
objects back.  Spans stay in memory until :meth:`Tracer.dump` writes them
as JSONL.  Parent ids are tracked per thread, so the campaign server's
worker threads each get their own call stacks.

The untraced run installs at most the one probe that times a workload's
operation; the traced run installs every probe the workload reaches.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import percentile


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    ``sites`` lists every ``(module, attribute path)`` binding to wrap:
    a function imported by name into another module must be rebound there
    too.  ``annotate(args, result)`` returns span attributes; it also runs
    when the call raises (``result`` is then None).
    """

    name: str
    layer: str
    sites: Tuple[Tuple[str, str], ...]
    annotate: Optional[Callable[[tuple, object], Dict[str, object]]] = None


@dataclass
class Span:
    name: str
    id: int
    parent: int
    start: int
    end: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.start) / 1e9


def _trace_instrs(args, result):
    return {"instrs": len(result.instrs)} if result is not None else {}


def _kernel(args, result):
    core = args[0]
    return {"cycles": core.cycle, "committed": core.total_committed}


def _strike(args, result):
    attrs = {"cycle": args[0].cycle}
    if result is not None:
        attrs["outcome"] = result.outcome.name
    return attrs


#: Library probes, in the order they are installed.
LIBRARY_PROBES: Tuple[Probe, ...] = (
    Probe("workload.trace", "workload",
          (("repro.sim.session", "generate_trace"),), _trace_instrs),
    Probe("sim.session", "sim",
          (("repro.sim.session", "SimSession.__init__"),)),
    Probe("sim.warmup", "sim",
          (("repro.sim.session", "functional_warmup"),
           ("repro.faultinject.live", "functional_warmup"))),
    Probe("sim.simulate", "sim",
          (("repro.experiments.runner", "simulate"),)),
    Probe("sim.kernel", "sim",
          (("repro.pipeline.core", "SMTCore.run"),), _kernel),
    Probe("avf.report", "avf",
          (("repro.avf.engine", "AvfEngine.report"),)),
    Probe("faultinject.golden", "faultinject",
          (("repro.faultinject.live", "golden_run"),)),
    Probe("faultinject.strike", "faultinject",
          (("repro.faultinject.live", "run_one_strike"),), _strike),
    Probe("faultinject.classify", "faultinject",
          (("repro.faultinject.classify", "DigestRecorder.digest"),)),
    Probe("experiments.cache_get", "experiments",
          (("repro.experiments.runner", "ResultCache.get"),)),
    Probe("experiments.cache_put", "experiments",
          (("repro.experiments.runner", "ResultCache.put"),)),
    Probe("experiments.decode", "experiments",
          (("repro.sim.results", "SimResult.from_payload"),)),
    Probe("experiments.prewarm", "experiments",
          (("repro.experiments.reproduce", "prewarm_artefacts"),)),
    Probe("experiments.run_all", "experiments",
          (("repro.experiments.reproduce", "run_all"),)),
)

#: Server-side probes, installed in the campaign server by
#: ``serve_traced.py``.  Pool-worker internals are left out: the
#: live_validation workload traces the same code in-process.
SERVER_PROBES: Tuple[Probe, ...] = (
    Probe("service.submit", "service",
          (("repro.service.scheduler", "CampaignScheduler.submit"),)),
    Probe("resilience.supervisor", "resilience",
          (("repro.resilience.supervisor", "Supervisor.run"),)),
    Probe("service.store_write", "service",
          (("repro.service.store", "ArtifactStore.write_artifact"),)),
    Probe("service.store_read", "service",
          (("repro.service.store", "ArtifactStore.verified_artifact_bytes"),)),
)

ALL_PROBES = {p.name: p for p in LIBRARY_PROBES + SERVER_PROBES}
LAYERS = ("workload", "sim", "avf", "faultinject", "experiments",
          "resilience", "service")


def layer_of(name: str) -> str:
    """A probe's layer; spans the harness records itself (its timed units,
    the service client's requests) belong to no layer of the program."""
    probe = ALL_PROBES.get(name)
    return probe.layer if probe is not None else "harness"


def probes_named(names: Sequence[str]) -> List[Probe]:
    return [ALL_PROBES[n] for n in names]


class Tracer:
    """Records spans from wrapped callables and from :meth:`span` blocks.

    When a span named in ``sampled`` ends, ``control()`` runs (outside the
    span) and its result is kept as the span's ``control`` attribute: the
    harness's machine-speed sample next to every operation.
    """

    def __init__(self, workload: str, run_id: str,
                 sampled: Sequence[str] = (),
                 control: Optional[Callable[[], float]] = None) -> None:
        self.workload = workload
        self.run_id = run_id
        self.sampled = frozenset(sampled)
        self.control = control
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, fn: Callable, args: tuple, kwargs: dict,
               annotate=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            attrs = annotate(args, result) if annotate is not None else {}
            if name in self.sampled and self.control is not None:
                attrs["control"] = self.control()
            self.spans.append(Span(name, span_id, parent, start, end, attrs))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.record(name, fn, args, kwargs)

    # -- wrapping ------------------------------------------------------------------

    def _wrapper(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.record(probe.name, fn, args, kwargs, probe.annotate)
        return wrapper

    def install(self, probes: Sequence[Probe]) -> None:
        """Wrap every site of every probe; all or nothing.

        A missing module or attribute raises: a probe that silently
        wrapped nothing would report a layer as idle.
        """
        try:
            for probe in probes:
                for module_name, path in probe.sites:
                    owner = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = (owner.__dict__[attr] if outer
                                else getattr(owner, attr))
                    if isinstance(original, classmethod):
                        replacement: object = classmethod(
                            self._wrapper(probe, original.__func__))
                    else:
                        replacement = self._wrapper(probe, original)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, replacement)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back the exact original objects, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "name": s.name, "id": s.id, "parent": s.parent,
                    "start_ns": s.start, "end_ns": s.end,
                    "workload": self.workload, "run": self.run_id,
                    **({"attrs": s.attrs} if s.attrs else {})}) + "\n")


def load_spans(path: Path, id_offset: int = 0) -> List[Span]:
    """Spans written by :meth:`Tracer.dump`, with ``id_offset`` added to
    every id so they can join another tracer's spans."""
    spans = []
    for line in path.read_text().splitlines():
        raw = json.loads(line)
        parent = raw["parent"] + id_offset if raw["parent"] else 0
        spans.append(Span(raw["name"], raw["id"] + id_offset, parent,
                          raw["start_ns"], raw["end_ns"],
                          raw.get("attrs", {})))
    return spans


# -- analysis --------------------------------------------------------------------


def _covered(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of ``intervals``."""
    total = 0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> seconds of its duration not covered by its children."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end))
                   for lo, hi in children.get(s.id, ()) if hi > s.start
                   and lo < s.end]
        result[s.id] = (s.end - s.start - _covered(clipped)) / 1e9
    return result


def coverage(spans: Sequence[Span]) -> float:
    """Seconds covered by the outermost spans of the program's layers
    (their union); the harness's own spans do not count."""
    program = {s.id for s in spans if layer_of(s.name) != "harness"}
    return _covered([(s.start, s.end) for s in spans
                     if s.id in program and s.parent not in program]) / 1e9


def missing_spans(spans: Sequence[Span], required: Sequence[str]) -> List[str]:
    """Required span names that were never recorded (probe drift guard)."""
    seen = {s.name for s in spans}
    return [name for name in required if name not in seen]


def _descendants(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    by_parent: Dict[int, List[Span]] = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    return by_parent


def _under(span: Span, by_parent: Dict[int, List[Span]], name: str
           ) -> List[Span]:
    found, frontier = [], [span.id]
    while frontier:
        for child in by_parent.get(frontier.pop(), ()):
            if child.name == name:
                found.append(child)
            frontier.append(child.id)
    return found


OUTCOMES = ("MASKED", "MASKED_IDLE", "SDC", "DUE", "HANG", "CORRECTED")


def layer_metrics(spans: Sequence[Span], wall: float) -> Dict[str, float]:
    """Every per-layer number derivable from ``spans`` over ``wall`` s."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, ()))

    def total_s(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    # Counts read from the program's own objects; workloads that have them
    # overwrite these zeros.
    m: Dict[str, float] = {"experiments.disk_hits": 0,
                           "experiments.simulated": 0,
                           "service.executions": 0, "service.dedup_hits": 0}
    for layer in LAYERS:
        m[f"{layer}.share"] = share(sum(
            own[s.id] for s in spans if layer_of(s.name) == layer))

    instrs = sum(s.attrs.get("instrs", 0) for s in by_name.get(
        "workload.trace", ()))
    kernels = by_name.get("sim.kernel", [])
    cycles = sum(s.attrs.get("cycles", 0) for s in kernels)
    committed = sum(s.attrs.get("committed", 0) for s in kernels)
    m["workload.trace_s"] = self_s("workload.trace")
    m["workload.trace_instrs"] = instrs
    m["workload.useful_ratio"] = committed / instrs if instrs else 0.0

    m["sim.session_s"] = self_s("sim.session")
    m["sim.warmup_calls"] = calls("sim.warmup")
    m["sim.warmup_s"] = self_s("sim.warmup")
    m["sim.kernel_calls"] = len(kernels)
    m["sim.kernel_s"] = self_s("sim.kernel")
    m["sim.kernel_cycles"] = cycles
    m["sim.kernel_ns_per_cycle"] = (m["sim.kernel_s"] * 1e9 / cycles
                                    if cycles else 0.0)
    for name in ("sim.session", "sim.warmup", "sim.kernel"):
        m[f"{name}_share"] = share(self_s(name))

    m["avf.report_s"] = self_s("avf.report")

    by_parent = _descendants(spans)
    strikes = by_name.get("faultinject.strike", [])
    goldens = by_name.get("faultinject.golden", [])
    m["faultinject.golden_computed"] = sum(
        1 for g in goldens if _under(g, by_parent, "sim.kernel"))
    m["faultinject.golden_s"] = total_s("faultinject.golden")
    m["faultinject.strikes"] = len(strikes)
    latencies = [s.duration * 1e3 for s in strikes]
    m["faultinject.strike_p50_ms"] = (percentile(latencies, 50)
                                      if latencies else 0.0)
    m["faultinject.strike_p90_ms"] = (percentile(latencies, 90)
                                      if latencies else 0.0)
    strike_cycles = sum(s.attrs.get("cycle", 0) for s in strikes)
    faulty_cycles = sum(k.attrs.get("cycles", 0) for s in strikes
                        for k in _under(s, by_parent, "sim.kernel"))
    m["faultinject.prefix_share"] = (strike_cycles / faulty_cycles
                                     if faulty_cycles else 0.0)
    outcomes = [s.attrs.get("outcome") for s in strikes]
    m["faultinject.idle_share"] = (outcomes.count("MASKED_IDLE") / len(strikes)
                                   if strikes else 0.0)
    m["faultinject.classify_s"] = self_s("faultinject.classify")
    m["faultinject.classify_share"] = share(m["faultinject.classify_s"])
    for outcome in OUTCOMES:
        m[f"faultinject.outcome.{outcome}"] = outcomes.count(outcome)

    m["experiments.prewarm_s"] = total_s("experiments.prewarm")
    m["experiments.render_s"] = (total_s("experiments.run_all")
                                 - m["experiments.prewarm_s"])
    m["experiments.cache_get_calls"] = calls("experiments.cache_get")
    m["experiments.cache_get_s"] = self_s("experiments.cache_get")
    m["experiments.decode_s"] = self_s("experiments.decode")
    m["experiments.cache_put_s"] = self_s("experiments.cache_put")
    for name in ("experiments.cache_get", "experiments.decode",
                 "experiments.cache_put"):
        m[f"{name}_share"] = share(self_s(name))
    m["experiments.render_share"] = share(m["experiments.render_s"])

    m["resilience.supervisor_calls"] = calls("resilience.supervisor")
    m["resilience.supervisor_s"] = total_s("resilience.supervisor")
    m["service.submit_s"] = total_s("service.submit")
    m["service.store_write_s"] = total_s("service.store_write")
    m["service.store_read_s"] = total_s("service.store_read")

    m["span_coverage"] = share(coverage(spans))
    return m
