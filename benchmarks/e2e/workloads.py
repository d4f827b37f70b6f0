"""The benchmark's four workloads.

Each workload is one process.  It sets up (timed as ``setup_s``), then runs
its unit operations for ``--seconds`` (a phase), and finally checks every
output it produced.  With ``--trace 1`` it runs a second, traced phase on
fresh state after the untraced one, so the per-layer numbers and the
tracing overhead come from the same process.

``repro`` is imported lazily: the harness imports this module before it
knows whether the program is present.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import queue
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from harness import HERE, ROOT, load_pins, percentile, program_env
from trace import Tracer, load_spans

#: Every artefact ``reproduce`` serves from the result cache (everything
#: but the two live-injection artefacts, which bypass it).
CACHED_ARTEFACTS = (
    "fig1_avf_profile", "fig2_efficiency", "fig3_smt_vs_st",
    "fig4_smt_vs_st_efficiency", "fig5_context_scaling",
    "fig6_fetch_policies", "fig7_policy_efficiency", "fig8_fairness",
    "smt_vs_superscalar", "resource_scaling",
)

#: Per-thread instruction budget of the reproduce workloads: the scale the
#: repository's smoke targets use, where the 138 distinct runs behind the
#: cached artefacts take seconds, not minutes.
REPRODUCE_SCALE = 300

GOLDEN_INJECTION = ROOT / "tests" / "golden" / "injection_validation.txt"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Phase:
    """What one timed phase measured."""

    wall: float = 0.0
    """Seconds spent inside the timed units."""
    items: int = 0
    """Operations completed, counted from the program's own outputs:
    strikes classified, runs simulated, reproduces or campaigns."""
    window: Tuple[int, int] = (0, 0)
    """``perf_counter_ns`` bounds of the timed loop; spans outside it
    (set-up, checks, the service's hit requests) are not attributed."""
    counts: Dict[str, float] = field(default_factory=dict)
    """Per-layer counts read from the program's own objects."""


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)
    """Output name -> sha256, recorded in every result file; pins.json
    holds a seed-1 result's values."""
    detail: Dict[str, float] = field(default_factory=dict)
    """Workload-specific end-to-end numbers (printed, not bounded)."""

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok


#: The span around each timed unit of a phase (a campaign, a reproduce, a
#: block of service campaigns).
UNIT = "unit"


def run_window(ctx: Context, phase: Phase, tracer: Tracer,
               unit: Callable[[], object],
               after: Callable[[object], None]) -> None:
    """Run ``unit`` until ``ctx.seconds`` have passed (at least once; the
    last run may end past the window); ``after(value)`` handles each
    result outside the timed part."""
    started = time.perf_counter_ns()
    while (not phase.wall
           or (time.perf_counter_ns() - started) / 1e9 < ctx.seconds):
        t0 = time.perf_counter()
        value = tracer.span(UNIT, unit)
        phase.wall += time.perf_counter() - t0
        after(value)
    phase.window = (started, time.perf_counter_ns())


class Workload:
    name = ""
    op = ""
    #: Span that times one operation in both phases: a library probe, or
    #: a span the harness records itself.  Without one (a probe that no
    #: longer reaches the code it names), the units time the phase.
    op_span = UNIT
    #: Probes installed in the traced phase.
    traced_probes: Tuple[str, ...] = ()
    #: Spans the traced phase must record; a missing one means a probe no
    #: longer reaches the code it names, and fails the run.
    required: Tuple[str, ...] = ()
    #: Modules whose fresh-interpreter import is part of set-up.
    imports: Tuple[str, ...] = ()

    def setup(self, ctx: Context) -> float:
        """Prepare; returns the preparation seconds (imports excluded)."""
        return 0.0

    def phase(self, ctx: Context, tracer: Tracer, traced: bool) -> Phase:
        raise NotImplementedError

    def verify(self, ctx: Context) -> None:
        pass

    def close(self) -> None:
        pass

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- live_validation -------------------------------------------------------------


class LiveValidation(Workload):
    name = "live_validation"
    op = "strike"
    op_span = "faultinject.strike"
    traced_probes = ("workload.trace", "sim.session", "sim.warmup",
                     "sim.kernel", "avf.report", "faultinject.golden",
                     "faultinject.strike", "faultinject.classify")
    required = traced_probes
    imports = ("repro.faultinject.live", "repro.experiments.validate_injection")

    def __init__(self) -> None:
        self.campaigns: list = []

    def setup(self, ctx: Context) -> float:
        started = time.perf_counter()
        from repro.config import SimConfig
        from repro.experiments import validate_injection as v
        from repro.workload.mixes import get_mix

        # The artefact's golden configuration (trace seed 1, as
        # `reproduce` runs it); --seed picks the strike sample, so every
        # seed strikes the same golden run.  Seed 1 is the artefact
        # exactly, and its text must equal the repository golden.
        self.mix = get_mix(v.VALIDATION_WORKLOAD)
        self.sim = SimConfig(
            max_instructions=v.VALIDATION_BUDGET_CAP * self.mix.num_threads,
            seed=1)
        self.injections = v.VALIDATION_INJECTIONS
        return time.perf_counter() - started

    def phase(self, ctx: Context, tracer: Tracer, traced: bool) -> Phase:
        from repro.faultinject import live

        def campaign():
            # A fresh process starts with an empty golden-run memo; so
            # does every campaign here.  (Only a second campaign in one
            # run needs this; the first always starts cold.)
            getattr(live, "_GOLDEN_MEMO", {}).clear()
            return live.run_live_campaign(self.mix,
                                          injections=self.injections,
                                          sim=self.sim, seed=ctx.seed)

        def after(result):
            self.campaigns.append(result)
            ctx.attempted += len(result.records)
            phase.items += len(result.records)

        phase = Phase()
        run_window(ctx, phase, tracer, campaign, after)
        return phase

    def verify(self, ctx: Context) -> None:
        from repro.experiments.validate_injection import (
            format_injection_validation)

        pinned = load_pins()["live_validation"]["outcomes"]
        for campaign in self.campaigns:
            text = (format_injection_validation(campaign) + "\n").encode()
            ctx.outputs["injection_validation"] = sha256(text)
            outcomes: Dict[str, int] = {}
            for record in campaign.records:
                name = record.outcome.name
                outcomes[name] = outcomes.get(name, 0) + 1
            ctx.check(len(campaign.records)
                      == self.injections * len(campaign.structures),
                      f"{len(campaign.records)} strikes classified")
            for structure, counts in campaign.structures.items():
                ctx.check(sum(counts.outcomes.values()) == counts.injections,
                          f"{structure.value}: outcome counts do not sum to "
                          f"{counts.injections}")
            if ctx.seed == 1:
                ctx.check(text == GOLDEN_INJECTION.read_bytes(),
                          "injection_validation differs from "
                          "tests/golden/injection_validation.txt")
                ctx.check(outcomes == pinned,
                          f"outcome counts {outcomes} != pinned {pinned}")


# -- reproduce_cold / reproduce_warm ---------------------------------------------


def _reproduce(out: Path, cache, seed: int, jobs: int = 1) -> Dict[str, str]:
    """One `reproduce` of the cached artefacts; returns name -> text."""
    from repro.experiments import reproduce
    from repro.experiments.runner import ExperimentScale

    reproduce.run_all(out, scale=ExperimentScale(REPRODUCE_SCALE, seed),
                      only=list(CACHED_ARTEFACTS), jobs=jobs, cache=cache)
    return {name: (out / f"{name}.txt").read_text()
            for name in CACHED_ARTEFACTS}


def _check_texts(ctx: Context, texts: Dict[str, str], what: str) -> None:
    pins = load_pins()["reproduce"]
    for name, text in texts.items():
        digest = sha256(text.encode())
        ctx.outputs[name] = digest
        ctx.check(bool(text.strip()) and "MISSING(" not in text,
                  f"{what}: {name} is empty or degraded")
        if ctx.seed == 1:
            ctx.check(digest == pins.get(name),
                      f"{what}: {name} differs from its seed-1 pin")


def _cache_counts(phase: Phase, cache) -> None:
    for key, value in (("experiments.simulated", cache.simulated),
                       ("experiments.disk_hits", cache.disk_hits)):
        phase.counts[key] = phase.counts.get(key, 0) + value


_REPRODUCE_PROBES = ("workload.trace", "sim.session", "sim.warmup",
                     "sim.simulate", "sim.kernel", "avf.report",
                     "experiments.cache_get", "experiments.cache_put",
                     "experiments.decode", "experiments.prewarm",
                     "experiments.run_all")


class ReproduceCold(Workload):
    name = "reproduce_cold"
    op = "simulation"
    op_span = "sim.simulate"
    traced_probes = _REPRODUCE_PROBES
    required = tuple(p for p in _REPRODUCE_PROBES
                     if p != "experiments.decode")
    imports = ("repro.experiments.reproduce",)

    def __init__(self) -> None:
        self.runs: List[Tuple[Path, Dict[str, str], int]] = []

    def phase(self, ctx: Context, tracer: Tracer, traced: bool) -> Phase:
        from repro.experiments.runner import ResultCache

        phase = Phase()

        def cold():
            run_dir = ctx.work / f"cold-{len(self.runs)}"
            cache = ResultCache(cache_dir=run_dir / "cache")
            return run_dir, cache, _reproduce(run_dir / "out", cache,
                                              ctx.seed)

        def after(value):
            run_dir, cache, texts = value
            self.runs.append((run_dir, texts, cache.simulated))
            _cache_counts(phase, cache)
            ctx.attempted += len(texts)
            phase.items += cache.simulated

        run_window(ctx, phase, tracer, cold, after)
        return phase

    def verify(self, ctx: Context) -> None:
        from repro.experiments.runner import ResultCache

        for run_dir, texts, simulated in self.runs:
            _check_texts(ctx, texts, "cold reproduce")
            entries = len(list((run_dir / "cache").glob("*.json")))
            ctx.check(simulated == entries > 0,
                      f"cold reproduce simulated {simulated} runs but "
                      f"cached {entries}")
            # What was written must read back to the same artefacts.
            again = ResultCache(cache_dir=run_dir / "cache")
            reread = _reproduce(run_dir / "reread", again, ctx.seed)
            ctx.check(again.simulated == 0 and reread == texts,
                      "cold reproduce: re-render from its cache differs")


class ReproduceWarm(Workload):
    name = "reproduce_warm"
    op = "warm reproduce"
    traced_probes = _REPRODUCE_PROBES
    required = ("experiments.cache_get", "experiments.decode",
                "experiments.prewarm", "experiments.run_all")
    imports = ("repro.experiments.reproduce",)

    def setup(self, ctx: Context) -> float:
        from repro.experiments.runner import ResultCache

        self.cache_dir = ctx.work / "warm" / "cache"
        started = time.perf_counter()
        fill = ResultCache(cache_dir=self.cache_dir)
        self.texts = _reproduce(ctx.work / "warm" / "fill", fill, ctx.seed,
                                jobs=2)
        elapsed = time.perf_counter() - started
        self.entries = len(list(self.cache_dir.glob("*.json")))
        ctx.check(fill.simulated == self.entries > 0,
                  f"warm fill simulated {fill.simulated} runs but cached "
                  f"{self.entries}")
        _check_texts(ctx, self.texts, "warm fill")
        return elapsed

    def phase(self, ctx: Context, tracer: Tracer, traced: bool) -> Phase:
        from repro.experiments.runner import ResultCache

        phase = Phase()

        def warm():
            cache = ResultCache(cache_dir=self.cache_dir)
            return cache, _reproduce(ctx.work / "warm" / "out", cache,
                                     ctx.seed)

        def after(value):
            cache, texts = value
            _cache_counts(phase, cache)
            ctx.attempted += len(texts)
            phase.items += 1
            ctx.check(texts == self.texts,
                      "warm reproduce: output differs from set-up")
            ctx.check(cache.simulated == 0
                      and cache.disk_hits == self.entries,
                      f"warm reproduce simulated {cache.simulated}, read "
                      f"{cache.disk_hits} of {self.entries} entries")

        run_window(ctx, phase, tracer, warm, after)
        return phase


# -- service_mix -----------------------------------------------------------------


PROGRAM_SETS = (("gcc",), ("mcf",), ("crafty",), ("swim",), ("gcc", "mcf"),
                ("twolf", "mesa"))
STRIKES = (6, 8, 12)
INSTRUCTIONS = (120, 160, 200)
STRUCTURE_SETS = (("iq", "rob"), ("lsq_tag", "lsq_data"), ("reg", "fu"),
                  ("iq", "reg", "lsq_data"))
BLOCK = 12
HIT_REQUESTS = 100
TERMINAL = ("done", "degraded", "failed", "cancelled")

#: Spec shapes: one block of twelve, repeated.  Every block holds the same
#: shapes (each program set twice, parity on one spec in four), so whole
#: blocks cost the same whatever the seed; the seed orders each block and
#: draws each spec's simulation seed.
SHAPES = tuple(
    {"kind": "live", "workload": list(PROGRAM_SETS[i % 6]),
     "strikes": STRIKES[i % 3], "instructions": INSTRUCTIONS[(i // 4) % 3],
     "structures": list(STRUCTURE_SETS[i % 4]),
     **({"protection": "parity"} if i % 4 == 1 else {})}
    for i in range(BLOCK))


def service_specs(seed: int) -> Iterator[Dict[str, object]]:
    """The endless, seeded sequence of distinct live campaign specs."""
    rng = random.Random(seed)
    seen = set()
    while True:
        block = list(SHAPES)
        rng.shuffle(block)
        for shape in block:
            spec_seed = rng.randrange(1, 2 ** 31)
            while spec_seed in seen:
                spec_seed = rng.randrange(1, 2 ** 31)
            seen.add(spec_seed)
            yield dict(shape, seed=spec_seed)


def request(port: int, method: str, path: str,
            body: Optional[dict] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=150)
    try:
        conn.request(method, path,
                     body=json.dumps(body).encode() if body is not None
                     else None)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """A campaign server subprocess on an ephemeral port."""

    def __init__(self, argv: Sequence[str], work: Path) -> None:
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.log: List[str] = []
        self.proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=program_env(work), cwd=str(ROOT))
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        self.port = self._await_port()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            self.lines.put(line)

    def _await_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                line = self.lines.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("campaign server never announced its port:\n"
                           + "".join(self.log))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=10)


class ServiceMix(Workload):
    name = "service_mix"
    op = "campaign"
    op_span = "service.campaign"
    required = ("service.campaign", "service.post", "service.poll",
                "service.result_get", "service.submit",
                "resilience.supervisor", "service.store_write",
                "service.store_read")

    #: Server starts timed in set-up; the last one serves the first phase.
    SETUP_STARTS = 3

    def __init__(self) -> None:
        self.server: Optional[Server] = None
        self.results: List[Tuple[int, Dict[str, object], bytes]] = []

    def _start(self, ctx: Context, traced: bool) -> float:
        if self.server is not None:
            self.server.stop()
        state = ctx.work / f"service-{time.monotonic_ns()}"
        if traced:
            self.spans_path = state.with_suffix(".spans.jsonl")
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    "--state-dir", str(state),
                    "--spans-out", str(self.spans_path)]
        else:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                    "--state-dir", str(state)]
        started = time.perf_counter()
        self.server = Server(argv, ctx.work)
        status, raw = request(self.server.port, "GET", "/healthz")
        elapsed = time.perf_counter() - started
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}: {raw!r}")
        return elapsed

    def setup(self, ctx: Context) -> float:
        return statistics.median(self._start(ctx, traced=False)
                                 for _ in range(self.SETUP_STARTS))

    def phase(self, ctx: Context, tracer: Tracer, traced: bool) -> Phase:
        if self.server is None or traced:
            self._start(ctx, traced)
        port = self.server.port
        phase = Phase()
        marks: Dict[str, List[float]] = {}
        done: List[Tuple[int, Dict[str, object], bytes]] = []
        specs = enumerate(service_specs(ctx.seed))

        def block():
            # Whole blocks only: every run then costs the same mix of
            # shapes, however many blocks fit in the window.
            finished = []
            for index, spec in itertools.islice(specs, BLOCK):
                finished.append((index, spec, tracer.span(
                    "service.campaign", self._campaign, ctx, port, spec,
                    tracer if traced else None, marks)))
            return finished

        def after(finished):
            ctx.attempted += len(finished)
            phase.items += len(finished)
            done.extend(c for c in finished if c[2] is not None)

        run_window(ctx, phase, tracer, block, after)
        self.results += done
        hits = self._hits(ctx, port, tracer, done)
        status, raw = request(port, "GET", "/stats")
        executions = json.loads(raw).get("executions") if status == 200 \
            else None
        ctx.check(executions == len(done),
                  f"/stats executions {executions} != {len(done)} campaigns")
        self.server.stop()
        self.server = None
        phase.counts = {"service.executions": executions or 0,
                        "service.dedup_hits": hits}
        if traced:
            tracer.spans += load_spans(
                self.spans_path,
                id_offset=max((s.id for s in tracer.spans), default=0))
            phase.counts.update((name, statistics.median(values))
                                for name, values in marks.items())
        else:
            hit_ms = [s.duration * 1e3 for s in tracer.spans
                      if s.name == "service.hit"]
            ctx.detail["service.hit_p50_ms"] = percentile(hit_ms, 50)
            ctx.detail["service.hit_p90_ms"] = percentile(hit_ms, 90)
        return phase

    def _campaign(self, ctx: Context, port: int, spec: Dict[str, object],
                  tracer: Optional[Tracer], marks: Dict[str, List[float]]
                  ) -> Optional[bytes]:
        """POST, wait for a terminal state, GET the result; returns the
        result bytes (None on any failure).  Traced, the wait is a chain
        of ``?version=`` long-polls that timestamp each state change."""
        def call(name, *args):
            return (tracer.span(name, request, port, *args)
                    if tracer is not None else request(port, *args))

        t_post = time.perf_counter()
        status, raw = call("service.post", "POST", "/campaigns", spec)
        t_reply = time.perf_counter()
        if not ctx.check(status == 201, f"POST {spec} -> {status} {raw!r}"):
            return None
        snapshot = json.loads(raw)
        cid = snapshot["id"]
        running = first_batch = None
        while snapshot["state"] not in TERMINAL:
            query = (f"?wait=120&version={snapshot['version']}"
                     if tracer is not None else "?wait=120")
            status, raw = call("service.poll", "GET",
                               f"/campaigns/{cid}{query}")
            if not ctx.check(status == 200, f"GET {cid} -> {status}"):
                return None
            snapshot = json.loads(raw)
            now = time.perf_counter()
            if running is None and snapshot["state"] != "queued":
                running = now
            if first_batch is None and snapshot["batches"]["done"] > 0:
                first_batch = now
        finished = time.perf_counter()
        if not ctx.check(snapshot["state"] == "done",
                         f"campaign {cid} ended {snapshot['state']}: "
                         f"{snapshot.get('error')}"):
            return None
        t_get = time.perf_counter()
        status, body = call("service.result_get", "GET",
                            f"/campaigns/{cid}/result")
        if not ctx.check(status == 200, f"GET {cid}/result -> {status}"):
            return None
        if tracer is not None and running is not None:
            for name, value in (
                    ("service.post_p50_ms", (t_reply - t_post) * 1e3),
                    ("service.admit_p50_ms", (running - t_reply) * 1e3),
                    ("service.first_batch_p50_ms",
                     ((first_batch or finished) - running) * 1e3),
                    ("service.run_p50_s", finished - running),
                    ("service.result_get_p50_ms",
                     (time.perf_counter() - t_get) * 1e3)):
                marks.setdefault(name, []).append(value)
        return body

    def _hits(self, ctx: Context, port: int, tracer: Tracer,
              done: List[Tuple[int, Dict[str, object], bytes]]) -> int:
        """Resubmit completed specs: dedup plus a verified artifact read."""
        rng = random.Random(f"hits-{ctx.seed}")

        def hit(spec, expected) -> bool:
            status, raw = request(port, "POST", "/campaigns", spec)
            snapshot = json.loads(raw) if status == 200 else {}
            if not ctx.check(snapshot.get("deduplicated") is True
                             and snapshot.get("state") == "done",
                             f"resubmission answered {status} {raw[:200]!r}"):
                return False
            status, body = request(port, "GET",
                                   f"/campaigns/{snapshot['id']}/result")
            return ctx.check(status == 200 and body == expected,
                             f"resubmitted result differs ({status})")

        hits = 0
        for _ in range(HIT_REQUESTS if done else 0):
            _, spec, expected = done[rng.randrange(len(done))]
            ctx.attempted += 1
            hits += tracer.span("service.hit", hit, spec, expected)
        return hits

    def verify(self, ctx: Context) -> None:
        pins = load_pins()["service"]
        for index, spec, raw in self.results:
            digest = sha256(raw)
            ctx.outputs[f"campaign-{index}"] = digest
            if ctx.seed == 1 and str(index) in pins:
                ctx.check(digest == pins[str(index)],
                          f"campaign {index} differs from its seed-1 pin")
            payload = json.loads(raw).get("result", {})
            strikes = spec["strikes"] * len(spec["structures"])
            ctx.check(payload.get("kind") == "live"
                      and len(payload.get("records", ())) == strikes,
                      f"campaign {index}: expected {strikes} classified "
                      f"strikes")
            for row in payload.get("structures", ()):
                ctx.check(sum(row["outcomes"].values()) == row["injections"],
                          f"campaign {index}: {row['structure']} outcome "
                          f"counts do not sum to {row['injections']}")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def rss_mb(self) -> float:
        # The peak of the servers (and their pool workers), collected once
        # every server this process started has been waited for.
        self.close()
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (LiveValidation, ReproduceCold, ReproduceWarm,
                                  ServiceMix)}
