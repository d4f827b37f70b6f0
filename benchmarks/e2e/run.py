#!/usr/bin/env python3
"""End-to-end benchmark of the repro simulator.

Run one workload::

    python3 benchmarks/e2e/run.py --workload live_validation --seed 1 \
        --seconds 15 --trace 0

or, with no ``--workload``, every workload in turn, each in its own fresh
process.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 288, "failed": 0, "metrics": {...}}

holding the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``
and its ``per_layer`` metrics with ``--trace 1``.  A result file with the
full detail and provenance lands in ``benchmarks/e2e/results/`` (or, with
``--baseline``, in ``benchmarks/e2e/baseline/``, which refuses a tree whose
``src/`` has uncommitted changes).  The exit code is 0 only when every
output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from trace import (ALL_PROBES, Tracer, layer_metrics, missing_spans,  # noqa: E402
                   probes_named)


@dataclass
class Timing:
    """One phase's operation timings, raw and speed-normalised."""

    wall: float
    items: int
    latencies: List[float]
    """Raw seconds per timed operation."""
    normalised: List[float]
    """Each operation's seconds rescaled by the control samples taken
    just before and just after it."""
    control: float
    """Mean control-loop seconds over the phase."""

    @property
    def scale(self) -> float:
        """Host seconds -> reference seconds, weighted by operation time.

        Rescaling each operation by the samples next to it follows the
        host's load as it changes; a phase-wide mean of the samples was
        two to three times noisier."""
        return sum(self.normalised) / sum(self.latencies)

    @property
    def throughput(self) -> float:
        return self.items / (self.wall * self.scale)


def _phase(workload, ctx, traced: bool):
    from workloads import UNIT

    tracer = Tracer(workload.name, f"{os.getpid()}-{int(traced)}",
                    sampled=(workload.op_span, UNIT),
                    control=harness.control_sample)
    if traced:
        tracer.install(probes_named(workload.traced_probes))
    elif workload.op_span in ALL_PROBES:
        try:
            tracer.install(probes_named([workload.op_span]))
        except (ImportError, AttributeError, KeyError):
            # The operation's probe lost its code; the units still time
            # the phase (the traced run reports the drift).
            pass
    first = harness.control_sample()
    try:
        phase = workload.phase(ctx, tracer, traced)
    finally:
        tracer.uninstall()
    lo, hi = phase.window
    spans = [s for s in tracer.spans if lo <= s.start and s.end <= hi]
    ops = ([s for s in spans if s.name == workload.op_span]
           or [s for s in spans if s.name == UNIT])
    controls = [first] + [s.attrs["control"] for s in ops]
    timing = Timing(
        wall=phase.wall, items=phase.items,
        latencies=[s.duration for s in ops],
        normalised=[s.duration * 2 * harness.CONTROL_REF_S / (before + after)
                    for s, before, after in zip(ops, controls, controls[1:])],
        control=statistics.fmean(controls))
    return tracer, spans, phase, timing


def execute(name: str, seed: int, seconds: float, trace: bool,
            work: Path) -> Tuple[Dict[str, object], Optional[Tracer]]:
    """Set up, measure and verify one workload in this process; returns
    the result and, for a traced run, the tracer holding its spans."""
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name]()
    ctx = Context(seed=seed, seconds=seconds, work=work)
    result: Dict[str, object] = {"workload": name, "seed": seed,
                                 "seconds": seconds, "trace": int(trace)}
    started = time.perf_counter()
    tracer = None
    try:
        imports = (statistics.median(harness.import_probe(workload.imports,
                                                          work))
                   if workload.imports else 0.0)
        setup_raw = imports + workload.setup(ctx)
        _, _, _, untraced = _phase(workload, ctx, traced=False)
        layers: Dict[str, float] = {}
        if trace:
            tracer, spans, phase, traced = _phase(workload, ctx, traced=True)
            missing = missing_spans(spans, workload.required)
            ctx.check(not missing,
                      f"traced run recorded no {', '.join(missing)} span: "
                      f"a probe no longer reaches the code it names")
            layers = layer_metrics(spans, phase.wall)
            layers.update(phase.counts)
            layers["trace_overhead"] = (untraced.throughput
                                        / traced.throughput - 1.0)
        workload.verify(ctx)
        rss = workload.rss_mb()
    except Exception:  # noqa: BLE001 - reported as a failed run
        ctx.check(False, traceback.format_exc())
        result.update(correct=False, attempted=ctx.attempted,
                      failed=ctx.failed, errors=ctx.errors)
        return result, None
    finally:
        workload.close()

    normalised_ms = [x * 1e3 for x in untraced.normalised]
    detail = dict(ctx.detail, op=workload.op, items=untraced.items,
                  ops=len(normalised_ms), wall_s=untraced.wall,
                  run_s=time.perf_counter() - started,
                  control_ms=untraced.control * 1e3,
                  raw_setup_s=setup_raw,
                  raw_throughput_per_s=untraced.items / untraced.wall,
                  op_p50_ms=harness.percentile(normalised_ms, 50))
    tail = harness.tail_level(len(normalised_ms))
    if tail is not None:
        detail[f"op_p{tail:g}_ms"] = harness.percentile(normalised_ms, tail)
    result.update(
        correct=ctx.failed == 0, attempted=ctx.attempted, failed=ctx.failed,
        errors=ctx.errors[:20], detail=detail, per_layer=layers,
        outputs=ctx.outputs,
        end_to_end={
            # Set-up runs just before the untraced phase, so that phase's
            # control samples rescale it too.
            "setup_s": setup_raw * untraced.scale,
            "throughput_per_s": untraced.throughput,
            "rss_peak_mb": rss,
        })
    return result, tracer


def _metrics(result: Dict[str, object], spec: Dict[str, object]
             ) -> Dict[str, Dict[str, object]]:
    section, source = (("per_layer", result["per_layer"]) if result["trace"]
                       else ("end_to_end", result["end_to_end"]))
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in spec[section]}


_SUFFIX_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                 ("share", "share"),
                 ("_per_cycle", "ns/cycle"), ("_ratio", "ratio"),
                 ("overhead", "ratio"))


def _unit(key: str, units: Dict[str, str]) -> str:
    if key in units:
        return units[key]
    for suffix, unit in _SUFFIX_UNITS:
        if key.endswith(suffix):
            return unit
    return "count"


def _print(result: Dict[str, object], spec: Dict[str, object]) -> None:
    name = result["workload"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    for section in ("end_to_end", "detail", "per_layer"):
        for key, value in sorted(result.get(section, {}).items()):
            unit = _unit(key, units) if not isinstance(value, str) else ""
            if isinstance(value, float):
                value = f"{value:.6g}"
            print(f"{name:<16} {key:<34} {value} {unit}".rstrip())
    print(f"{name:<16} {'error_rate':<34} "
          f"{result['failed'] / max(result['attempted'], 1):.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    for error in result["errors"]:
        print(f"{name:<16} FAILED: {error}", file=sys.stderr)


def run_one(args: argparse.Namespace) -> int:
    if not harness.program_present():
        print(f"error: no program to benchmark: {harness.SRC} is missing",
              file=sys.stderr)
        return 2
    spec = harness.load_benchmark()
    out_dir = harness.BASELINE_DIR if args.baseline else harness.RESULTS_DIR
    prov = harness.provenance(args.seed)
    if args.baseline and (prov["commit"] is None or prov["dirty"]):
        print("error: refusing to record a baseline from a tree whose src/ "
              "is not a clean commit", file=sys.stderr)
        return 2

    work = harness.WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    harness.scrub_process_env(work)
    sys.path.insert(0, str(harness.SRC))
    try:
        result, tracer = execute(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["provenance"] = prov
    result["metrics"] = _metrics(result, spec) if result["correct"] else {}
    if tracer is not None:
        # Spans stay out of baseline/: a traced run writes ~10^5 of them.
        harness.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        spans = harness.RESULTS_DIR / (
            f"{args.workload}-seed{args.seed}-{os.getpid()}.spans.jsonl")
        tracer.dump(spans)
        result["spans"] = str(spans.relative_to(harness.ROOT))
    _print(result, spec)
    path = harness.write_result(result, out_dir)
    print(f"{args.workload:<16} result file {path.relative_to(harness.ROOT)}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": max(result["attempted"], 1),
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for name in harness.load_benchmark()["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.baseline:
            argv.append("--baseline")
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    default_seconds = harness.load_benchmark()["run_seconds"]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro simulator.")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, each in its own "
                             "process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1: outputs are checked "
                             "against pinned bytes)")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced phase and report per-layer "
                             "metrics")
    parser.add_argument("--baseline", action="store_true",
                        help="write the result file under baseline/ "
                             "(clean src/ only)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
