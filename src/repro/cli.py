"""Command-line interface: run simulations and regenerate paper artefacts.

Installed as the ``repro-sim`` console script::

    repro-sim list                              # workloads, policies, programs
    repro-sim run 4-MIX-A --policy FLUSH -n 2500
    repro-sim run mcf twolf --policy ICOUNT     # ad-hoc program list
    repro-sim figure 1 --scale 1200             # any of 1..8
    repro-sim inject 2-MIX-A --strikes 48       # live bit flips vs ACE AVF
    repro-sim fit 4-CPU-A                       # FIT/MTTF breakdown
    repro-sim reproduce --jobs 8 --cache-dir .repro-cache   # parallel + cached
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.avf.fit import DEFAULT_RAW_FIT_PER_BIT, fit_estimate
from repro.config import SimConfig
from repro.errors import MissingResultError, ReproError
from repro.fetch.registry import EXTENSION_POLICY_NAMES, POLICY_NAMES
from repro.sim.simulator import simulate
from repro.workload.mixes import TABLE2_MIXES, get_mix
from repro.workload.spec2000 import PROFILES


def _positive_int(raw: str) -> int:
    """argparse type: an integer >= 1, rejected with a clear message.

    Negative instruction/worker counts used to sail through argparse and
    blow up deep inside numpy or the executor; fail at the parser instead.
    """
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _non_negative_int(raw: str) -> int:
    """argparse type: an integer >= 0 (zero-strike campaigns are legal)."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _protect_arg(raw: str):
    """argparse type: a protection assignment, validated at parse time.

    Accepts one scheme name applied everywhere (``parity``) or a
    per-structure list (``iq=secded,rob=parity``); unknown schemes and
    structures are rejected here, naming the valid sets, instead of
    surfacing as a late ``ValueError`` from the enum constructor deep in
    the campaign.
    """
    from repro.errors import ConfigError
    from repro.protection import ProtectionConfig

    try:
        return ProtectionConfig.parse(raw)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _mbu_len(raw: str) -> int:
    """argparse type: an MBU cluster-length cap within the burst model."""
    from repro.structures.strike import MAX_CLUSTER_LEN

    value = _positive_int(raw)
    if value > MAX_CLUSTER_LEN:
        raise argparse.ArgumentTypeError(
            f"cluster length cap must be 1..{MAX_CLUSTER_LEN}, got {value}")
    return value


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a number") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {value}")
    return value


def _resolve_workload(tokens: List[str]):
    """One token naming a Table 2 mix, or several naming SPEC programs."""
    if len(tokens) == 1 and tokens[0] in TABLE2_MIXES:
        return get_mix(tokens[0])
    unknown = [t for t in tokens if t not in PROFILES]
    if unknown:
        raise ReproError(
            f"unknown workload/programs {unknown}; use 'repro-sim list'")
    return tokens


def _cmd_list(args: argparse.Namespace) -> int:
    print("Table 2 workloads:")
    for name in sorted(TABLE2_MIXES):
        mix = TABLE2_MIXES[name]
        print(f"  {name:<10} {', '.join(mix.programs)}")
    print("\nFetch policies (paper):", ", ".join(POLICY_NAMES))
    print("Fetch policies (Section 5 extensions):",
          ", ".join(EXTENSION_POLICY_NAMES))
    print("\nSPEC CPU 2000 program models:", ", ".join(sorted(PROFILES)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args.workload)
    threads = (workload.num_threads if hasattr(workload, "num_threads")
               else len(workload))
    sim = SimConfig(max_instructions=args.instructions * threads,
                    seed=args.seed,
                    phase_window_cycles=args.phase_window,
                    check_invariants=args.check_invariants)
    result = simulate(workload, policy=args.policy, sim=sim,
                      trace_out=args.trace_out)
    print(result.summary())
    if result.audit is not None:
        checks = result.audit["invariant_checks"]
        every = result.audit["check_interval"]
        line = (f"audit: {checks} invariant checks "
                f"(every {every} cycles), no violations" if every
                else "audit: tracing only (no invariant checks)")
        if "trace_path" in result.audit:
            line += (f"; trace: {result.audit['trace_path']} "
                     f"({result.audit['trace_events']} events)")
        print(line)
    if result.phase_series is not None:
        from repro.avf.phases import phase_statistics
        from repro.avf.structures import Structure

        print(f"\nAVF phases ({result.phase_series.windows()} windows of "
              f"{args.phase_window} cycles):")
        for s in (Structure.IQ, Structure.ROB, Structure.REG):
            stats = phase_statistics(result.phase_series, s)
            print(f"  {s.value:<6} mean={stats.mean:.4f} "
                  f"cov={stats.coefficient_of_variation:.2f} "
                  f"last-value MAE={stats.last_value_mae:.4f}")
    return 0


def _cache_from_args(args: argparse.Namespace):
    """Build the ResultCache the --jobs/--cache-dir/--no-cache flags ask for."""
    from repro.experiments.runner import ResultCache

    cache_dir = None if args.no_cache else args.cache_dir
    return ResultCache(cache_dir=cache_dir)


def _supervisor_from_args(args: argparse.Namespace, tag: str):
    """Build the Supervisor (and checkpoint journal) the flags ask for.

    Returns ``None`` when nothing asks for supervision: no resilience
    flag was given and no chaos spec is in the environment.  (A bare
    ``--jobs N`` still fans out, via :func:`run_jobs`'s own zero-retry
    supervisor, with behaviour identical to the pre-resilience pool.)
    """
    import os
    from pathlib import Path

    from repro.resilience import (CHAOS_ENV_VAR, CheckpointJournal,
                                  RetryPolicy, Supervisor)

    flagged = (args.job_timeout is not None or args.retries is not None
               or args.max_failures is not None or args.resume
               or args.failures_out is not None)
    if not flagged and not os.environ.get(CHAOS_ENV_VAR):
        return None
    if args.resume and (args.no_cache or not args.cache_dir):
        raise ReproError("--resume requires --cache-dir: the journal marks "
                         "jobs done, but their results live in the cache")
    journal = None
    if args.cache_dir and not args.no_cache:
        cache_dir = Path(args.cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        journal = CheckpointJournal(cache_dir / f"journal-{tag}.jsonl",
                                    resume=args.resume)
    policy = RetryPolicy(
        retries=2 if args.retries is None else args.retries,
        job_timeout=args.job_timeout,
        max_failures=0 if args.max_failures is None else args.max_failures,
    )
    return Supervisor(max_workers=args.jobs, policy=policy, journal=journal)


def _finish_resilient(supervisor, failures_out) -> int:
    """Write failures.json if asked and pick the exit code (0 ok, 3 degraded)."""
    from pathlib import Path

    if supervisor is None:
        return 0
    if failures_out is not None:
        supervisor.report.write(Path(failures_out))
    if supervisor.report:
        print(f"degraded: {len(supervisor.report.failures)} job(s) failed "
              f"permanently after retries", file=sys.stderr)
        return 3
    return 0


def _apply_audit_env(args: argparse.Namespace) -> None:
    """Propagate --check-invariants to experiment runs (and their workers).

    The experiments layer builds its SimConfigs from
    :class:`ExperimentScale`, which reads ``REPRO_CHECK_INVARIANTS`` — the
    same shape as ``REPRO_SCALE`` — so the flag reaches every simulation,
    including those fanned out to ``--jobs`` worker processes.
    """
    import os

    from repro.experiments.runner import AUDIT_ENV_VAR

    if getattr(args, "check_invariants", None):
        os.environ[AUDIT_ENV_VAR] = str(args.check_invariants)


def _cmd_figure(args: argparse.Namespace) -> int:
    import os

    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    _apply_audit_env(args)
    from repro import experiments
    from repro.experiments.parallel import prewarm_artefacts
    from repro.experiments.reproduce import ARTEFACTS
    from repro.experiments.runner import ExperimentScale

    runners = {
        1: (experiments.run_figure1, experiments.format_figure1),
        2: (experiments.run_figure2, experiments.format_figure2),
        3: (experiments.run_figure3, experiments.format_figure3),
        4: (experiments.run_figure4, experiments.format_figure4),
        5: (experiments.run_figure5, experiments.format_figure5),
        6: (experiments.run_figure6, experiments.format_figure6),
        7: (experiments.run_figure7, experiments.format_figure7),
        8: (experiments.run_figure8, experiments.format_figure8),
    }
    scale = ExperimentScale.from_env()
    cache = _cache_from_args(args)
    supervisor = _supervisor_from_args(args, f"fig{args.number}")
    artefact = next(n for n in ARTEFACTS if n.startswith(f"fig{args.number}_"))
    run, fmt = runners[args.number]
    try:
        prewarm_artefacts([artefact], scale, cache, jobs=args.jobs,
                          supervisor=supervisor)
        print(fmt(run(scale, cache)))
    except MissingResultError as exc:
        # A job exhausted its retries but stayed within --max-failures:
        # emit the marker instead of a traceback and report degradation.
        print(f"figure {args.number}: DEGRADED — MISSING({exc.label})")
        print(f"(job {exc.digest[:12]} failed permanently; "
              f"rerun with --retries/--resume)")
    return _finish_resilient(supervisor, args.failures_out)


def _cmd_inject(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.faultinject import INJECTABLE, LiveConfig, run_live_campaign
    from repro.structures.strike import MbuConfig

    workload = _resolve_workload(args.workload)
    threads = (workload.num_threads if hasattr(workload, "num_threads")
               else len(workload))
    sim = SimConfig(max_instructions=args.instructions * threads,
                    seed=args.seed)
    if args.structures:
        by_name = {s.value.lower(): s for s in INJECTABLE}
        try:
            structures = tuple(by_name[name.lower()]
                               for name in args.structures)
        except KeyError as exc:
            raise ReproError(f"unknown structure {exc.args[0]!r}; "
                             f"known: {', '.join(sorted(by_name))}")
    else:
        structures = INJECTABLE
    live = LiveConfig()
    if args.strike_batch is not None:
        live = replace(live, strike_batch=args.strike_batch)
    tag = (args.workload[0] if len(args.workload) == 1
           else "+".join(args.workload))
    supervisor = _supervisor_from_args(args, f"inject-live-{tag}")
    result = run_live_campaign(
        workload, injections=args.strikes, structures=structures,
        sim=sim, seed=args.seed,
        protection=args.protect, live=live,
        mbu=MbuConfig(max_len=args.mbu_len),
        forced=tuple(args.force), jobs=args.jobs, supervisor=supervisor,
        cache_dir=None if args.no_cache else args.cache_dir)
    print(result.summary())
    return _finish_resilient(supervisor, args.failures_out)


def _cmd_rmt(args: argparse.Namespace) -> int:
    from repro.rmt import coverage_analysis, run_redundant

    result = run_redundant(args.program, instructions=args.instructions,
                           seed=args.seed)
    print(result.summary())
    if args.coverage:
        print()
        print(coverage_analysis(result).summary())
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    import os
    from pathlib import Path

    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    _apply_audit_env(args)
    from repro.experiments.reproduce import ARTEFACTS, run_all

    only = args.only.split(",") if args.only else None
    if only:
        unknown = [n for n in only if n not in ARTEFACTS]
        if unknown:
            raise ReproError(f"unknown artefacts {unknown}; "
                             f"known: {sorted(ARTEFACTS)}")

    def progress(name: str, elapsed: float) -> None:
        print(f"  {name:<28} {elapsed:6.1f}s")

    cache = _cache_from_args(args)
    supervisor = _supervisor_from_args(args, "reproduce")
    print(f"Reproducing into {args.out} ...")
    report = run_all(Path(args.out), only=only, progress=progress,
                     jobs=args.jobs, cache=cache, supervisor=supervisor,
                     failures_out=(Path(args.failures_out)
                                   if args.failures_out else None))
    print(f"simulated {cache.simulated} runs "
          f"({cache.disk_hits} loaded from cache)")
    print(f"report: {report}")
    if supervisor is not None and supervisor.report:
        # run_all already wrote failures.json next to the report (or at
        # --failures-out); just surface the degradation in the exit code.
        print(f"degraded: {len(supervisor.report.failures)} job(s) failed "
              f"permanently after retries", file=sys.stderr)
        return 3
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args.workload)
    threads = (workload.num_threads if hasattr(workload, "num_threads")
               else len(workload))
    sim = SimConfig(max_instructions=args.instructions * threads, seed=args.seed)
    result = simulate(workload, policy=args.policy, sim=sim)
    estimate = fit_estimate(result.avf, raw_fit_per_bit=args.raw_fit)
    print(estimate.summary())
    print(f"\nvulnerability hotspot: {estimate.dominant_structure().value} "
          f"(protect this structure first — paper Section 5)")
    return 0


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """Shared parallelism/cache flags (reproduce, figure, inject)."""
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent simulations "
                             "(default 1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="persist simulation results under this directory "
                             "and reuse them across invocations")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir: neither read nor write the "
                             "on-disk result cache")


def _add_resilience_options(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerant execution flags (reproduce, figure, inject)."""
    grp = parser.add_argument_group("resilience")
    grp.add_argument("--job-timeout", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="wall-clock limit per simulation job; a hung "
                          "worker is killed and the job retried")
    grp.add_argument("--retries", type=_non_negative_int, default=None,
                     metavar="N",
                     help="attempts after the first for a failed job, with "
                          "exponential backoff (default 2 when supervision "
                          "is engaged)")
    grp.add_argument("--max-failures", type=_non_negative_int, default=None,
                     metavar="N",
                     help="tolerate up to N permanently failed jobs and "
                          "emit degraded artefacts with MISSING markers "
                          "(default 0 = abort on first permanent failure)")
    grp.add_argument("--resume", action="store_true",
                     help="skip jobs recorded done in the checkpoint "
                          "journal under --cache-dir")
    grp.add_argument("--failures-out", default=None, metavar="PATH",
                     help="write the machine-readable failure report "
                          "(failures.json) to this path")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import run_service

    def ready(port: int) -> None:
        print(f"campaign service listening on http://{args.host}:{port} "
              f"(store: {args.store}, {args.workers} workers/campaign)",
              flush=True)

    run_service(args.store, host=args.host, port=args.port,
                workers=args.workers, max_running=args.max_running,
                max_queued=args.max_queued, ready=ready,
                lease_timeout=args.lease_timeout,
                hedge_after=args.hedge_after)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.resilience.chaos import NetworkChaos
    from repro.service.fleet import ChaosTransport, HttpTransport, ShardAgent

    base = args.connect
    transport = HttpTransport(base)
    chaos = NetworkChaos()
    if chaos:
        transport = ChaosTransport(transport, chaos)
    agent = ShardAgent(transport, shard_id=args.shard_id, jobs=args.jobs,
                       heartbeat_interval=args.heartbeat_interval,
                       poll_wait=args.poll_wait, chaos=chaos)

    def stop(signum, frame) -> None:
        agent.request_stop()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, stop)
        except (ValueError, OSError):
            pass  # not the main thread (tests drive run() directly)
    print(f"worker shard {agent.shard_id} connecting to {base}"
          + (" [network chaos armed]" if chaos else ""), flush=True)
    done = agent.run(max_batches=args.max_batches)
    print(f"worker shard {agent.shard_id} stopped after {done} "
          f"committed batch(es)", flush=True)
    return 0


def _read_spec_source(source: str) -> dict:
    import json

    if source == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read spec file {source}: {exc}")
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ReproError(f"spec is not valid JSON: {exc}")
    return payload


def _service_request(base: str, method: str, path: str, body=None,
                     timeout: float = 150.0,
                     connect_timeout: float = None):
    """One request against the campaign service; returns (status, payload).

    A connection that cannot be established (refused, unresolvable,
    connect timeout) raises :class:`ReproError` — ``main`` renders that
    as a one-line ``error:`` diagnostic and exit code 2, never a
    traceback; an unreachable server is an operational condition, not a
    bug.  ``connect_timeout`` bounds only the connect; ``timeout``
    governs the request/response exchange (long polls need the larger
    bound).
    """
    import http.client
    import json
    import socket
    from urllib.parse import urlsplit

    url = urlsplit(base if "//" in base else f"http://{base}")
    if url.scheme not in ("", "http"):
        raise ReproError(f"unsupported server scheme: {url.scheme}")
    conn = http.client.HTTPConnection(url.hostname or "127.0.0.1",
                                      url.port or 8642,
                                      timeout=connect_timeout or timeout)
    try:
        try:
            conn.connect()
        except socket.timeout:
            raise ReproError(
                f"cannot reach campaign service at {base}: connect timed "
                f"out after {connect_timeout or timeout:g}s (is "
                f"`repro-sim serve` running?)")
        except OSError as exc:
            raise ReproError(f"cannot reach campaign service at {base}: "
                             f"{exc} (is `repro-sim serve` running?)")
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        data = json.dumps(body).encode("utf-8") if body is not None else None
        try:
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
        except OSError as exc:
            raise ReproError(f"campaign service at {base} dropped the "
                             f"request: {exc}")
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        return response.status, payload, raw
    finally:
        conn.close()


def _print_progress(status: dict) -> None:
    batches = status.get("batches", {})
    line = (f"  state={status['state']} "
            f"batches={batches.get('done', 0)}/{batches.get('total', 0)}")
    print(line)
    for entry in status.get("progress", []):
        print(f"    {entry['structure']:<8} strikes={entry['strikes']:<5} "
              f"sdc_rate={entry['sdc_rate']:.3f} "
              f"CI=[{entry['wilson_low']:.3f}, {entry['wilson_high']:.3f}]")


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _read_spec_source(args.spec)
    status_code, status, _ = _service_request(
        args.server, "POST", "/campaigns", body=spec,
        connect_timeout=args.connect_timeout)
    if status_code == 429:
        raise ReproError(
            f"submission rejected (429): {status.get('error', status)} "
            f"[queue {status.get('queue_depth')}/{status.get('max_queued')}, "
            f"retry after ~{status.get('retry_after')}s]")
    if status_code not in (200, 201):
        raise ReproError(f"submission rejected ({status_code}): "
                         f"{status.get('error', status)}")
    cid = status["id"]
    print(f"campaign {cid} "
          f"({'deduplicated' if status.get('deduplicated') else 'submitted'}, "
          f"state: {status['state']})")

    while status["state"] not in ("done", "degraded", "failed", "cancelled"):
        _print_progress(status)
        version = status["version"]
        status_code, status, _ = _service_request(
            args.server, "GET",
            f"/campaigns/{cid}?wait={args.wait}&version={version}",
            connect_timeout=args.connect_timeout)
        if status_code != 200:
            raise ReproError(f"status poll failed ({status_code}): "
                             f"{status.get('error', status)}")
    _print_progress(status)

    if status["state"] == "cancelled":
        print(f"error: campaign {cid} was cancelled (resubmit to resume "
              f"from its finished batches)", file=sys.stderr)
        return 2
    if status["state"] == "failed":
        print(f"error: campaign failed: {status.get('error')}",
              file=sys.stderr)
        for failure in status.get("failures", []):
            print(f"  failed job: {failure.get('label')} "
                  f"({', '.join(failure.get('kinds', []))})",
                  file=sys.stderr)
        return 2
    if status["state"] == "degraded":
        failures = status.get("failures", [])
        print(f"degraded: {len(failures)} job(s) failed permanently "
              f"after retries", file=sys.stderr)
        for failure in failures:
            print(f"  failed job: {failure.get('label')} "
                  f"({', '.join(failure.get('kinds', []))})",
                  file=sys.stderr)
        return 3

    status_code, _, raw = _service_request(
        args.server, "GET", f"/campaigns/{cid}/result",
        connect_timeout=args.connect_timeout)
    if status_code != 200:
        raise ReproError(f"result fetch failed ({status_code})")
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(raw)
        print(f"result ({len(raw)} bytes) -> {args.out}")
    else:
        sys.stdout.write(raw.decode("utf-8"))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    status_code, status, _ = _service_request(
        args.server, "DELETE", f"/campaigns/{args.campaign}",
        connect_timeout=args.connect_timeout)
    if status_code == 404:
        raise ReproError(f"unknown campaign: {args.campaign}")
    if status_code == 409:
        raise ReproError(f"cannot cancel ({status_code}): "
                         f"{status.get('error', status)}")
    if status_code != 200:
        raise ReproError(f"cancellation failed ({status_code}): "
                         f"{status.get('error', status)}")
    state = status.get("state", "unknown")
    batches = status.get("batches", {})
    print(f"campaign {args.campaign} -> {state} "
          f"(batches {batches.get('done', 0)}/{batches.get('total', 0)} "
          f"committed; resubmit to resume from them)")
    # A drain can legitimately land on done/degraded when the work beat
    # the cancellation; either way the service answered authoritatively.
    return 0


def _add_invariant_option(parser: argparse.ArgumentParser) -> None:
    """The runtime-audit knob: ``--check-invariants`` (optionally =N)."""
    parser.add_argument("--check-invariants", type=int, nargs="?",
                        const=1, default=0, metavar="N",
                        help="audit pipeline/ledger conservation laws every "
                             "N cycles (bare flag: every cycle; default off)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Reliability-aware SMT simulator (ISPASS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, policies and programs")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", nargs="+",
                     help="a Table 2 mix name or SPEC program names")
    run.add_argument("--policy", default="ICOUNT")
    run.add_argument("-n", "--instructions", type=_positive_int, default=2500,
                     help="instructions per thread (default 2500)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--phase-window", type=int, default=0,
                     help="AVF phase window in cycles (0 = off)")
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write a JSONL observability trace (occupancy "
                          "samples, stage counters, audit events)")
    _add_invariant_option(run)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=range(1, 9))
    fig.add_argument("--scale", type=_positive_int, default=None,
                     help="instructions per thread (sets REPRO_SCALE)")
    _add_cache_options(fig)
    _add_resilience_options(fig)
    _add_invariant_option(fig)

    inject = sub.add_parser(
        "inject", help="live fault injection: flip real bits mid-run and "
                       "classify each strike against a golden run")
    inject.add_argument("workload", nargs="+")
    inject.add_argument("--strikes", type=_non_negative_int, default=24,
                        help="injections per structure (default 24)")
    inject.add_argument("-n", "--instructions", type=_positive_int,
                        default=300,
                        help="instructions per thread (default 300)")
    inject.add_argument("--seed", type=int, default=1)
    inject.add_argument("--structures", nargs="+", default=None,
                        metavar="STRUCT",
                        help="restrict strikes to these structures "
                             "(iq rob lsq_tag lsq_data reg fu)")
    inject.add_argument("--protect", default="none", type=_protect_arg,
                        metavar="SCHEME|STRUCT=SCHEME,...",
                        help="protection assignment: one scheme for every "
                             "structure (none, parity, secded, dec-bch; "
                             "'ecc' is a secded alias) or a per-structure "
                             "list like iq=secded,rob=parity "
                             "(default none)")
    inject.add_argument("--mbu-len", type=_mbu_len, default=1,
                        metavar="N",
                        help="multi-bit upset mode: clusters of up to N "
                             "adjacent bits per strike (1-3, default 1 = "
                             "single-bit)")
    inject.add_argument("--force", action="append", default=[],
                        choices=["hang", "crash", "due"], metavar="KIND",
                        help="add a guaranteed-outcome probe strike "
                             "(repeatable; exercises watchdog and "
                             "containment)")
    inject.add_argument("--strike-batch", type=_positive_int, default=None,
                        help="strikes per supervised task and per "
                             "batch-cache entry (default 8); the unit of "
                             "retry, resume and progress, not of a strike "
                             "driver")
    _add_cache_options(inject)
    _add_resilience_options(inject)

    rmt = sub.add_parser("rmt", help="redundant-multithreading trade-off")
    rmt.add_argument("program")
    rmt.add_argument("-n", "--instructions", type=_positive_int, default=2000)
    rmt.add_argument("--coverage", action="store_true",
                     help="also print the strike coverage (exact AVF of "
                          "the solo run vs the redundant pair)")
    rmt.add_argument("--seed", type=int, default=1)

    repro = sub.add_parser("reproduce",
                           help="regenerate all paper artefacts into a directory")
    repro.add_argument("--out", default="reproduction")
    repro.add_argument("--scale", type=_positive_int, default=None)
    repro.add_argument("--only", default=None,
                       help="comma-separated artefact names (default: all)")
    _add_cache_options(repro)
    _add_resilience_options(repro)
    _add_invariant_option(repro)

    serve = sub.add_parser("serve",
                           help="run the asyncio campaign service")
    serve.add_argument("--store", "--state-dir", dest="store",
                       default=".repro-service", metavar="DIR",
                       help="service state root (shared cache, final "
                            "artifacts, campaign manifests, and the "
                            "crash-recovery service journal)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_non_negative_int, default=8642,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="worker processes per campaign pool")
    serve.add_argument("--max-running", type=_positive_int, default=4,
                       help="campaigns executing concurrently; the rest "
                            "queue FIFO within priority")
    serve.add_argument("--max-queued", type=_non_negative_int, default=64,
                       help="admission queue bound; submissions beyond it "
                            "get 429 + Retry-After")
    serve.add_argument("--lease-timeout", type=_positive_float, default=15.0,
                       help="seconds a fleet shard's batch lease lives "
                            "without a heartbeat before it is reclaimed "
                            "and redispatched")
    serve.add_argument("--hedge-after", type=_positive_float, default=30.0,
                       help="seconds a leased batch may run before a "
                            "second shard is hedged in (first valid "
                            "commit wins)")

    worker = sub.add_parser("worker",
                            help="run a fleet worker shard against a "
                                 "campaign service")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="campaign service to register with")
    worker.add_argument("--shard-id", default=None,
                        help="shard identity (default: hostname-pid)")
    worker.add_argument("--jobs", type=_positive_int, default=1,
                        help="local worker processes for batch execution")
    worker.add_argument("--heartbeat-interval", type=_positive_float,
                        default=2.0,
                        help="seconds between lease-renewal heartbeats")
    worker.add_argument("--poll-wait", type=_positive_float, default=10.0,
                        help="long-poll seconds per work request")
    worker.add_argument("--max-batches", type=_positive_int, default=None,
                        help="exit after committing this many batches "
                             "(default: run until stopped or drained)")

    submit = sub.add_parser("submit",
                            help="submit a campaign spec to a running "
                                 "service and stream its status")
    submit.add_argument("spec",
                        help="path to a JSON campaign spec ('-' for stdin)")
    submit.add_argument("--server", default="http://127.0.0.1:8642",
                        help="service base URL")
    submit.add_argument("--wait", type=_positive_int, default=60,
                        help="long-poll seconds per status request")
    submit.add_argument("--connect-timeout", type=_positive_float,
                        default=5.0,
                        help="seconds to wait for the TCP connect before "
                             "diagnosing the service as unreachable")
    submit.add_argument("--out", default=None, metavar="PATH",
                        help="write the result artifact here instead of "
                             "stdout")

    cancel = sub.add_parser("cancel",
                            help="cancel a queued or running campaign "
                                 "(finished batches stay cached)")
    cancel.add_argument("campaign", help="campaign id to cancel")
    cancel.add_argument("--server", default="http://127.0.0.1:8642",
                        help="service base URL")
    cancel.add_argument("--connect-timeout", type=_positive_float,
                        default=5.0,
                        help="seconds to wait for the TCP connect before "
                             "diagnosing the service as unreachable")

    fit = sub.add_parser("fit", help="FIT/MTTF estimate for a workload")
    fit.add_argument("workload", nargs="+")
    fit.add_argument("--policy", default="ICOUNT")
    fit.add_argument("-n", "--instructions", type=_positive_int, default=2500)
    fit.add_argument("--seed", type=int, default=1)
    fit.add_argument("--raw-fit", type=float, default=DEFAULT_RAW_FIT_PER_BIT,
                     help="raw soft-error rate per bit in FIT")
    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "figure": _cmd_figure,
    "inject": _cmd_inject,
    "fit": _cmd_fit,
    "rmt": _cmd_rmt,
    "reproduce": _cmd_reproduce,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "cancel": _cmd_cancel,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold the exit into the
        # return-code contract so callers never see the exception.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
