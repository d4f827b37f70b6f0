"""One-shot reproduction driver: regenerate every paper artefact to disk.

``run_all`` renders Tables 1–2 and Figures 1–8 (plus the extension
ablations) into a directory, one text file per artefact plus a combined
REPORT.md — the programmatic equivalent of running the whole benchmark
suite, without pytest.  Exposed on the CLI as ``repro-sim reproduce``.

Execution is split into two phases: the union of every selected artefact's
simulation jobs is collected and executed first — deduplicated, optionally
fanned out over ``jobs`` worker processes, and optionally persisted under a
``cache_dir`` (see :mod:`repro.experiments.parallel`) — then the artefacts
are rendered from the warm cache.  Rendering is deterministic given the
cached results, so ``jobs=N`` produces byte-identical artefact text to
``jobs=1``, and a second invocation against a warm cache directory skips
simulation entirely.

With a :class:`~repro.resilience.Supervisor`, execution additionally
survives worker crashes, hangs and corrupt payloads (retry/backoff,
per-job timeouts, pool rebuilds, ``--resume`` from a checkpoint journal).
Jobs that fail permanently within the supervisor's budget degrade
gracefully: the affected artefacts render as explicit ``MISSING(<job>)``
markers instead of raising, REPORT.md names them, and a machine-readable
``failures.json`` lands next to the report.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import MissingResultError

from repro.experiments import (
    format_figure1, format_figure2, format_figure3, format_figure4,
    format_figure5, format_figure6, format_figure7, format_figure8,
    run_figure1, run_figure2, run_figure3, run_figure4,
    run_figure5, run_figure6, run_figure7, run_figure8,
)
from repro.experiments.parallel import RESOURCE_SWEEP, prewarm_artefacts
from repro.experiments.runner import ExperimentScale, ResultCache
from repro.experiments.sensitivity import format_sweep, run_resource_sweep
from repro.experiments.protection_frontier import (
    format_protection_frontier, run_protection_frontier)
from repro.experiments.smt_tradeoff import format_smt_tradeoff, run_smt_tradeoff
from repro.experiments.validate_injection import (
    format_injection_validation, run_injection_validation)


def _resource_scaling(scale: ExperimentScale, cache: ResultCache) -> str:
    resource, sizes, workload = RESOURCE_SWEEP
    return format_sweep(run_resource_sweep(resource, sizes, workload=workload,
                                           scale=scale, cache=cache))


#: Artefact name -> callable(scale, cache) -> rendered text.
ARTEFACTS: Dict[str, Callable[[ExperimentScale, ResultCache], str]] = {
    "fig1_avf_profile": lambda s, c: format_figure1(run_figure1(s, c)),
    "fig2_efficiency": lambda s, c: format_figure2(run_figure2(s, c)),
    "fig3_smt_vs_st": lambda s, c: format_figure3(run_figure3(s, c)),
    "fig4_smt_vs_st_efficiency":
        lambda s, c: format_figure4(run_figure4(s, c)),
    "fig5_context_scaling": lambda s, c: format_figure5(run_figure5(s, c)),
    "fig6_fetch_policies": lambda s, c: format_figure6(run_figure6(s, c)),
    "fig7_policy_efficiency": lambda s, c: format_figure7(run_figure7(s, c)),
    "fig8_fairness": lambda s, c: format_figure8(run_figure8(s, c)),
    "smt_vs_superscalar":
        lambda s, c: format_smt_tradeoff(run_smt_tradeoff(s, c)),
    "resource_scaling": _resource_scaling,
    "injection_validation":
        lambda s, c: format_injection_validation(
            run_injection_validation(s, c)),
    "protection_frontier":
        lambda s, c: format_protection_frontier(
            run_protection_frontier(s, c)),
}


def _degraded_text(name: str, exc: MissingResultError) -> str:
    """The artefact body rendered when a needed simulation is missing."""
    return (f"{name}: DEGRADED — simulation set incomplete\n"
            f"MISSING({exc.label})\n"
            f"(job {exc.digest[:12]} failed permanently; "
            f"see failures.json)")


def _write_if_changed(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` unless the file already holds exactly
    those bytes.

    On ext4 (default ``auto_da_alloc``) truncating and rewriting an
    existing file flushes it: 30-47 ms for a 3 KB artefact, against
    0.01 ms to read it back and compare.  An unchanged file also keeps its
    mtime, so make-style tools see no change.  The write itself is a plain
    one, not write-then-rename: a rename over an existing file flushes too.
    """
    data = text.encode("utf-8")
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.write_bytes(data)


def run_all(out_dir: Path, scale: Optional[ExperimentScale] = None,
            only: Optional[List[str]] = None,
            progress: Optional[Callable[[str, float], None]] = None,
            jobs: int = 1,
            cache: Optional[ResultCache] = None,
            cache_dir: Optional[Union[str, Path]] = None,
            supervisor=None,
            failures_out: Optional[Union[str, Path]] = None) -> Path:
    """Render every artefact into ``out_dir``; returns the REPORT.md path.

    ``jobs`` is the number of simulation worker processes; ``cache_dir``
    (or a pre-built ``cache``) enables the persistent on-disk result cache.
    ``supervisor`` (a :class:`repro.resilience.Supervisor`) makes execution
    fault-tolerant; when it reports permanent failures, the affected
    artefacts are written with ``MISSING(<job>)`` markers and the
    structured report lands at ``failures_out`` (default
    ``out_dir/failures.json``).
    """
    scale = scale or ExperimentScale.from_env()
    if cache is None:
        cache = ResultCache(cache_dir=cache_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    selected: List[Tuple[str, Callable]] = [
        (name, fn) for name, fn in ARTEFACTS.items()
        if only is None or name in only
    ]
    prewarm_artefacts([name for name, _ in selected], scale, cache,
                      jobs=jobs, supervisor=supervisor)

    report = [
        "# Reproduction report",
        "",
        f"Scale: {scale.instructions_per_thread} instructions/context, "
        f"seed {scale.seed}.",
        "",
    ]
    degraded: List[str] = []
    for name, fn in selected:
        started = time.perf_counter()
        try:
            text = fn(scale, cache)
        except MissingResultError as exc:
            text = _degraded_text(name, exc)
            degraded.append(name)
        elapsed = time.perf_counter() - started
        _write_if_changed(out_dir / f"{name}.txt", text + "\n")
        report += [f"## {name}", "", "```", text, "```",
                   f"_({elapsed:.1f}s)_", ""]
        if progress is not None:
            progress(name, elapsed)

    failures = supervisor.report if supervisor is not None else None
    if failures or degraded:
        report += ["## Failures", ""]
        if failures:
            for f in failures.failures:
                report.append(f"- `{f.label}`: {'/'.join(f.kinds)} after "
                              f"{f.attempts} attempt(s) — {f.error}")
        report += ["", f"Degraded artefacts: "
                       f"{', '.join(degraded) if degraded else 'none'}", ""]
    if failures is not None and (failures or failures_out is not None):
        failures_path = (Path(failures_out) if failures_out is not None
                         else out_dir / "failures.json")
        failures_path.parent.mkdir(parents=True, exist_ok=True)
        _write_if_changed(failures_path, failures.to_json())
    report_path = out_dir / "REPORT.md"
    _write_if_changed(report_path, "\n".join(report))
    return report_path
