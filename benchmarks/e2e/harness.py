"""Shared plumbing for the end-to-end benchmark: statistics, the
machine-speed control, environment hygiene, provenance and result files.

Nothing here imports ``repro``: the harness must be able to refuse to run
(and say why) in a checkout that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINS_JSON = HERE / "pins.json"
RESULTS_DIR = HERE / "results"
BASELINE_DIR = HERE / "baseline"
WORK_DIR = HERE / ".work"

#: Environment knobs that silently change what the program computes or how
#: (run length, kernel backend, injected chaos, runtime audits).  Every
#: workload process and the campaign server run without them, so a stray
#: export in the caller's shell can never move a benchmark number.
SCRUBBED_ENV = ("REPRO_SCALE", "REPRO_BACKEND", "REPRO_CHAOS",
                "REPRO_CHECK_INVARIANTS")

#: A tail percentile is reported only with at least this many samples
#: beyond it; candidate levels, highest first.
TAIL_MIN_BEYOND = 10
TAIL_LEVELS = (99.0, 95.0, 90.0, 75.0)


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], level: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * level / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_level(n: int) -> Optional[float]:
    """The highest tail percentile with at least ten samples beyond it in
    a sample of ``n``, or None when even p75 lacks them."""
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= TAIL_MIN_BEYOND:
            return level
    return None


def quartiles(values: Sequence[float]) -> List[float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


# -- machine-speed control -------------------------------------------------------

#: On a host shared with other tenants the same code runs up to 2x slower
#: for minutes at a time, and a fixed pure-Python loop slows in step with
#: the simulator (correlation 0.9 over 15k paired samples on a 2-vCPU VM).
#: The harness runs the loop after every operation and reports times
#: rescaled to a machine on which one pass takes CONTROL_REF_S (about its
#: quiet-host time there).
CONTROL_REF_S = 1.2e-3


class _Slot:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b, self.c = a, b, 0


def control_sample() -> float:
    """Seconds for one pass of the machine-speed control loop: dictionary
    and integer work, then allocating and walking small objects, the two
    kinds of work the simulator's time goes to."""
    started = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 127, 0) + i
        acc += (i * 7) ^ (acc >> 3)
    slots = [_Slot(i, 3 * i) for i in range(1500)]
    for slot in slots:
        slot.c = slot.a ^ slot.b
        acc += slot.c & 7
    return time.perf_counter() - started


# -- environment -----------------------------------------------------------------


def scrub_process_env(work: Path) -> None:
    """Strip the knobs from this process and keep temp files in ``work``."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(work)
    import tempfile

    tempfile.tempdir = str(work)


def program_env(work: Path) -> Dict[str, str]:
    """Environment for a subprocess that runs the program from ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(PYTHONPATH=str(SRC), TMPDIR=str(work))
    return env


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_probe(modules: Sequence[str], work: Path) -> List[float]:
    """Seconds from spawning a fresh interpreter to having imported
    ``modules`` and exited, three times: the start-up cost a user pays
    before the workload's first operation."""
    code = "import " + ", ".join(modules)
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=program_env(work),
                       cwd=str(ROOT), check=True)
        timings.append(time.perf_counter() - started)
    return timings


# -- provenance ------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> Dict[str, object]:
    """Where a result came from.  ``dirty`` means the measured program
    (``src/``) differs from ``commit``; both are null when this checkout
    is not the top of a git work tree."""
    top = _git("rev-parse", "--show-toplevel")
    commit = (_git("rev-parse", "HEAD")
              if top is not None and Path(top).resolve() == ROOT else None)
    status = _git("status", "--porcelain", "--", "src") if commit else None
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"commit": commit,
            "dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": nproc(),
            "seed": seed}


# -- results ---------------------------------------------------------------------


def load_benchmark() -> Dict[str, object]:
    return json.loads(BENCHMARK_JSON.read_text())


def load_pins() -> Dict[str, object]:
    return json.loads(PINS_JSON.read_text())


def write_result(result: Dict[str, object], out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{result['workload']}-seed{result['seed']}-"
            f"trace{result['trace']}-{stamp}-{os.getpid()}.json")
    path = out_dir / name
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def load_results(paths: Sequence[Path]) -> List[Dict[str, object]]:
    """Result files named directly or found in named directories."""
    files: List[Path] = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(p.read_text()) for p in files]
