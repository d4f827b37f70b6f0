#!/usr/bin/env python
"""Fail when a kernel benchmark run regresses against the committed baseline.

Compares pytest-benchmark JSON files benchmark-by-benchmark on their
*minimum* observed time (minimums are far more robust than means on noisy
shared runners) and exits non-zero when any benchmark is more than
``--threshold`` slower than the baseline.

Because the baseline was recorded on a different machine than CI runs on,
``--control`` may name a benchmark whose code never changes run-to-run
(here: a pure-Python loop that exercises no simulator code).  Each
candidate *file* is normalised by its own control measurement — control
and kernel numbers from the same run share the same machine conditions,
which is the pairing that makes the normalisation valid — and with several
candidate files the per-benchmark best *normalised* time is kept, which
rejects one-off scheduler spikes without ever mixing measurements across
runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence


def load_mins(path: str) -> Dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    return {b["name"]: b["stats"]["min"] for b in data["benchmarks"]}


def normalised_minimums(base: Dict[str, float],
                        candidate_paths: Sequence[str],
                        control: Optional[str]) -> Dict[str, float]:
    """Best per-benchmark candidate time, each file normalised by its own
    control measurement before the cross-file minimum is taken."""
    best: Dict[str, float] = {}
    for path in candidate_paths:
        mins = load_mins(path)
        scale = 1.0
        if control:
            if control not in base:
                raise SystemExit(
                    f"control benchmark {control!r} missing from baseline")
            if control not in mins:
                raise SystemExit(
                    f"control benchmark {control!r} missing from {path}")
            scale = mins[control] / base[control]
            print(f"machine-speed control {control} [{path}]: x{scale:.3f}")
        for name, value in mins.items():
            adjusted = value / scale
            if name not in best or adjusted < best[name]:
                best[name] = adjusted
    return best


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("candidate", nargs="+",
                        help="fresh benchmark JSON(s); with several files "
                             "the per-benchmark best normalised time is "
                             "compared, which rejects one-off scheduler "
                             "spikes")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    parser.add_argument("--control", default=None,
                        help="benchmark name used to normalise out "
                             "machine-speed differences (applied per "
                             "candidate file)")
    args = parser.parse_args(argv)

    base = load_mins(args.baseline)
    cand = normalised_minimums(base, args.candidate, args.control)

    failures: List[str] = []
    missing = sorted(set(base) - set(cand))
    if missing:
        failures.append(f"benchmarks missing from candidate: {missing}")
    extra = sorted(set(cand) - set(base))
    if extra:
        # Not a failure — a new benchmark has no baseline yet — but never
        # silently drop it: an unbaselined benchmark is unguarded.
        print(f"note: benchmarks present in candidate but not in baseline "
              f"(unguarded): {extra}")

    for name in sorted(set(base) & set(cand)):
        ratio = cand[name] / base[name]
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failures.append(f"{name}: {ratio:.3f}x baseline "
                            f"(> {1.0 + args.threshold:.2f}x allowed)")
        print(f"{name}: base {base[name] * 1000:.1f}ms  "
              f"cand {cand[name] * 1000:.1f}ms  "
              f"normalised {ratio:.3f}x  {status}")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nOK: no benchmark regressed beyond "
          f"{args.threshold:.0%} of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
