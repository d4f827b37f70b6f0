#!/usr/bin/env python3
"""Compare the benchmark results of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --base PARENT_RESULTS... \
        --change CHANGE_RESULTS...

Each argument is a result file or a directory of them (each checkout
writes its own ``benchmarks/e2e/results/``).  Only untraced, correct runs
count.  For every workload and end-to-end metric it prints both sides'
median and quartiles, the change's median as a ratio of the parent's, and
a verdict:

``regressed``   the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
``unresolved``  the parent's own spread (inter-quartile distance over the
                median) is wider than the bound, so the bound cannot be
                judged;
``better``      the spread is that wide, but every change run beats every
                parent run;
``ok``          none of these.

It exits 1 when anything regressed.  ``--plan N`` instead prints the run
order for N parent/change pairs, alternating which side runs first.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import load_benchmark, load_results, quartiles  # noqa: E402


def _by_workload(results: Sequence[Dict[str, object]]
                 ) -> Dict[str, List[Dict[str, object]]]:
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for r in results:
        if not r.get("trace"):
            grouped.setdefault(r["workload"], []).append(r)
    return grouped


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    q1, base_median, q3 = quartiles(base)
    sign = 1.0 if better == "lower" else -1.0
    if (q3 - q1) / base_median > bound:
        wins = all(sign * (c - b) < 0 for c in change for b in base)
        return "better" if wins else "unresolved"
    worse = sign * (quartiles(change)[1] - base_median) / base_median
    return "regressed" if worse > bound else "ok"


def _summary(q: Sequence[float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def _rows(workload: str, metrics, base_runs, change_runs) -> bool:
    """Print one row per metric; True when any regressed."""
    regressed = False
    for m in metrics:
        b = [r["end_to_end"][m["name"]] for r in base_runs]
        c = [r["end_to_end"][m["name"]] for r in change_runs]
        bq, cq = quartiles(b), quartiles(c)
        result = verdict(b, c, m["better"], m["bound"])
        regressed |= result == "regressed"
        print(f"{workload:<16} {m['name']:<17} {_summary(bq):>30} "
              f"{_summary(cq):>30} {cq[1] / bq[1]:>7.3f}  {result} "
              f"(n={len(b)}/{len(c)}, bound {m['bound']:g}, "
              f"{m['better']} is better)")
    return regressed


def compare(base_paths: Sequence[Path], change_paths: Sequence[Path]) -> int:
    metrics = load_benchmark()["end_to_end"]
    base = _by_workload(load_results(base_paths))
    change = _by_workload(load_results(change_paths))
    regressed = False
    print(f"{'workload':<16} {'metric':<17} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7}  verdict")
    for workload in sorted(set(base) | set(change)):
        sides = (("parent", base.get(workload, [])),
                 ("change", change.get(workload, [])))
        good_base, good_change = ([r for r in runs if r["correct"]]
                                  for _, runs in sides)
        if good_base and good_change:
            regressed |= _rows(workload, metrics, good_base, good_change)
        else:
            print(f"{workload:<16} no correct run on one side; not compared")
        for side, runs in sides:
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload:<16} {side} failed {failed}/{attempted} "
                  f"operations in {len(runs)} runs")
    return 1 if regressed else 0


def plan(pairs: int) -> None:
    """Alternate which side runs first, with a fresh seed per pair."""
    workloads = [w["name"] for w in load_benchmark()["workloads"]]
    print("Run each line in the named checkout, in this order:")
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            for workload in workloads:
                print(f"pair {i + 1:>2}  {side:<6}  python3 "
                      f"benchmarks/e2e/run.py --workload {workload} "
                      f"--seed {i + 1} --trace 0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare benchmark results of two commits.")
    parser.add_argument("--base", nargs="+", type=Path, default=[],
                        help="parent-commit result files or directories")
    parser.add_argument("--change", nargs="+", type=Path, default=[],
                        help="changed-commit result files or directories")
    parser.add_argument("--plan", type=int, metavar="N",
                        help="print an alternating run order for N >= 10 "
                             "parent/change pairs instead")
    args = parser.parse_args(argv)
    if args.plan is not None:
        if args.plan < 10:
            parser.error("--plan needs at least 10 pairs")
        plan(args.plan)
        return 0
    if not args.base or not args.change:
        parser.error("--base and --change are both required")
    return compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
