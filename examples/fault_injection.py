"""Fault injection vs AVF: do the two reliability methodologies agree?

The paper (Section 2) presents AVF computation and statistical fault
injection as complementary ways to measure the same quantity.  This example
runs a live injection campaign — real bit flips at random (cycle, entry,
bit) points of each pipeline structure, each faulty run classified against
a golden run — and compares the resulting silent-data-corruption rate, with
its 95% Wilson interval, against the exact ACE AVF the simulator reports.
ACE analysis upper-bounds true vulnerability, so the AVF should land inside
the interval or above it ("conservative"), never below it.

Usage::

    python examples/fault_injection.py [workload] [strikes-per-structure]
"""

import sys

from repro import SimConfig, get_mix
from repro.faultinject import run_live_campaign


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "2-MIX-A"
    strikes = int(sys.argv[2]) if len(sys.argv) > 2 else 48

    mix = get_mix(workload)
    result = run_live_campaign(
        mix, injections=strikes,
        sim=SimConfig(max_instructions=500 * mix.num_threads),
    )
    print(f"{'structure':<10} {'ACE AVF':>8} {'SDC rate':>9} "
          f"{'95% Wilson interval':>20}  verdict")
    for s, c in result.structures.items():
        lo, hi = result.interval(s)
        print(f"{s.value:<10} {c.reported_avf:8.4f} {c.sdc_rate:9.4f} "
              f"    [{lo:6.4f}, {hi:6.4f}]  {result.verdict(s)}")
    inside = sum(result.agrees(s) for s in result.structures)
    print()
    print(f"ACE AVF inside the interval on {inside}/{len(result.structures)} "
          f"structures at {strikes} strikes/structure")


if __name__ == "__main__":
    main()
