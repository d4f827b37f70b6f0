"""Redundant multithreading: buying detection with throughput.

The paper's related work (SRT/SRTR) uses SMT's spare context to run a
program twice and compare — transient faults become *detected* errors
instead of silent corruptions.  This example runs a program as an SRT pair
and reports the three numbers that define the technique:

1. the redundancy tax (logical throughput vs running unprotected),
2. the slack discipline (the trailer riding in the leader's shadow),
3. the coverage: strike outcome rates with and without redundancy, read
   from the exact AVF of the solo run and of the redundant pair.

Usage::

    python examples/redundant_threads.py [program] [instructions]
"""

import sys

from repro.rmt import coverage_analysis, run_redundant


def main() -> None:
    program = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 2000

    rmt = run_redundant(program, instructions=instructions)
    print(rmt.summary())
    print(f"pair DL1 miss {rmt.redundant.dl1_miss_rate:.3%} vs solo "
          f"{rmt.solo.dl1_miss_rate:.3%} — the leader prefetches for the "
          f"trailer" if rmt.trailer_dl1_benefit else "")
    print()
    print(coverage_analysis(rmt).summary())
    print()
    print("Inside the sphere of replication every silent corruption became a")
    print("detected error; the cost was the redundancy tax above.")


if __name__ == "__main__":
    main()
