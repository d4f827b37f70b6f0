"""Ablation: redundant multithreading — detection bought with throughput.

The paper's related work (refs [24, 25]) turns SMT into a fault-detection
substrate.  This benchmark measures the two sides of that trade on this
reproduction's machine: the redundancy tax (logical IPC vs unprotected),
and the outcome conversion (silent corruptions -> detected errors inside
the sphere of replication), read from the exact per-structure AVF of the
solo run and the redundant pair.
"""

from conftest import save_artifact

from repro.avf.structures import Structure
from repro.experiments.formatting import render_table
from repro.experiments.runner import ExperimentScale
from repro.rmt import coverage_analysis, run_redundant

PROGRAMS = ("gcc", "mesa", "twolf")


def test_rmt_tradeoff(benchmark):
    scale = ExperimentScale.from_env()

    def run():
        runs = {p: run_redundant(p, instructions=scale.instructions_per_thread)
                for p in PROGRAMS}
        return runs, coverage_analysis(runs["gcc"])

    runs, cov = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[p, r.solo.ipc, r.logical_ipc, r.redundancy_tax,
             r.trailer_gated_cycles]
            for p, r in runs.items()]
    text = render_table(
        "RMT: redundancy tax per program",
        ["program", "solo IPC", "logical IPC", "tax", "trailer gated"],
        rows,
    ) + "\n\n" + cov.summary()
    save_artifact("ablation_rmt", text)

    for p, r in runs.items():
        # Redundancy costs something but never everything.
        assert 0.0 < r.redundancy_tax < 0.8, p
        # Both copies commit their full traces.
        assert all(t.committed == scale.instructions_per_thread
                   for t in r.redundant.threads), p
    # All in-sphere silent corruptions become detected errors.
    for c in cov.structures.values():
        assert c.protected_sdc_rate == 0.0
    assert cov.structures[Structure.IQ].protected_due_rate > 0.0
