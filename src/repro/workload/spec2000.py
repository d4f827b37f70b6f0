"""Behavioural profiles of the 20 SPEC CPU 2000 programs used in Table 2.

Each :class:`BenchmarkProfile` parameterises the statistical trace generator.
The parameters are chosen from the programs' published characterisations
(instruction mixes, working sets and branch behaviour from the SPEC 2000
characterisation literature) so that each model lands in the same
CPU-intensive / memory-intensive class the paper assigns it:

* **CPU-intensive**: small working set (fits in L1/L2), high ILP, low miss
  rates — bzip2, eon, facerec, wupwise, perlbmk, mesa, gcc, gap, crafty,
  parser, fma3d.
* **memory-intensive**: working set exceeding L2 and/or poor locality —
  mcf, twolf, equake, vpr, swim, applu, lucas, galgel, mgrid.

Absolute fidelity to each binary is neither possible nor needed: the paper's
results depend on the behavioural *class* of each thread (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from repro.errors import WorkloadError

KB = 1024
MB = 1024 * KB


class Category(Enum):
    """The paper's two-way workload classification (Section 3)."""

    CPU = "cpu"
    MEM = "mem"


@dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical model parameters for one SPEC CPU 2000 program."""

    name: str
    suite: str                      # "int" or "fp"
    category: Category

    # Instruction mix (fractions; normalised by the generator).
    frac_load: float
    frac_store: float
    frac_branch: float
    frac_fp: float                  # of compute ops, fraction that are FP
    frac_mul_div: float = 0.06      # of compute ops, fraction MUL/DIV
    frac_nop: float = 0.02
    frac_prefetch: float = 0.0
    frac_call_ret: float = 0.02     # of control ops, fraction CALL/RET pairs

    # Dataflow character.
    dep_distance_mean: float = 4.0  # mean register dependency distance (instrs)
    reuse_bias: float = 0.25        # prob. a dest register is reused quickly
                                    # (drives the dynamically-dead fraction)
    global_source_fraction: float = 0.2  # prob. a source reads a long-lived
                                         # global register (stack/base pointers)
    store_forward_fraction: float = 0.06  # prob. a load re-reads a recent
                                          # store's address (spill/reload idiom)

    # Memory behaviour.
    working_set_bytes: int = 64 * KB
    sequential_fraction: float = 0.6  # prob. the next access continues a stream
    fresh_fraction: float = 0.0       # prob. of a pointer-chase (non-temporal) access
    hot_region_bytes: int = 16 * KB   # heavily-reused region (stack/locals);
                                      # capped at the working set
    stride_bytes: int = 8
    num_streams: int = 4

    # Branch behaviour.
    branch_sites: int = 64
    branch_predictability: float = 0.92  # fraction of sites with learnable bias
    loop_fraction: float = 0.5           # of predictable sites, loop-pattern share
    taken_bias: float = 0.6

    # Code footprint (instruction fetch locality).
    code_bytes: int = 32 * KB

    def __post_init__(self) -> None:
        fracs = (self.frac_load, self.frac_store, self.frac_branch, self.frac_fp,
                 self.frac_mul_div, self.frac_nop, self.frac_prefetch)
        if any(f < 0 or f > 1 for f in fracs):
            raise WorkloadError(f"{self.name}: mix fractions must be in [0, 1]")
        if self.frac_load + self.frac_store + self.frac_branch + self.frac_nop > 0.95:
            raise WorkloadError(f"{self.name}: mix leaves no room for compute ops")
        if self.working_set_bytes <= 0 or self.code_bytes <= 0:
            raise WorkloadError(f"{self.name}: footprints must be positive")
        if self.dep_distance_mean < 1.0:
            raise WorkloadError(f"{self.name}: dep_distance_mean must be >= 1")
        if self.sequential_fraction + self.fresh_fraction > 1.0:
            raise WorkloadError(
                f"{self.name}: sequential + fresh fractions exceed 1.0"
            )
        if self.hot_region_bytes <= 0:
            raise WorkloadError(f"{self.name}: hot_region_bytes must be positive")
        if not 0.0 <= self.global_source_fraction <= 1.0:
            raise WorkloadError(f"{self.name}: global_source_fraction out of range")


def _cpu(name: str, suite: str, **kw) -> BenchmarkProfile:
    return BenchmarkProfile(name=name, suite=suite, category=Category.CPU, **kw)


def _mem(name: str, suite: str, **kw) -> BenchmarkProfile:
    return BenchmarkProfile(name=name, suite=suite, category=Category.MEM, **kw)


#: The 20 programs appearing in Table 2 of the paper.
PROFILES: Dict[str, BenchmarkProfile] = {
    p.name: p
    for p in (
        # ----- CPU-intensive (integer) -----
        _cpu("bzip2", "int", frac_load=0.23, frac_store=0.10, frac_branch=0.12,
             frac_fp=0.0, working_set_bytes=40 * KB, sequential_fraction=0.85,
             dep_distance_mean=3.0, branch_predictability=0.94, code_bytes=16 * KB),
        _cpu("eon", "int", frac_load=0.25, frac_store=0.14, frac_branch=0.10,
             frac_fp=0.35, working_set_bytes=24 * KB, sequential_fraction=0.8,
             dep_distance_mean=2.7, branch_predictability=0.96, code_bytes=48 * KB),
        _cpu("perlbmk", "int", frac_load=0.27, frac_store=0.14, frac_branch=0.14,
             frac_fp=0.0, working_set_bytes=48 * KB, sequential_fraction=0.7,
             dep_distance_mean=2.1, branch_predictability=0.93, code_bytes=64 * KB,
             frac_call_ret=0.08),
        _cpu("mesa", "fp", frac_load=0.24, frac_store=0.12, frac_branch=0.09,
             frac_fp=0.45, working_set_bytes=48 * KB, sequential_fraction=0.85,
             dep_distance_mean=3.3, branch_predictability=0.96, code_bytes=48 * KB),
        _cpu("gcc", "int", frac_load=0.26, frac_store=0.16, frac_branch=0.15,
             frac_fp=0.0, working_set_bytes=56 * KB, sequential_fraction=0.65,
             dep_distance_mean=1.8, branch_predictability=0.91, code_bytes=96 * KB,
             frac_call_ret=0.06),
        _cpu("gap", "int", frac_load=0.25, frac_store=0.12, frac_branch=0.10,
             frac_fp=0.0, working_set_bytes=48 * KB, sequential_fraction=0.75,
             dep_distance_mean=2.4, branch_predictability=0.95, code_bytes=32 * KB),
        _cpu("crafty", "int", frac_load=0.28, frac_store=0.09, frac_branch=0.13,
             frac_fp=0.0, working_set_bytes=32 * KB, sequential_fraction=0.6,
             dep_distance_mean=2.4, branch_predictability=0.89, code_bytes=32 * KB),
        _cpu("parser", "int", frac_load=0.24, frac_store=0.11, frac_branch=0.14,
             frac_fp=0.0, working_set_bytes=56 * KB, sequential_fraction=0.6,
             dep_distance_mean=2.1, branch_predictability=0.90, code_bytes=40 * KB,
             frac_call_ret=0.06),
        # ----- CPU-intensive (floating point) -----
        _cpu("facerec", "fp", frac_load=0.26, frac_store=0.09, frac_branch=0.05,
             frac_fp=0.55, working_set_bytes=56 * KB, sequential_fraction=0.9,
             dep_distance_mean=3.6, branch_predictability=0.97, code_bytes=24 * KB,
             branch_sites=24),
        _cpu("wupwise", "fp", frac_load=0.22, frac_store=0.10, frac_branch=0.04,
             frac_fp=0.6, working_set_bytes=48 * KB, sequential_fraction=0.92,
             dep_distance_mean=3.9, branch_predictability=0.98, code_bytes=16 * KB,
             branch_sites=16),
        _cpu("fma3d", "fp", frac_load=0.26, frac_store=0.13, frac_branch=0.06,
             frac_fp=0.55, working_set_bytes=56 * KB, sequential_fraction=0.85,
             dep_distance_mean=3.0, branch_predictability=0.96, code_bytes=64 * KB,
             branch_sites=24),
        # ----- Memory-intensive (integer) -----
        _mem("mcf", "int", frac_load=0.30, frac_store=0.09, frac_branch=0.18,
             frac_fp=0.0, working_set_bytes=8 * MB, sequential_fraction=0.05,
             fresh_fraction=0.5, hot_region_bytes=16 * KB,
             dep_distance_mean=1.8, branch_predictability=0.88, code_bytes=8 * KB,
             num_streams=2),
        _mem("twolf", "int", frac_load=0.26, frac_store=0.10, frac_branch=0.14,
             frac_fp=0.05, working_set_bytes=1 * MB, sequential_fraction=0.25,
             fresh_fraction=0.15, hot_region_bytes=24 * KB,
             dep_distance_mean=1.8, branch_predictability=0.87, code_bytes=24 * KB),
        _mem("vpr", "int", frac_load=0.28, frac_store=0.11, frac_branch=0.12,
             frac_fp=0.1, working_set_bytes=2 * MB, sequential_fraction=0.3,
             fresh_fraction=0.18, hot_region_bytes=24 * KB,
             dep_distance_mean=1.8, branch_predictability=0.88, code_bytes=24 * KB),
        # ----- Memory-intensive (floating point) -----
        _mem("equake", "fp", frac_load=0.31, frac_store=0.08, frac_branch=0.08,
             frac_fp=0.5, working_set_bytes=4 * MB, sequential_fraction=0.4,
             fresh_fraction=0.25, hot_region_bytes=32 * KB,
             dep_distance_mean=2.4, branch_predictability=0.95, code_bytes=16 * KB,
             branch_sites=24),
        _mem("swim", "fp", frac_load=0.28, frac_store=0.14, frac_branch=0.02,
             frac_fp=0.6, working_set_bytes=16 * MB, sequential_fraction=0.85,
             fresh_fraction=0.05, hot_region_bytes=16 * KB,
             stride_bytes=8, dep_distance_mean=3.6, branch_predictability=0.99,
             code_bytes=8 * KB, num_streams=8,
             branch_sites=12),
        _mem("applu", "fp", frac_load=0.27, frac_store=0.12, frac_branch=0.03,
             frac_fp=0.62, working_set_bytes=12 * MB, sequential_fraction=0.8,
             fresh_fraction=0.08, hot_region_bytes=24 * KB,
             dep_distance_mean=3.3, branch_predictability=0.98, code_bytes=16 * KB,
             num_streams=6,
             branch_sites=16),
        _mem("lucas", "fp", frac_load=0.25, frac_store=0.12, frac_branch=0.02,
             frac_fp=0.65, working_set_bytes=16 * MB, sequential_fraction=0.78,
             fresh_fraction=0.08, hot_region_bytes=16 * KB,
             dep_distance_mean=3.6, branch_predictability=0.99, code_bytes=8 * KB,
             num_streams=8,
             branch_sites=12),
        _mem("galgel", "fp", frac_load=0.28, frac_store=0.09, frac_branch=0.05,
             frac_fp=0.6, working_set_bytes=3 * MB, sequential_fraction=0.5,
             fresh_fraction=0.2, hot_region_bytes=32 * KB,
             dep_distance_mean=3.0, branch_predictability=0.97, code_bytes=16 * KB,
             branch_sites=24),
        _mem("mgrid", "fp", frac_load=0.32, frac_store=0.08, frac_branch=0.02,
             frac_fp=0.6, working_set_bytes=14 * MB, sequential_fraction=0.82,
             fresh_fraction=0.08, hot_region_bytes=16 * KB,
             dep_distance_mean=3.6, branch_predictability=0.99, code_bytes=8 * KB,
             num_streams=6,
             branch_sites=12),
    )
}


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by SPEC program name."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise WorkloadError(f"unknown benchmark {name!r}; known: {known}") from None

