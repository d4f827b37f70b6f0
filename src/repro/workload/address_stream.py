"""Data-address stream models for the statistical workload generator.

Each thread's references mix three components:

* **sequential streams** — array walks with a fixed stride (spatial
  locality; swim/lucas-like streaming when the arrays are large);
* **hot-region accesses** — uniform references over a small, heavily
  reused region (stack, locals, hash headers) that lives in the L1;
* **fresh accesses** — a pointer-chase walk whose reuse distance exceeds
  any cache (mcf-like): every fresh reference touches a line that has not
  been seen for longer than the L2 can remember.

Reproduction-scale note (see DESIGN.md): runs are ~1000x shorter than the
paper's, so a program's *touched* footprint inside one run can fit in the
L2 even when its real working set does not.  To keep miss behaviour honest,
components whose full-scale reuse distance exceeds the L2 (fresh walks, and
sequential streams over working sets larger than ``NON_TEMPORAL_LIMIT``)
are placed in a dedicated *non-temporal* address region that the functional
warmup pass does not touch: their first reference in the measured window
misses all the way to memory, exactly as it would at full scale.

Each SMT context is given a disjoint virtual address-space base so that
threads share cache *capacity* (set conflicts) but never alias each other's
data, matching the paper's separate-address-space multiprogrammed setup.
"""

from __future__ import annotations

import numpy as np

from repro.workload.spec2000 import BenchmarkProfile

#: Virtual address-space stride between SMT contexts.  Must exceed any
#: profile's footprint so per-thread regions never overlap.
THREAD_ADDRESS_SPACE = 1 << 32

#: Data segment offset within a thread's address space (code lives below).
DATA_SEGMENT_BASE = 1 << 24

#: Offset of the non-temporal data region within a thread's address space.
NON_TEMPORAL_BASE = 1 << 28

#: Working sets larger than this are modelled as non-L2-resident (the
#: default L2 is 2 MB; a stream that cycles through more than this between
#: revisits never finds its data still cached).
NON_TEMPORAL_LIMIT = 1 << 20

#: Stride (in bytes) of the fresh pointer-chase walk: a prime number of
#: cache lines, so successive fresh references land on distinct lines and
#: cycle through the whole region before any reuse.
_FRESH_STRIDE = 257 * 64


def is_non_temporal(addr: int) -> bool:
    """True when ``addr`` lies in a thread's non-temporal data region."""
    return (addr & (THREAD_ADDRESS_SPACE - 1)) >= NON_TEMPORAL_BASE


class AddressStream:
    """Deterministic data-address generator for one thread."""

    def __init__(self, profile: BenchmarkProfile, thread_id: int,
                 rng: np.random.Generator) -> None:
        self._rng = rng
        base = thread_id * THREAD_ADDRESS_SPACE
        self._ws = max(profile.working_set_bytes, 64)
        self._stride = max(profile.stride_bytes, 1)
        self._seq_frac = min(max(profile.sequential_fraction, 0.0), 1.0)
        self._fresh_frac = min(max(profile.fresh_fraction, 0.0), 1.0 - self._seq_frac)

        streams_non_temporal = self._ws > NON_TEMPORAL_LIMIT
        self._stream_base = base + (NON_TEMPORAL_BASE if streams_non_temporal
                                    else DATA_SEGMENT_BASE)
        self._fresh_base = base + NON_TEMPORAL_BASE + self._ws  # past the streams
        self._hot_base = base + DATA_SEGMENT_BASE + self._ws + 4096
        self._hot_bytes = max(min(profile.hot_region_bytes, self._ws), 64)

        n = max(profile.num_streams, 1)
        # Spread stream cursors evenly so concurrent array walks (swim-like)
        # touch distinct regions of the working set.
        self._cursors = [(i * self._ws) // n for i in range(n)]
        self._next_stream = 0
        self._fresh_cursor = 0

    def fork(self, rng: np.random.Generator) -> "AddressStream":
        """An independent copy drawing from ``rng``."""
        clone = AddressStream.__new__(AddressStream)
        clone.__dict__.update(self.__dict__)
        clone._rng = rng
        clone._cursors = list(self._cursors)
        return clone

    def next_address(self, size: int = 8) -> int:
        """Return the next data address (aligned to ``size``)."""
        r = self._rng.random()
        if r < self._seq_frac:
            addr = self.stream_address(self._next_stream)
            self._next_stream = (self._next_stream + 1) % len(self._cursors)
        elif r < self._seq_frac + self._fresh_frac:
            addr = self.fresh_address()
        else:
            addr = self.hot_address()
        return addr - (addr % size)

    # -- per-component generators (used by the memory-site model) -------------

    def stream_address(self, i: int) -> int:
        """Advance sequential stream ``i`` and return its address."""
        i %= len(self._cursors)
        self._cursors[i] = (self._cursors[i] + self._stride) % self._ws
        return self._stream_base + self._cursors[i]

    def fresh_address(self) -> int:
        """A pointer-chase address whose reuse distance exceeds the L2."""
        self._fresh_cursor = (self._fresh_cursor + _FRESH_STRIDE) % self._ws
        offset = self._fresh_cursor + int(self._rng.integers(0, 8)) * 8
        return self._fresh_base + (offset % self._ws)

    def hot_address(self) -> int:
        """A reference into the heavily reused (L1-resident) hot region."""
        return self._hot_base + int(self._rng.integers(0, self._hot_bytes))

    @property
    def num_streams(self) -> int:
        return len(self._cursors)

    @property
    def working_set_bytes(self) -> int:
        return self._ws


class CodeStream:
    """Instruction-address (PC) generator for one thread.

    Models a program as a set of basic blocks laid out over ``code_bytes``
    of the thread's address space.  PCs advance by 4 within a block; control
    transfers jump between block starts.  The footprint determines IL1/ITLB
    behaviour.
    """

    INSTR_BYTES = 4

    #: Fraction of control-transfer targets that land in the hot code region
    #: (inner loops); the rest spread over the full footprint.  Real programs
    #: spend most cycles in a small fraction of their static code.
    HOT_TARGET_FRACTION = 0.85

    def __init__(self, profile: BenchmarkProfile, thread_id: int,
                 rng: np.random.Generator) -> None:
        self._rng = rng
        self._base = thread_id * THREAD_ADDRESS_SPACE
        self._code = max(profile.code_bytes, 256)
        self._hot_code = max(self._code // 8, 2048)
        self._pc = self._base

    @property
    def pc(self) -> int:
        return self._pc

    def advance(self) -> int:
        """Fall through to the next sequential instruction; returns the new PC."""
        self._pc = self._base + ((self._pc - self._base) + self.INSTR_BYTES) % self._code
        return self._pc

    def jump_to(self, target: int) -> int:
        """Redirect the PC to ``target`` (a prior output of this stream)."""
        self._pc = target
        return self._pc

    def random_block_start(self) -> int:
        """Pick an aligned control-transfer target.

        Targets concentrate in the hot code region (loop nests) with
        ``HOT_TARGET_FRACTION`` probability, giving the instruction stream
        the loop locality real programs have.
        """
        span = (self._hot_code if self._rng.random() < self.HOT_TARGET_FRACTION
                else self._code)
        offset = int(self._rng.integers(0, span // self.INSTR_BYTES))
        return self._base + offset * self.INSTR_BYTES
