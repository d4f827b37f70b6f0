"""TLB and MSHR unit tests."""

import pytest

from repro.config import TlbConfig
from repro.errors import ConfigError
from repro.memory.mshr import MshrFile
from repro.memory.tlb import Tlb, TlbEntry


class _Recorder:
    def __init__(self):
        self.evicted = []

    def on_evict(self, entry, cycle):
        self.evicted.append((entry, cycle))


class TestTlb:
    def test_first_access_misses(self):
        tlb = Tlb(TlbConfig("t", 16, 4, miss_latency=100))
        assert not tlb.access(0x1000, 1, 0)
        assert tlb.access(0x1000, 2, 0)

    def test_same_page_hits(self):
        tlb = Tlb(TlbConfig("t", 16, 4, miss_latency=100))
        tlb.access(0x1000, 1, 0)
        assert tlb.access(0x1FFF, 2, 0)   # same 4K page
        assert not tlb.access(0x2000, 3, 0)  # next page

    def test_eviction_reports_to_observer(self):
        rec = _Recorder()
        tlb = Tlb(TlbConfig("t", 4, 1, miss_latency=100), observer=rec)
        for i in range(64):
            tlb.access(i * 4096, i + 1, 0)
            if rec.evicted:
                break
        assert rec.evicted
        entry, cycle = rec.evicted[0]
        assert isinstance(entry, TlbEntry)

    def test_drain(self):
        rec = _Recorder()
        tlb = Tlb(TlbConfig("t", 16, 4, miss_latency=100), observer=rec)
        tlb.access(0x1000, 1, 0)
        tlb.access(0x5000, 2, 1)
        tlb.drain(50)
        assert len(rec.evicted) == 2

    def test_use_counting(self):
        tlb = Tlb(TlbConfig("t", 16, 4, miss_latency=100))
        tlb.access(0x1000, 1, 0)
        tlb.access(0x1000, 9, 0)
        rec = _Recorder()
        tlb._observer = rec
        tlb.drain(20)
        entry, _ = rec.evicted[0]
        assert entry.uses == 2
        assert entry.last_use_cycle == 9

    def test_miss_rate(self):
        tlb = Tlb(TlbConfig("t", 16, 4, miss_latency=100))
        tlb.access(0x1000, 1, 0)
        tlb.access(0x1000, 2, 0)
        assert tlb.miss_rate == pytest.approx(0.5)

    def test_thread_bases_spread(self):
        tlb = Tlb(TlbConfig("t", 64, 4, miss_latency=100))
        sets = {tlb._set_index(tlb.vpn_of(tid << 32)) for tid in range(8)}
        assert len(sets) >= 5


class TestMshr:
    def test_merge_returns_ready_cycle(self):
        m = MshrFile(4)
        assert m.lookup(100, 0) is None
        assert m.allocate(100, ready_cycle=50, cycle=0)
        assert m.lookup(100, 10) == 50
        assert m.merges == 1

    def test_expiry(self):
        m = MshrFile(4)
        m.allocate(100, ready_cycle=50, cycle=0)
        assert m.lookup(100, 50) is None  # fill arrived
        assert m.outstanding_count(50) == 0

    def test_capacity(self):
        m = MshrFile(2)
        assert m.allocate(1, 100, 0)
        assert m.allocate(2, 100, 0)
        assert not m.allocate(3, 100, 0)
        assert m.full_stalls == 1
        # After expiry, capacity frees up.
        assert m.allocate(3, 300, 150)

    def test_clear(self):
        m = MshrFile(4)
        m.allocate(1, 100, 0)
        m.clear()
        assert m.lookup(1, 0) is None
        assert m.outstanding_count(0) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            MshrFile(0)


def _vpns_in_set(tlb, index, count):
    """``count`` distinct page addresses that map to set ``index``."""
    found = []
    addr = 0
    while len(found) < count:
        if tlb._set_index(tlb.vpn_of(addr)) == index:
            found.append(addr)
        addr += 4096
    return found


def _tlb_state(tlb):
    sets = [[(vpn, e.thread_id, e.fill_cycle, e.last_use_cycle, e.uses)
             for vpn, e in entries.items()]
            for entries in tlb._sets]
    return sets, (tlb.hits, tlb.misses)


_TLB_WRITES = {
    "hit": lambda tlb, pages: tlb.access(pages[0], 50, 0),
    "miss_and_eviction": lambda tlb, pages: tlb.access(pages[2], 50, 0),
    "drain": lambda tlb, pages: tlb.drain(60),
}


class TestTlbCopyOnWriteFork:
    """A fork shares every TLB set until one side accesses it: a write
    through either side must leave the other's entries, LRU order and
    counters untouched, and match a TLB that never forked."""

    @pytest.mark.parametrize("writer", ["parent", "fork"])
    @pytest.mark.parametrize("write", sorted(_TLB_WRITES))
    def test_a_write_leaves_the_other_side_alone(self, write, writer):
        config = TlbConfig("t", 8, 2, miss_latency=100)

        def warmed():
            tlb = Tlb(config, observer=_Recorder())
            for cycle, addr in enumerate(pages[:2], start=1):
                tlb.access(addr, cycle, 0)
            return tlb

        pages = _vpns_in_set(Tlb(config), 0, 3)
        parent = warmed()
        before = _tlb_state(parent)
        fork = parent.fork(_Recorder())
        sides = {"parent": parent, "fork": fork}
        other = sides["fork" if writer == "parent" else "parent"]

        _TLB_WRITES[write](sides[writer], pages)
        assert _tlb_state(other) == before

        reference = warmed()
        _TLB_WRITES[write](reference, pages)
        assert _tlb_state(sides[writer]) == _tlb_state(reference)
        assert _tlb_state(sides[writer]) != before
