"""Set-associative cache: hits, misses, LRU, writeback, word tracking."""

import pytest

from repro.config import CacheConfig
from repro.memory.cache import Cache, CacheLine, WORD_BYTES


@pytest.fixture
def small_cache():
    """4 sets x 2 ways x 64-byte lines = 512 bytes."""
    return Cache(CacheConfig("test", 512, 2, 64, hit_latency=1), track_words=True)


class _Recorder:
    def __init__(self):
        self.evicted = []

    def on_evict(self, line, cycle):
        self.evicted.append((line, cycle))


class TestBasicBehaviour:
    def test_first_access_misses(self, small_cache):
        hit, line, evicted = small_cache.access(0x1000, 1, 0, is_write=False)
        assert not hit
        assert evicted is None
        assert line.thread_id == 0

    def test_second_access_hits(self, small_cache):
        small_cache.access(0x1000, 1, 0, False)
        hit, _, _ = small_cache.access(0x1000, 2, 0, False)
        assert hit

    def test_same_line_different_offset_hits(self, small_cache):
        small_cache.access(0x1000, 1, 0, False)
        hit, _, _ = small_cache.access(0x1000 + 56, 2, 0, False)
        assert hit

    def test_different_lines_miss_independently(self, small_cache):
        small_cache.access(0x1000, 1, 0, False)
        hit, _, _ = small_cache.access(0x1000 + 64, 2, 0, False)
        assert not hit

    def test_probe_has_no_side_effects(self, small_cache):
        assert not small_cache.probe(0x2000)
        assert small_cache.misses == 0
        small_cache.access(0x2000, 1, 0, False)
        assert small_cache.probe(0x2000)

    def test_miss_rate(self, small_cache):
        small_cache.access(0x0, 1, 0, False)
        small_cache.access(0x0, 2, 0, False)
        small_cache.access(0x0, 3, 0, False)
        small_cache.access(0x40, 4, 0, False)
        assert small_cache.miss_rate == pytest.approx(0.5)


class TestLru:
    def test_eviction_of_least_recent(self):
        cache = Cache(CacheConfig("t", 512, 2, 64, hit_latency=1))
        # Three lines in the same set (distinct line addresses).
        a, b, c = 0x10000, 0x20000, 0x30000
        sets = {cache._set_index(cache.line_address(x)) for x in (a, b, c)}
        if len(sets) != 1:
            pytest.skip("hash spread these lines over different sets")
        cache.access(a, 1, 0, False)
        cache.access(b, 2, 0, False)
        cache.access(a, 3, 0, False)   # refresh a
        cache.access(c, 4, 0, False)   # evicts b (LRU)
        assert cache.probe(a)
        assert not cache.probe(b)
        assert cache.probe(c)

    def test_capacity_bounded(self, small_cache):
        for i in range(100):
            small_cache.access(i * 64, i, 0, False)
        assert sum(1 for _ in small_cache.resident_lines()) <= 8


class TestWordTracking:
    def test_read_timestamps(self, small_cache):
        _, line, _ = small_cache.access(0x1000, 5, 0, False)
        w = (0x1000 % 64) // WORD_BYTES
        assert line.word_last_read[w] == 5
        assert not line.dirty

    def test_write_sets_dirty(self, small_cache):
        _, line, _ = small_cache.access(0x1008, 5, 0, True)
        assert line.dirty
        assert line.word_last_write[1] == 5
        assert line.word_dirty[1]
        assert not line.word_dirty[0]

    def test_writeback_counted_on_dirty_eviction(self, small_cache):
        small_cache.access(0x0, 1, 0, True)
        # Fill the set until 0x0's line is evicted.
        for i in range(1, 100):
            small_cache.access(i * 0x40, 1 + i, 0, False)
            if not small_cache.probe(0x0):
                break
        assert small_cache.writebacks >= 1


class TestObserver:
    def test_eviction_reported(self):
        rec = _Recorder()
        cache = Cache(CacheConfig("t", 128, 1, 64, hit_latency=1),
                      track_words=True, observer=rec)
        # Direct-mapped with 2 sets: force an eviction.
        cache.access(0x0, 1, 0, False)
        for i in range(1, 64):
            cache.access(i * 64, 1 + i, 0, False)
            if rec.evicted:
                break
        assert rec.evicted
        line, cycle = rec.evicted[0]
        assert isinstance(line, CacheLine)
        assert cycle >= 1

    def test_drain_reports_all_lines(self):
        rec = _Recorder()
        cache = Cache(CacheConfig("t", 512, 2, 64, hit_latency=1), observer=rec)
        for i in range(4):
            cache.access(i * 64, i + 1, 0, False)
        cache.drain(100)
        assert len(rec.evicted) == 4
        assert not cache.probe(0)


class TestSetIndexHash:
    def test_thread_bases_spread_over_sets(self):
        cache = Cache(CacheConfig("t", 64 * 1024, 4, 64, hit_latency=1))
        sets = {cache._set_index(cache.line_address(tid << 32))
                for tid in range(8)}
        assert len(sets) >= 6  # not all aliasing into one set

    def test_dense_region_spreads(self):
        cache = Cache(CacheConfig("t", 64 * 1024, 4, 64, hit_latency=1))
        sets = {cache._set_index(cache.line_address((1 << 32) + i * 64))
                for i in range(256)}
        assert len(sets) > 128  # sequential lines do not pile up


# -- copy-on-write forks ---------------------------------------------------------
#
# A fork shares every set with its parent until one side writes it.  Each
# case warms a cache, forks it, writes through one side, and requires the
# other side to be untouched — resident lines, LRU order, per-word
# metadata and counters — and the writing side to equal a cache that did
# the same without forking.


def _lines_in_set(cache, index, count):
    """``count`` distinct line-aligned addresses that map to set ``index``."""
    found = []
    addr = 0
    while len(found) < count:
        if cache._set_index(cache.line_address(addr)) == index:
            found.append(addr)
        addr += 64
    return found


def _warm(cache):
    """Fill sets 0 and 1 (clean and dirty lines); returns their addresses."""
    ways = {index: _lines_in_set(cache, index, 3) for index in (0, 1)}
    cycle = 1
    for index, addrs in ways.items():
        for addr in addrs[:2]:
            cache.access(addr + 8, cycle, index, is_write=index == 1)
            cycle += 1
    return ways


def _state(cache):
    """Everything a write could change, per set in LRU order."""
    sets = [[(tag, line.set_index, line.thread_id, line.fill_cycle,
              line.last_access_cycle, tuple(line.word_last_read),
              tuple(line.word_last_write), tuple(line.word_dirty),
              line.accesses)
             for tag, line in entries.items()]
            for entries in cache._sets]
    return sets, (cache.hits, cache.misses, cache.evictions,
                  cache.writebacks)


_WRITES = {
    # An LRU refresh plus a read touch of set 0's older line.
    "hit": lambda cache, ways: cache.access(ways[0][0], 50, 0, False),
    # A third line in the full set 1 evicts its (dirty) LRU line.
    "miss_and_eviction": lambda cache, ways: cache.access(
        ways[1][2], 50, 1, False),
    # A write hit dirties a clean word of set 0.
    "dirty_write": lambda cache, ways: cache.access(ways[0][1] + 16, 50, 0,
                                                    True),
    "drain": lambda cache, ways: cache.drain(60),
}


class TestCopyOnWriteFork:
    @pytest.mark.parametrize("writer", ["parent", "fork"])
    @pytest.mark.parametrize("write", sorted(_WRITES))
    def test_a_write_leaves_the_other_side_alone(self, write, writer):
        config = CacheConfig("test", 512, 2, 64, hit_latency=1)
        parent = Cache(config, track_words=True, observer=_Recorder())
        ways = _warm(parent)
        before = _state(parent)
        fork = parent.fork(_Recorder())
        sides = {"parent": parent, "fork": fork}
        other = sides["fork" if writer == "parent" else "parent"]

        _WRITES[write](sides[writer], ways)
        assert _state(other) == before

        reference = Cache(config, track_words=True, observer=_Recorder())
        _warm(reference)
        _WRITES[write](reference, ways)
        assert _state(sides[writer]) == _state(reference)
        assert _state(sides[writer]) != before

    def test_reads_share_the_set(self, small_cache):
        ways = _warm(small_cache)
        fork = small_cache.fork()
        assert fork.probe(ways[0][0])
        assert list(fork.resident_lines()) == list(
            small_cache.resident_lines())
        assert fork._sets[0] is small_cache._sets[0]
        fork.access(ways[0][0], 50, 0, False)
        assert fork._sets[0] is not small_cache._sets[0]
        assert fork._sets[1] is small_cache._sets[1]
