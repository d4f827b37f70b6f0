"""ROB, shared IQ, LSQ and FU pool unit tests."""

import pytest

from repro.avf.engine import AvfEngine
from repro.avf.structures import Structure
from repro.config import MachineConfig
from repro.errors import StructureError
from repro.isa.instruction import DynInstr
from repro.isa.opcodes import FUType, OpClass, execution_latency
from repro.structures.functional_units import FunctionalUnitPool
from repro.structures.issue_queue import SharedIssueQueue
from repro.structures.lsq import LoadStoreQueue
from repro.structures.rob import ReorderBuffer


@pytest.fixture
def engine():
    return AvfEngine(MachineConfig(), num_threads=2)


def _instr(thread=0, seq=0, op=OpClass.IALU, stamp=None, addr=0):
    i = DynInstr(thread, seq, 0x100 + 4 * seq, op, src_regs=(1,), dest_reg=2,
                 mem_addr=addr)
    i.fetch_stamp = seq if stamp is None else stamp
    i.renamed_at = 1
    return i


class TestRob:
    def test_in_order_commit(self, engine):
        rob = ReorderBuffer(0, 4, engine)
        a, b = _instr(seq=0), _instr(seq=1)
        rob.push(a, 1)
        rob.push(b, 1)
        assert rob.head() is a
        assert rob.pop_head(5) is a
        assert rob.pop_head(6) is b
        assert rob.empty

    def test_overflow_raises(self, engine):
        rob = ReorderBuffer(0, 2, engine)
        rob.push(_instr(seq=0), 1)
        rob.push(_instr(seq=1), 1)
        assert rob.full
        with pytest.raises(StructureError):
            rob.push(_instr(seq=2), 1)

    def test_underflow_raises(self, engine):
        rob = ReorderBuffer(0, 2, engine)
        with pytest.raises(StructureError):
            rob.pop_head(1)

    def test_squash_removes_younger_in_reverse_order(self, engine):
        rob = ReorderBuffer(0, 8, engine)
        instrs = [_instr(seq=k) for k in range(5)]
        for i in instrs:
            rob.push(i, 1)
        squashed = rob.squash_younger_than(boundary_stamp=1, cycle=10)
        assert [s.seq for s in squashed] == [4, 3, 2]
        assert all(s.squashed for s in squashed)
        assert len(rob) == 2

    def test_commit_accrues_ace_residency(self, engine):
        rob = ReorderBuffer(0, 4, engine)
        i = _instr(seq=0)
        i.renamed_at = 10
        rob.push(i, 10)
        rob.pop_head(30)
        acct = engine.account(Structure.ROB, 0)
        assert acct.ace_cycles[0] == pytest.approx(20.0)

    def test_squash_accrues_unace(self, engine):
        rob = ReorderBuffer(0, 4, engine)
        i = _instr(seq=0)
        i.renamed_at = 10
        rob.push(i, 10)
        rob.squash_younger_than(-1, 30)
        acct = engine.account(Structure.ROB, 0)
        assert acct.ace_cycles.get(0, 0.0) == 0.0
        assert acct.unace_cycles[0] == pytest.approx(20.0)


class TestIssueQueue:
    def test_per_thread_counts(self, engine):
        iq = SharedIssueQueue(8, engine)
        iq.add(_instr(thread=0, seq=0), 1)
        iq.add(_instr(thread=1, seq=0), 1)
        iq.add(_instr(thread=1, seq=1), 1)
        assert iq.thread_count(0) == 1
        assert iq.thread_count(1) == 2

    def test_overflow_raises(self, engine):
        iq = SharedIssueQueue(1, engine)
        iq.add(_instr(seq=0), 1)
        with pytest.raises(StructureError):
            iq.add(_instr(seq=1), 1)

    def test_oldest_first_selection(self, engine):
        iq = SharedIssueQueue(8, engine)
        a, b, c = _instr(seq=0), _instr(thread=1, seq=0), _instr(seq=1)
        for i in (a, b, c):
            iq.add(i, 1)
        chosen = iq.select_ready(lambda i: True, limit=2)
        assert chosen == [a, b]

    def test_selection_respects_readiness(self, engine):
        iq = SharedIssueQueue(8, engine)
        a, b = _instr(seq=0), _instr(seq=1)
        iq.add(a, 1)
        iq.add(b, 1)
        chosen = iq.select_ready(lambda i: i is b, limit=8)
        assert chosen == [b]

    def test_squash_only_hits_one_thread(self, engine):
        iq = SharedIssueQueue(8, engine)
        mine = _instr(thread=0, seq=5, stamp=5)
        other = _instr(thread=1, seq=9, stamp=9)
        iq.add(mine, 1)
        iq.add(other, 1)
        n = iq.squash_thread(0, boundary_stamp=1, cycle=10)
        assert n == 1
        assert iq.thread_count(0) == 0
        assert iq.thread_count(1) == 1

    def test_issue_accrues_residency(self, engine):
        iq = SharedIssueQueue(8, engine)
        i = _instr(seq=0)
        i.renamed_at = 5
        iq.add(i, 5)
        iq.remove_issued(i, 25)
        acct = engine.account(Structure.IQ)
        assert acct.ace_cycles[0] == pytest.approx(20.0)


class TestLsq:
    def test_forwarding_finds_youngest_older_store(self, engine):
        lsq = LoadStoreQueue(0, 8, engine)
        s1 = _instr(seq=0, op=OpClass.STORE, addr=0x100)
        s2 = _instr(seq=1, op=OpClass.STORE, addr=0x100)
        other = _instr(seq=2, op=OpClass.STORE, addr=0x200)
        load = _instr(seq=3, op=OpClass.LOAD, addr=0x100)
        for i in (s1, s2, other, load):
            lsq.add(i, 1)
        assert lsq.forwarding_store(load) is s2

    def test_no_forwarding_from_younger_store(self, engine):
        lsq = LoadStoreQueue(0, 8, engine)
        load = _instr(seq=0, op=OpClass.LOAD, addr=0x100)
        store = _instr(seq=1, op=OpClass.STORE, addr=0x100)
        lsq.add(load, 1)
        lsq.add(store, 1)
        assert lsq.forwarding_store(load) is None

    def test_forwarding_word_granularity(self, engine):
        lsq = LoadStoreQueue(0, 8, engine)
        store = _instr(seq=0, op=OpClass.STORE, addr=0x100)
        load_same_word = _instr(seq=1, op=OpClass.LOAD, addr=0x104)
        load_other_word = _instr(seq=2, op=OpClass.LOAD, addr=0x108)
        lsq.add(store, 1)
        assert lsq.forwarding_store(load_same_word) is store
        assert lsq.forwarding_store(load_other_word) is None

    def test_commit_must_be_in_order(self, engine):
        lsq = LoadStoreQueue(0, 8, engine)
        a = _instr(seq=0, op=OpClass.LOAD, addr=0x0)
        b = _instr(seq=1, op=OpClass.LOAD, addr=0x8)
        lsq.add(a, 1)
        lsq.add(b, 1)
        with pytest.raises(StructureError):
            lsq.remove_committed(b, 5)
        lsq.remove_committed(a, 5)
        lsq.remove_committed(b, 6)

    def test_squash_from_tail(self, engine):
        lsq = LoadStoreQueue(0, 8, engine)
        instrs = [_instr(seq=k, op=OpClass.LOAD, addr=8 * k) for k in range(4)]
        for i in instrs:
            lsq.add(i, 1)
        squashed = lsq.squash_younger_than(boundary_stamp=1, cycle=5)
        assert [s.seq for s in squashed] == [3, 2]
        assert len(lsq) == 2

    def test_tag_and_data_accrual(self, engine):
        lsq = LoadStoreQueue(0, 8, engine)
        load = _instr(seq=0, op=OpClass.LOAD, addr=0x40)
        load.renamed_at = 10
        load.completed_at = 30
        lsq.add(load, 10)
        lsq.remove_committed(load, 50)
        tag = engine.account(Structure.LSQ_TAG, 0)
        data = engine.account(Structure.LSQ_DATA, 0)
        assert tag.ace_cycles[0] == pytest.approx(40.0)    # [10, 50)
        assert data.ace_cycles[0] == pytest.approx(20.0)   # [30, 50)
        assert data.unace_cycles[0] == pytest.approx(20.0)  # [10, 30)


class TestFuPool:
    def test_capacity_per_type(self, engine):
        pool = FunctionalUnitPool(MachineConfig(), engine)
        assert pool.available(FUType.INT_ALU) == 8
        assert pool.available(FUType.INT_MULDIV) == 4
        assert pool.total_units == 28

    def test_issue_occupies_unit(self, engine):
        pool = FunctionalUnitPool(MachineConfig(), engine)
        i = _instr(op=OpClass.IDIV)
        latency = pool.issue(i, cycle=1)
        assert latency == MachineConfig().int_div_latency
        assert pool.available(FUType.INT_MULDIV) == 3

    def test_latency_table_matches_execution_latency(self, engine):
        config = MachineConfig(int_div_latency=31, fp_alu_latency=5)
        pool = FunctionalUnitPool(config, engine)
        for op in OpClass:
            assert pool.latency_of(op) == execution_latency(op, config), op

    def test_single_cycle_units_release_after_tick(self, engine):
        pool = FunctionalUnitPool(MachineConfig(), engine)
        pool.issue(_instr(op=OpClass.IALU), cycle=1)
        pool.tick(1)
        assert pool.available(FUType.INT_ALU) == 8

    def test_multi_cycle_units_stay_busy(self, engine):
        pool = FunctionalUnitPool(MachineConfig(), engine)
        pool.issue(_instr(op=OpClass.IDIV), cycle=1)
        pool.tick(1)
        assert pool.available(FUType.INT_MULDIV) == 3

    def test_tick_accrues_avf(self, engine):
        pool = FunctionalUnitPool(MachineConfig(), engine)
        pool.issue(_instr(op=OpClass.IALU), cycle=1)
        pool.tick(1)
        acct = engine.account(Structure.FU)
        assert acct.ace_cycles[0] == pytest.approx(1.0)

    def test_wrong_path_accrues_unace(self, engine):
        pool = FunctionalUnitPool(MachineConfig(), engine)
        i = _instr(op=OpClass.IALU)
        i.wrong_path = True
        pool.issue(i, cycle=1)
        pool.tick(1)
        acct = engine.account(Structure.FU)
        assert acct.ace_cycles.get(0, 0.0) == 0.0
        assert acct.unace_cycles[0] == pytest.approx(1.0)
