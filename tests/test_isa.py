"""Synthetic ISA: op classes, FU mapping, instruction records."""

import pytest

from repro.config import MachineConfig
from repro.isa.instruction import AceClass, DynInstr, classify_generated
from repro.isa.opcodes import (
    FUType,
    OpClass,
    execution_latency,
    is_fp_op,
)


class TestOpClassification:
    def test_every_op_maps_to_a_fu(self):
        for op in OpClass:
            assert op.fu in FUType

    def test_memory_ops(self):
        assert OpClass.LOAD.is_memory
        assert OpClass.STORE.is_memory
        assert OpClass.PREFETCH.is_memory
        assert not OpClass.IALU.is_memory
        assert not OpClass.BRANCH.is_memory

    def test_control_ops(self):
        for op in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET):
            assert op.is_control
        assert not OpClass.LOAD.is_control

    def test_fp_ops(self):
        for op in (OpClass.FALU, OpClass.FMUL, OpClass.FDIV):
            assert is_fp_op(op)
        assert not is_fp_op(OpClass.IALU)
        assert not is_fp_op(OpClass.LOAD)

    def test_muldiv_uses_dedicated_units(self):
        assert OpClass.IMUL.fu is FUType.INT_MULDIV
        assert OpClass.FDIV.fu is FUType.FP_MULDIV

    def test_memory_ops_use_load_store_units(self):
        assert OpClass.LOAD.fu is FUType.LOAD_STORE
        assert OpClass.STORE.fu is FUType.LOAD_STORE


class TestLatencies:
    def test_alu_single_cycle(self, config):
        assert execution_latency(OpClass.IALU, config) == 1

    def test_divide_slowest_integer_op(self, config):
        latencies = [execution_latency(op, config)
                     for op in (OpClass.IALU, OpClass.IMUL, OpClass.IDIV)]
        assert latencies == sorted(latencies)
        assert latencies[-1] > latencies[0]

    def test_memory_ops_return_agen_latency(self, config):
        assert execution_latency(OpClass.LOAD, config) == config.agen_latency
        assert execution_latency(OpClass.STORE, config) == config.agen_latency

    def test_all_latencies_positive(self, config):
        for op in OpClass:
            assert execution_latency(op, config) >= 1


class TestDynInstr:
    def test_defaults(self):
        i = DynInstr(0, 0, 0x1000, OpClass.IALU, src_regs=(1, 2), dest_reg=3)
        assert i.is_ace
        assert not i.is_memory
        assert not i.is_control
        assert i.completed_at == -1
        assert i.phys_dest is None

    def test_wrong_path_never_ace(self):
        i = DynInstr(0, -1, 0x0, OpClass.IALU, ace=AceClass.WRONG_PATH,
                     wrong_path=True)
        assert not i.is_ace

    def test_squash_revokes_ace(self):
        i = DynInstr(0, 0, 0x0, OpClass.IALU)
        assert i.is_ace
        i.squashed = True
        assert not i.is_ace

    def test_load_store_predicates(self):
        load = DynInstr(0, 0, 0, OpClass.LOAD, mem_addr=64)
        store = DynInstr(0, 1, 0, OpClass.STORE, mem_addr=64)
        assert load.is_load and load.is_memory and not load.is_store
        assert store.is_store and store.is_memory and not store.is_load

    def test_slots_forbid_new_attributes(self):
        i = DynInstr(0, 0, 0, OpClass.NOP)
        with pytest.raises(AttributeError):
            i.unknown_field = 1


class TestClassifyGenerated:
    def test_nop(self):
        assert classify_generated(OpClass.NOP, False) is AceClass.NOP

    def test_prefetch(self):
        assert classify_generated(OpClass.PREFETCH, False) is AceClass.PREFETCH

    def test_dead(self):
        assert classify_generated(OpClass.IALU, True) is AceClass.DYN_DEAD

    def test_live_compute_is_ace(self):
        assert classify_generated(OpClass.FMUL, False) is AceClass.ACE

    def test_ace_property(self):
        assert AceClass.ACE.is_ace
        for c in (AceClass.NOP, AceClass.PREFETCH, AceClass.DYN_DEAD,
                  AceClass.WRONG_PATH):
            assert not c.is_ace
