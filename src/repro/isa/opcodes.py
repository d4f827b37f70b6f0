"""Operation classes and functional-unit mapping for the synthetic ISA."""

from __future__ import annotations

from enum import Enum, auto


class OpClass(Enum):
    """Dynamic operation classes recognised by the pipeline.

    Every member carries its static op facts as plain attributes, set once
    below: ``is_memory``, ``is_load``, ``is_store``, ``is_control``,
    ``bypasses_iq`` (completes at dispatch, never enters the IQ) and
    ``fu`` (its :class:`FUType` pool).  The cycle loop reads them for
    every instruction, so each costs one attribute load, not a hash.
    """

    is_memory: bool
    is_load: bool
    is_store: bool
    is_control: bool
    bypasses_iq: bool
    fu: "FUType"

    IALU = auto()      # integer add/sub/logic/shift/compare
    IMUL = auto()      # integer multiply
    IDIV = auto()      # integer divide
    FALU = auto()      # floating-point add/sub/convert/compare
    FMUL = auto()      # floating-point multiply
    FDIV = auto()      # floating-point divide / sqrt
    LOAD = auto()
    STORE = auto()
    BRANCH = auto()    # conditional branch
    JUMP = auto()      # unconditional direct jump
    CALL = auto()      # subroutine call (pushes return address)
    RET = auto()       # subroutine return (pops return address)
    NOP = auto()
    PREFETCH = auto()  # performance hint: never architecturally required

    # Identity hashing, consistent with Enum's identity equality: a dict
    # keyed by members hashes in C instead of calling Enum.__hash__.
    __hash__ = object.__hash__


class FUType(Enum):
    """Functional unit pools of Table 1."""

    INT_ALU = auto()
    INT_MULDIV = auto()
    FP_ALU = auto()
    FP_MULDIV = auto()
    LOAD_STORE = auto()

    __hash__ = object.__hash__


_FU_FOR_OP = {
    OpClass.IALU: FUType.INT_ALU,
    OpClass.IMUL: FUType.INT_MULDIV,
    OpClass.IDIV: FUType.INT_MULDIV,
    OpClass.FALU: FUType.FP_ALU,
    OpClass.FMUL: FUType.FP_MULDIV,
    OpClass.FDIV: FUType.FP_MULDIV,
    OpClass.LOAD: FUType.LOAD_STORE,
    OpClass.STORE: FUType.LOAD_STORE,
    OpClass.PREFETCH: FUType.LOAD_STORE,
    OpClass.BRANCH: FUType.INT_ALU,
    OpClass.JUMP: FUType.INT_ALU,
    OpClass.CALL: FUType.INT_ALU,
    OpClass.RET: FUType.INT_ALU,
    OpClass.NOP: FUType.INT_ALU,
}

_MEMORY_OPS = frozenset({OpClass.LOAD, OpClass.STORE, OpClass.PREFETCH})
_CONTROL_OPS = frozenset({OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET})
_FP_OPS = frozenset({OpClass.FALU, OpClass.FMUL, OpClass.FDIV})

for _op in OpClass:
    _op.is_memory = _op in _MEMORY_OPS
    _op.is_load = _op is OpClass.LOAD
    _op.is_store = _op is OpClass.STORE
    _op.is_control = _op in _CONTROL_OPS
    _op.bypasses_iq = _op is OpClass.NOP
    _op.fu = _FU_FOR_OP[_op]
del _op


def is_fp_op(op: OpClass) -> bool:
    """True for operations whose destination lives in the FP register file."""
    return op in _FP_OPS


def execution_latency(op: OpClass, config) -> int:
    """Execution latency in cycles for ``op`` under ``config``.

    Memory operations return the address-generation latency only; cache
    access time is added by the memory hierarchy.
    """
    from repro.isa.opcodes import OpClass as O  # local alias for the table below

    table = {
        O.IALU: config.int_alu_latency,
        O.IMUL: config.int_mult_latency,
        O.IDIV: config.int_div_latency,
        O.FALU: config.fp_alu_latency,
        O.FMUL: config.fp_mult_latency,
        O.FDIV: config.fp_div_latency,
        O.LOAD: config.agen_latency,
        O.STORE: config.agen_latency,
        O.PREFETCH: config.agen_latency,
        O.BRANCH: config.int_alu_latency,
        O.JUMP: config.int_alu_latency,
        O.CALL: config.int_alu_latency,
        O.RET: config.int_alu_latency,
        O.NOP: 1,
    }
    return table[op]
