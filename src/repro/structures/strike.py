"""Bit-level strike primitives shared by the injectable structures.

Live fault injection (:mod:`repro.faultinject.live`) flips one bit of one
entry of one structure mid-run.  Each structure exposes an ``inject_bit``
mutation hook; this module holds what those hooks share:

* the per-entry *field layout* mapping a sampled bit index to a semantic
  field (a payload bit, a scheduler wakeup bit, a completion-status bit,
  an address bit), kept width-for-width equal to the entry widths the ACE
  ledger aggregates with (:mod:`repro.avf.bits` — a test asserts the sums
  match, since this layer must not import ``repro.avf``);
* :func:`payload_token` — the nonzero 64-bit taint constant a payload flip
  XORs into the victim's ``value_tag``, unique per (structure, bit) so
  independent strikes can never cancel;
* :class:`StrikeReceipt` — the undo record a hook returns, so a campaign
  can take a strike back and keep its driver the fault-free run.

The simulator carries no data values (it is trace-driven), so a payload
flip is modelled as *taint*: the token propagates through register reads,
store-to-load forwarding and memory exactly like a corrupted value would,
and the architectural digest at commit decides whether it ever reached
architecturally required state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from repro.errors import ConfigError, StructureError
from repro.instrument.structures import Structure

_M64 = (1 << 64) - 1

#: Field layout per injectable structure: ordered (field, width) pairs.
#: Widths sum to the ledger's per-entry bit counts (repro.avf.bits); the
#: non-payload minority models control state whose corruption perturbs
#: scheduling (wakeup/status bits) rather than data — the bits that turn
#: into hangs instead of SDC.
ENTRY_LAYOUT: Dict[Structure, Tuple[Tuple[str, int], ...]] = {
    Structure.IQ: (("value", 60), ("sched", 4)),
    Structure.ROB: (("value", 66), ("status", 6)),
    Structure.LSQ_TAG: (("addr", 44), ("meta", 8)),
    Structure.LSQ_DATA: (("value", 64),),
    Structure.REG: (("value", 64),),
    Structure.FU: (("value", 208),),
}


def entry_bits(structure: Structure) -> int:
    """Bits per entry of ``structure`` (the strike sampler's bit range)."""
    layout = ENTRY_LAYOUT.get(structure)
    if layout is None:
        raise StructureError(f"no strike layout for {structure}")
    return sum(width for _field, width in layout)


def locate_field(structure: Structure, bit: int) -> Tuple[str, int]:
    """Map a bit index to its (field name, offset within the field)."""
    remaining = bit
    for field, width in ENTRY_LAYOUT[structure]:
        if remaining < width:
            return field, remaining
        remaining -= width
    raise StructureError(
        f"bit {bit} outside {structure.value} entry "
        f"({entry_bits(structure)} bits)")


#: Physical upper bound of the clustered-MBU model: neutron-beam data says
#: adjacent-bit bursts beyond 3 bits are rare enough to ignore at this
#: modelling fidelity, and the protection lattice's strongest code
#: (DEC-BCH) is specified against exactly this cap.
MAX_CLUSTER_LEN = 3

#: Default cluster-length mix when MBU mode is on: mostly single-bit with
#: a heavy-ion style tail, the shape of the related repo's beam fits.
DEFAULT_MBU_WEIGHTS: Tuple[float, ...] = (0.7, 0.2, 0.1)


def burst_bits(structure: Structure, bit: int,
               length: int) -> Tuple[int, ...]:
    """The adjacent ascending bits struck by a length-``length`` burst
    starting at ``bit``, clipped at the containing field's boundary.

    Fields are physically distinct storage (a scheduler wakeup bit does
    not abut the value payload in the array), so a burst never crosses a
    field boundary — which also guarantees it never crosses an entry
    boundary.  The *effective* cluster length near a boundary is shorter
    than the sampled one; protection resolution uses the effective value.
    """
    if length < 1:
        raise ConfigError(f"cluster length must be >= 1, got {length}")
    field, offset = locate_field(structure, bit)
    for name, width in ENTRY_LAYOUT[structure]:
        if name == field:
            room = width - offset
            break
    else:  # pragma: no cover - locate_field already validated the bit
        raise StructureError(f"field {field} missing from layout")
    return tuple(range(bit, bit + min(length, room)))


@dataclass(frozen=True)
class MbuConfig:
    """Cluster-length distribution for multi-bit upset sampling.

    ``max_len=1`` (the default) is the exact pre-MBU single-bit model:
    the strike sampler draws no extra randomness, keeping default-path
    records byte-identical to the historical goldens.  With
    ``max_len>1``, each strike draws a cluster length from ``weights``
    (normalised over lengths ``1..max_len``) *after* its cycle/slot/bit
    draws, on the same per-strike ``SeedSequence`` substream — so MBU
    campaigns stay byte-identical at any worker count too.
    """

    max_len: int = 1
    weights: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.max_len <= MAX_CLUSTER_LEN:
            raise ConfigError(
                f"MBU cluster length must be 1..{MAX_CLUSTER_LEN}, "
                f"got {self.max_len}")
        weights = tuple(float(w) for w in self.weights) \
            or DEFAULT_MBU_WEIGHTS[:self.max_len]
        if len(weights) != self.max_len:
            raise ConfigError(
                f"MBU needs {self.max_len} length weights, "
                f"got {len(weights)}")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigError("MBU length weights must be non-negative "
                              "and sum to a positive value")
        total = sum(weights)
        object.__setattr__(
            self, "weights", tuple(w / total for w in weights))

    @property
    def enabled(self) -> bool:
        return self.max_len > 1

    def length_probs(self) -> Dict[int, float]:
        return {i + 1: w for i, w in enumerate(self.weights)}

    def sample_length(self, rng) -> int:
        """Draw one cluster length (1-based) from ``weights`` using a
        single uniform variate from ``rng`` (numpy ``Generator``)."""
        u = float(rng.random())
        acc = 0.0
        for i, w in enumerate(self.weights):
            acc += w
            if u < acc:
                return i + 1
        return self.max_len

    def to_payload(self) -> Dict[str, object]:
        return {"max_len": self.max_len, "weights": list(self.weights)}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "MbuConfig":
        return cls(max_len=int(payload.get("max_len", 1)),
                   weights=tuple(payload.get("weights", ())))


def effective_length_distribution(structure: Structure,
                                  mbu: MbuConfig) -> Dict[int, float]:
    """Cluster-length mix *after* field-boundary clipping, for a start
    bit uniform over the entry.

    This is what the analytic frontier must integrate over to agree with
    live MBU campaigns: e.g. on the IQ (60-bit value + 4-bit sched
    fields) 2 of 64 start bits clip a sampled 3-burst to 2 and another 2
    clip any multi-bit burst to 1, so the effective mix is strictly
    shorter-tailed than the sampled one.
    """
    bits = entry_bits(structure)
    probs: Dict[int, float] = {}
    for sampled, weight in mbu.length_probs().items():
        if weight == 0.0:
            continue
        for bit in range(bits):
            effective = len(burst_bits(structure, bit, sampled))
            probs[effective] = probs.get(effective, 0.0) \
                + weight / bits
    return probs


def payload_token(structure: Structure, bit: int) -> int:
    """Deterministic nonzero 64-bit taint token for one (structure, bit).

    splitmix64 finalizer over a structure/bit seed: well-spread, cheap,
    and forced odd so no token is ever zero (a zero token would make the
    flip invisible to the digest).
    """
    seed = (_STRUCT_ID[structure] << 16) | (bit & 0xFFFF)
    z = (seed + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return ((z ^ (z >> 31)) | 1) & _M64


_STRUCT_ID = {s: i for i, s in enumerate(ENTRY_LAYOUT)}


def cluster_token(structure: Structure, bits: Tuple[int, ...]) -> int:
    """Combined taint token of an adjacent-bit burst: the XOR of the
    per-bit tokens, with a nonzero fallback should the XOR ever cancel
    (astronomically unlikely, but a zero token would make the whole
    burst invisible to the architectural digest)."""
    token = 0
    for bit in bits:
        token ^= payload_token(structure, bit)
    return token or payload_token(structure, bits[0])


#: Attributes that hold only taint: an instruction's ``value_tag`` and a
#: physical register's ``tag``.  No pipeline stage reads either to make a
#: decision — taint only flows — so a strike that wrote nothing else
#: leaves the run cycle-for-cycle the fault-free one.
TAINT_ATTRS = frozenset({"value_tag", "tag"})


class StrikeReceipt:
    """What one ``inject_bit`` call did, and how to take it back.

    ``applied`` is False when the struck slot held nothing (the strike is
    masked by idleness before the run even continues).  ``undo()``
    restores every recorded attribute in reverse order, so a strike that
    protection resolves, that is replayed, or that runs on a fork leaves
    the struck core as it was.

    ``taint_only`` is True while every recorded attribute is one of
    :data:`TAINT_ATTRS`; a strike that also wrote a scheduling, status or
    address field (``pending_srcs``, ``completed_at``, ``mem_addr``) is
    *structural*.  It keeps its value after ``undo()``.

    ``victim`` names what the strike tainted: an in-flight instance
    ``(thread, fetch_stamp)`` or a physical register number; None when it
    tainted nothing.
    """

    __slots__ = ("applied", "target", "field", "taint_only", "victim",
                 "_undo")

    def __init__(self, applied: bool, target: str, field: str = "") -> None:
        self.applied = applied
        self.target = target
        self.field = field
        self.taint_only = True
        self.victim: Union[Tuple[int, int], int, None] = None
        self._undo: List[Tuple[object, str, object]] = []

    @classmethod
    def idle(cls, target: str) -> "StrikeReceipt":
        return cls(applied=False, target=target)

    def record(self, obj: object, attr: str) -> None:
        """Snapshot ``obj.attr`` for undo; call before mutating it."""
        self._undo.append((obj, attr, getattr(obj, attr)))
        if attr not in TAINT_ATTRS:
            self.taint_only = False

    def taint(self, instr, token: int) -> None:
        """XOR ``token`` into ``instr.value_tag`` (recorded for undo) and
        name that instance the victim."""
        self.record(instr, "value_tag")
        instr.value_tag ^= token
        self.victim = (instr.thread_id, instr.fetch_stamp)

    def undo(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.field or "idle"
        return f"StrikeReceipt({self.target}, {state})"
