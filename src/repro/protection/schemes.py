"""Protection schemes: outcome resolution and cost math per scheme.

The soft-error literature's standard menu, extended beyond the single-bit
first-order model to clustered multi-bit upsets (adjacent-bit bursts of
length 1-3, the dominant MBU mode in neutron beam data):

* **NONE** — strikes on ACE bits escape as silent data corruption (SDC).
* **PARITY** — detects *odd* clusters (a single check bit XORs over the
  word, so an even number of flips cancels): length-1 and length-3
  bursts become DUE (detected unrecoverable error), length-2 bursts
  escape undetected.  Cheap: one bit per protected word.
* **SECDED** — the classic Hamming+parity code: corrects 1 flipped bit,
  detects (but cannot correct) 2, and misses or miscorrects 3+ — which
  the model treats as an escape, the conservative reading.  ``"ecc"``
  is accepted as an alias (the pre-MBU model's name for this scheme).
* **DEC_BCH** — a double-error-correcting BCH code with an extra overall
  parity bit: corrects clusters up to 2, detects 3.  Within the burst
  model's length cap nothing escapes, which is why its check-bit and
  decode-energy costs are the lattice's price ceiling.

Costs are derived from each structure's *actual* entry width (the
``ENTRY_LAYOUT`` table in :mod:`repro.structures.strike` — an FU latch
word is 208 bits, an LSQ tag entry 52), not from an assumed 64-bit word:
``check_bits`` computes the standard code-size formulas per word, and
:func:`added_bits` scales them by the structure's entry count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError


class ProtectionScheme(Enum):
    NONE = "none"
    PARITY = "parity"
    SECDED = "secded"
    DEC_BCH = "dec-bch"


#: Accepted spellings per scheme (CLI, service specs, config strings).
#: ``ecc`` predates the MBU model, when single-bit SECDED was the only
#: correcting code; it keeps parsing as SECDED so old specs stay valid.
SCHEME_ALIASES: Dict[str, ProtectionScheme] = {
    **{s.value: s for s in ProtectionScheme},
    "ecc": ProtectionScheme.SECDED,
    "dec": ProtectionScheme.DEC_BCH,
    "bch": ProtectionScheme.DEC_BCH,
}

#: The canonical spellings, for error messages naming the valid set.
SCHEME_NAMES: Tuple[str, ...] = tuple(s.value for s in ProtectionScheme)


def parse_scheme(raw: object) -> ProtectionScheme:
    """Resolve one scheme name (any accepted alias, case-insensitive)."""
    if isinstance(raw, ProtectionScheme):
        return raw
    scheme = SCHEME_ALIASES.get(str(raw).strip().lower())
    if scheme is None:
        raise ConfigError(
            f"unknown protection scheme {raw!r}; "
            f"known: {', '.join(SCHEME_NAMES)} (plus alias 'ecc')")
    return scheme


@dataclass(frozen=True)
class SchemeProperties:
    """Correction/detection reach and cost factors of one scheme."""

    corrects_up_to: int
    """Largest cluster length repaired in place."""

    detects_up_to: int
    """Largest cluster length detected (fail-stop) beyond correction."""

    odd_detection_only: bool
    """Parity-style detection: even clusters cancel in the check bit."""

    energy_factor: float
    """Relative dynamic-energy overhead of encode+check per access —
    a planning proxy (parity is a XOR tree, SECDED a syndrome decode,
    DEC-BCH an iterative decoder), not a circuit measurement."""


SCHEME_PROPERTIES: Dict[ProtectionScheme, SchemeProperties] = {
    ProtectionScheme.NONE: SchemeProperties(
        corrects_up_to=0, detects_up_to=0, odd_detection_only=False,
        energy_factor=0.0),
    ProtectionScheme.PARITY: SchemeProperties(
        corrects_up_to=0, detects_up_to=0, odd_detection_only=True,
        energy_factor=0.05),
    ProtectionScheme.SECDED: SchemeProperties(
        corrects_up_to=1, detects_up_to=2, odd_detection_only=False,
        energy_factor=0.25),
    ProtectionScheme.DEC_BCH: SchemeProperties(
        corrects_up_to=2, detects_up_to=3, odd_detection_only=False,
        energy_factor=0.65),
}


def detected_outcome(scheme: ProtectionScheme,
                     cluster_len: int = 1) -> Optional[str]:
    """How a strike of ``cluster_len`` adjacent flips resolves under
    ``scheme`` when it lands on an *occupied*, protected entry.

    ``"corrected"`` — the code repairs the flips in place; ``"due"`` —
    detected before consumption and the machine fail-stops
    (conservatively even for un-ACE state, the standard parity model);
    ``None`` — the code misses (or the entry is unprotected) and the
    strike plays out, leaving the architectural digest to decide.  Idle
    slots are masked under every scheme: there is nothing to detect.
    """
    if cluster_len < 1:
        raise ConfigError(f"cluster length must be >= 1, got {cluster_len}")
    props = SCHEME_PROPERTIES[scheme]
    if props.odd_detection_only:
        return "due" if cluster_len % 2 == 1 else None
    if cluster_len <= props.corrects_up_to:
        return "corrected"
    if cluster_len <= props.detects_up_to:
        return "due"
    return None


def outcome_fractions(scheme: ProtectionScheme,
                      length_probs: Mapping[int, float] = None,
                      ) -> Tuple[float, float, float]:
    """(escape, due, corrected) fractions under a cluster-length mix.

    ``length_probs`` maps cluster length -> probability (default: all
    strikes single-bit, the pre-MBU model).  The escape fraction is what
    multiplies a structure's raw FIT into residual SDC; the due fraction
    into detected-error FIT.
    """
    if length_probs is None:
        length_probs = {1: 1.0}
    escape = due = corrected = 0.0
    for length, prob in length_probs.items():
        resolution = detected_outcome(scheme, length)
        if resolution is None:
            escape += prob
        elif resolution == "due":
            due += prob
        else:
            corrected += prob
    return escape, due, corrected


# -- cost math ---------------------------------------------------------------------


def _hamming_check_bits(data_bits: int) -> int:
    """Smallest r with 2**r >= data + r + 1 (single-error correction)."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


def _bch_field_degree(data_bits: int) -> int:
    """Smallest m with a length-(2**m - 1) BCH codeword fitting the data
    plus its 2m check bits (t=2 correction)."""
    m = 2
    while (1 << m) - 1 < data_bits + 2 * m:
        m += 1
    return m


def check_bits(scheme: ProtectionScheme, word_bits: int) -> int:
    """Check bits the scheme adds to one ``word_bits``-wide word.

    Parity: 1.  SECDED: Hamming distance-3 check bits plus the overall
    parity bit (the familiar 8 for a 64-bit word, but 7 for a 52-bit LSQ
    tag and 9 for a 208-bit FU latch word).  DEC-BCH: 2m bits for t=2
    correction over GF(2^m) plus an overall parity bit for triple
    detection.
    """
    if word_bits < 1:
        raise ConfigError(f"word width must be >= 1, got {word_bits}")
    if scheme is ProtectionScheme.NONE:
        return 0
    if scheme is ProtectionScheme.PARITY:
        return 1
    if scheme is ProtectionScheme.SECDED:
        return _hamming_check_bits(word_bits) + 1
    return 2 * _bch_field_degree(word_bits) + 1


def entry_width(structure) -> int:
    """The protected word width of one entry of ``structure``.

    The strike layer's ``ENTRY_LAYOUT`` is the authority for every
    injectable pipeline structure; cache/TLB structures the strike model
    does not cover fall back to the conventional 64-bit word.
    """
    from repro.structures.strike import ENTRY_LAYOUT

    layout = ENTRY_LAYOUT.get(structure)
    if layout is None:
        return 64
    return sum(width for _field, width in layout)


def added_bits(scheme: ProtectionScheme, structure, total_bits: float) -> float:
    """Extra storage bits protecting all ``total_bits`` of ``structure``.

    ``total_bits / entry_width`` entries, each paying ``check_bits`` for
    its own word width — the per-structure cost the 64-bit-word
    approximation used to flatten (parity on the 208-bit FU word costs
    1/208 per bit, not 1/64).
    """
    width = entry_width(structure)
    return check_bits(scheme, width) * (total_bits / width)


def energy_cost(scheme: ProtectionScheme, total_bits: float,
                scrub_interval_cycles: Optional[int] = None) -> float:
    """Dynamic-energy proxy of protecting ``total_bits`` with ``scheme``.

    ``energy_factor x bits`` models encode/check energy scaling with the
    protected footprint; a scrubbing cadence adds its amortised
    read-correct-writeback traffic (``bits / interval`` per cycle).
    Units are arbitrary-but-consistent, which is all a Pareto frontier
    needs.
    """
    props = SCHEME_PROPERTIES[scheme]
    cost = props.energy_factor * total_bits
    if scrub_interval_cycles and scheme is not ProtectionScheme.NONE:
        cost += total_bits / scrub_interval_cycles
    return cost
