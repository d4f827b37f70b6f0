"""Protection planning: acting on the vulnerability profile.

The paper's Section 5 draws the design consequence of its measurements:
"To avoid vulnerability hotspots in their designs, architects need to
first focus on protecting shared SMT microarchitecture structures from
soft error strikes."  This package turns that advice into a tool: given an
AVF report and a raw error rate, choose per-structure protection schemes
(parity, SECDED, DEC-BCH, with an optional scrubbing cadence) so the
residual silent-corruption rate is minimised — greedily under an area
budget (:mod:`~repro.protection.planner`), or exhaustively as the Pareto
frontier of residual FIT vs area+energy cost over the full per-structure
scheme lattice (:mod:`~repro.protection.frontier`).  Outcome resolution is
multi-bit-upset aware throughout: SECDED corrects 1 / detects 2 / misses
3, parity detects odd clusters only.
"""

from repro.protection.config import (
    ProtectionConfig,
    STRUCTURE_NAMES,
    parse_structure,
)
from repro.protection.frontier import (
    ALL_SCHEMES,
    FrontierPoint,
    ProtectionFrontier,
    protection_frontier,
)
from repro.protection.planner import (
    ProtectedEstimate,
    ProtectionPlan,
    apply_protection,
    plan_protection,
)
from repro.protection.schemes import (
    ProtectionScheme,
    SCHEME_NAMES,
    SCHEME_PROPERTIES,
    added_bits,
    check_bits,
    detected_outcome,
    energy_cost,
    entry_width,
    outcome_fractions,
    parse_scheme,
)

__all__ = [
    "ProtectionScheme",
    "SCHEME_PROPERTIES",
    "SCHEME_NAMES",
    "STRUCTURE_NAMES",
    "ALL_SCHEMES",
    "ProtectionConfig",
    "detected_outcome",
    "outcome_fractions",
    "parse_scheme",
    "parse_structure",
    "check_bits",
    "entry_width",
    "added_bits",
    "energy_cost",
    "ProtectionPlan",
    "ProtectedEstimate",
    "apply_protection",
    "plan_protection",
    "FrontierPoint",
    "ProtectionFrontier",
    "protection_frontier",
]
