"""Campaign specs: the service's schema-validated request contract.

A campaign spec is a plain JSON object a client POSTs to
``/campaigns``.  Two kinds exist, mirroring the two campaign
substrates the framework runs:

``live``
    Live bit-flip injection (:func:`repro.faultinject.run_live_campaign`):
    strikes per structure, protection scheme, watchdog batching.
``reproduce``
    Paper artefacts (:data:`repro.experiments.reproduce.ARTEFACTS`):
    a job graph of every simulation the named artefacts need.

Validation is two-layered: a structural pass through
:func:`validate_schema` (a deliberately small JSON-schema subset, also
used by the contract tests to check *response* payloads against golden
schemas), then semantic checks against the real registries (workloads,
policies, structures, artefacts).  Every error names the offending
field — a 400 must tell the client what to fix.

Identity: :meth:`CampaignSpec.digest` hashes the *canonical* spec —
every field that can change the campaign's result and nothing that
cannot.  Scheduling fields such as the resilience ``budget`` are
excluded, so two clients asking the same scientific question dedup to
one computation even if they disagree about how to schedule it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.content_store import stable_digest
from repro.errors import ReproError
from repro.workload.mixes import TABLE2_MIXES
from repro.workload.spec2000 import PROFILES

#: Version of the spec layout.  Part of the canonical digest, so a schema
#: change never dedups against artefacts computed under the old contract.
#: v2: per-structure ``protection`` assignments (string or object form,
#: schemes none/parity/secded/dec-bch with 'ecc' as a secded alias) and
#: the ``mbu_len`` multi-bit-upset cluster cap.
SPEC_SCHEMA_VERSION = 2

SPEC_KINDS = ("live", "reproduce")

#: Hard ceilings: the service is shared, one client must not be able to
#: submit a campaign that monopolises the fleet for hours.
MAX_STRIKES = 1_000_000
MAX_INSTRUCTIONS = 10_000_000

#: Scheduling priority range (higher admits first; FIFO within a level).
MAX_PRIORITY = 9

#: Values of the legacy ``backend`` field, once a cycle-kernel selector.
#: Journals written before its removal carry it, so it is still accepted
#: (stripped, case-insensitive) and then ignored; any other value is a 400.
LEGACY_BACKENDS = ("python", "vector")


class SpecError(ReproError):
    """A campaign spec failed validation (rendered as HTTP 400)."""


# -- minimal structural schema checker ---------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def validate_schema(obj: object, schema: Dict[str, object],
                    path: str = "$") -> List[str]:
    """Check ``obj`` against a small JSON-schema subset; returns errors.

    Supported keywords: ``type`` (one name or a list), ``enum``,
    ``required``, ``properties``, ``additionalProperties`` (boolean),
    ``items``, ``minimum``, ``maximum``, ``minItems``.  This is the same
    checker the contract tests run over golden API-response schemas, so
    request and response validation share one (tested) definition of
    "matches the schema".
    """
    errors: List[str] = []
    type_names = schema.get("type")
    if type_names is not None:
        names = [type_names] if isinstance(type_names, str) else type_names
        expected = tuple(_TYPES[n] for n in names)
        if not isinstance(obj, expected) or (
                isinstance(obj, bool) and "boolean" not in names):
            errors.append(f"{path}: expected {'/'.join(names)}, "
                          f"got {type(obj).__name__}")
            return errors
    if "enum" in schema and obj not in schema["enum"]:
        allowed = ", ".join(repr(v) for v in schema["enum"])
        errors.append(f"{path}: {obj!r} not one of [{allowed}]")
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        if "minimum" in schema and obj < schema["minimum"]:
            errors.append(f"{path}: {obj} below minimum {schema['minimum']}")
        if "maximum" in schema and obj > schema["maximum"]:
            errors.append(f"{path}: {obj} above maximum {schema['maximum']}")
    if isinstance(obj, dict):
        for name in schema.get("required", ()):
            if name not in obj:
                errors.append(f"{path}.{name}: required field missing")
        props = schema.get("properties", {})
        for name, value in obj.items():
            sub = props.get(name)
            if sub is not None:
                errors.extend(validate_schema(value, sub, f"{path}.{name}"))
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}.{name}: unknown field")
    if isinstance(obj, list):
        if "minItems" in schema and len(obj) < schema["minItems"]:
            errors.append(f"{path}: needs at least {schema['minItems']} "
                          f"item(s), got {len(obj)}")
        items = schema.get("items")
        if items is not None:
            for i, value in enumerate(obj):
                errors.extend(validate_schema(value, items, f"{path}[{i}]"))
    return errors


#: The structural contract of a POST /campaigns body.
SPEC_SCHEMA: Dict[str, object] = {
    "type": "object",
    "required": ["kind"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": list(SPEC_KINDS)},
        "workload": {"type": ["string", "array"],
                     "items": {"type": "string"}, "minItems": 1},
        "policy": {"type": "string"},
        "instructions": {"type": "integer", "minimum": 1,
                         "maximum": MAX_INSTRUCTIONS},
        "seed": {"type": "integer"},
        "strikes": {"type": "integer", "minimum": 0, "maximum": MAX_STRIKES},
        "structures": {"type": "array", "items": {"type": "string"},
                       "minItems": 1},
        # A scheme name for every structure ("parity"), a per-structure
        # assignment string ("iq=secded,rob=parity"), or the object form
        # {"default": ..., "overrides": {...}}; validated semantically
        # against the real scheme/structure registries below.
        "protection": {"type": ["string", "object"]},
        "mbu_len": {"type": "integer", "minimum": 1, "maximum": 3},
        "strike_batch": {"type": "integer", "minimum": 1},
        "artefacts": {"type": "array", "items": {"type": "string"},
                      "minItems": 1},
        # Legacy: once a cycle-kernel selector; see LEGACY_BACKENDS.
        "backend": {"type": "string"},
        "priority": {"type": "integer", "minimum": 0,
                     "maximum": MAX_PRIORITY},
        "budget": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "retries": {"type": "integer", "minimum": 0},
                "max_failures": {"type": "integer", "minimum": 0},
                "job_timeout": {"type": ["number", "null"], "minimum": 0},
            },
        },
    },
}


#: Structural contracts of the POST /fleet/* request bodies (PR-10).
#: Validated through the same checker as campaign specs, so a malformed
#: shard request is a 400 with a field path, never a 500.
FLEET_SCHEMAS: Dict[str, Dict[str, object]] = {
    "register": {
        "type": "object",
        "required": ["shard"],
        "additionalProperties": False,
        "properties": {"shard": {"type": "string"}},
    },
    "poll": {
        "type": "object",
        "required": ["shard"],
        "additionalProperties": False,
        "properties": {
            "shard": {"type": "string"},
            "wait": {"type": "number", "minimum": 0},
        },
    },
    "heartbeat": {
        "type": "object",
        "required": ["shard", "tokens"],
        "additionalProperties": False,
        "properties": {
            "shard": {"type": "string"},
            "tokens": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "commit": {
        "type": "object",
        "required": ["shard", "token", "digest", "payload"],
        "additionalProperties": False,
        "properties": {
            "shard": {"type": "string"},
            "token": {"type": "integer", "minimum": 1},
            "digest": {"type": "string"},
            "payload": {"type": "object"},
        },
    },
}


@dataclass(frozen=True)
class CampaignBudget:
    """Per-campaign degradation budget (PR-3 semantics, per campaign)."""

    retries: int = 1
    max_failures: int = 0
    job_timeout: Optional[float] = None


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign request."""

    kind: str
    workload_name: str
    programs: Tuple[str, ...]
    policy: str = "ICOUNT"
    instructions: int = 300
    seed: int = 1
    strikes: int = 8
    structures: Tuple[str, ...] = ()
    protection: str = "none"
    """Canonical assignment label (``ProtectionConfig.label()`` form) —
    a plain string so the spec stays trivially JSON- and digest-able."""
    mbu_len: int = 1
    strike_batch: Optional[int] = None
    artefacts: Tuple[str, ...] = ()
    priority: int = 0
    budget: CampaignBudget = field(default_factory=CampaignBudget)

    def canonical(self) -> Dict[str, object]:
        """The digestable identity: result-affecting fields only.

        ``budget``, ``strike_batch`` and ``priority`` shape *how* the
        campaign executes (retry policy, batch size, queue order), not
        what it computes — live-strike draws are keyed by (seed,
        structure, index) substreams, so batching cannot move a result.
        Excluding them is what makes dedup hit across clients that only
        disagree about scheduling.
        """
        return {
            "spec_schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload_name,
            "programs": list(self.programs),
            "policy": self.policy,
            "instructions": self.instructions,
            "seed": self.seed,
            "strikes": self.strikes,
            "structures": list(self.structures),
            "protection": self.protection,
            "mbu_len": self.mbu_len,
            "artefacts": list(self.artefacts),
        }

    def digest(self) -> str:
        return stable_digest(self.canonical())

    def campaign_id(self) -> str:
        return self.digest()[:16]

    def to_payload(self) -> Dict[str, object]:
        """The spec as echoed in status payloads (canonical + scheduling)."""
        payload = self.canonical()
        # Always null since the kernel selector went; kept because result
        # artifacts embed this payload and must stay byte-identical.
        payload["backend"] = None
        payload["strike_batch"] = self.strike_batch
        payload["priority"] = self.priority
        payload["budget"] = {"retries": self.budget.retries,
                             "max_failures": self.budget.max_failures,
                             "job_timeout": self.budget.job_timeout}
        return payload

    def to_request(self) -> Dict[str, object]:
        """A POST body that re-parses into this exact spec.

        This is what the service journal records for crash recovery: on
        replay the scheduler feeds it back through :func:`parse_spec`,
        so a recovered campaign is re-validated by the same code path a
        fresh client submission takes — the journal is a log of intent,
        never a trusted serialized object.
        """
        request: Dict[str, object] = {
            "kind": self.kind,
            "policy": self.policy,
            "instructions": self.instructions,
            "seed": self.seed,
        }
        if self.kind == "reproduce":
            request["artefacts"] = list(self.artefacts)
        else:
            if (self.workload_name in TABLE2_MIXES
                    and tuple(TABLE2_MIXES[self.workload_name].programs)
                    == self.programs):
                request["workload"] = self.workload_name
            else:
                request["workload"] = list(self.programs)
            request["strikes"] = self.strikes
            request["protection"] = self.protection
            if self.mbu_len != 1:
                request["mbu_len"] = self.mbu_len
            if self.structures:
                request["structures"] = list(self.structures)
        if self.strike_batch is not None:
            request["strike_batch"] = self.strike_batch
        if self.priority:
            request["priority"] = self.priority
        request["budget"] = {"retries": self.budget.retries,
                             "max_failures": self.budget.max_failures,
                             "job_timeout": self.budget.job_timeout}
        return request


def _resolve_workload(raw: Union[str, Sequence[str]]
                      ) -> Tuple[str, Tuple[str, ...]]:
    if isinstance(raw, str):
        tokens: List[str] = [raw]
    else:
        tokens = list(raw)
    if len(tokens) == 1 and tokens[0] in TABLE2_MIXES:
        mix = TABLE2_MIXES[tokens[0]]
        return mix.name, tuple(mix.programs)
    unknown = [t for t in tokens if t not in PROFILES]
    if unknown:
        raise SpecError(
            f"spec.workload: unknown workload/programs {unknown}; "
            f"use a Table 2 mix name or SPEC program names")
    return "+".join(tokens), tuple(tokens)


def parse_spec(payload: object) -> CampaignSpec:
    """Validate a raw request body into a :class:`CampaignSpec`.

    Raises :class:`SpecError` with every structural problem joined into
    one message (a client should not need N round trips to discover N
    typos), then with the first semantic problem found.
    """
    if not isinstance(payload, dict):
        raise SpecError(
            f"campaign spec must be a JSON object, got "
            f"{type(payload).__name__}")
    kind = payload.get("kind")
    if kind == "interval":
        # Refused by name, not as a bare enum mismatch, so a client that
        # used it learns what changed and what to submit instead.
        raise SpecError("spec.kind: 'interval' was removed: its strikes only "
                        "sampled the exact ACE AVF every run reports; submit "
                        "kind 'live' for bit-flip injection")
    errors = validate_schema(payload, SPEC_SCHEMA, path="spec")
    if errors:
        raise SpecError("; ".join(errors))

    # Injection campaigns strike one workload; reproduce campaigns draw
    # their workloads from the artefact registry, so a workload there is
    # rejected rather than silently splitting digests of equal requests.
    if kind == "reproduce":
        if "workload" in payload:
            raise SpecError("spec.workload: not meaningful for kind "
                            "'reproduce' (artefacts name their workloads)")
        workload_name, programs = "", ()
    else:
        if "workload" not in payload:
            raise SpecError(f"spec.workload: required for kind {kind!r}")
        workload_name, programs = _resolve_workload(payload["workload"])

    policy = payload.get("policy", "ICOUNT")
    from repro.fetch.registry import EXTENSION_POLICY_NAMES, POLICY_NAMES

    known_policies = POLICY_NAMES + EXTENSION_POLICY_NAMES
    if policy not in known_policies:
        raise SpecError(f"spec.policy: unknown fetch policy {policy!r}; "
                        f"known: {', '.join(known_policies)}")

    backend = payload.get("backend")
    if backend is not None and backend.strip().lower() not in LEGACY_BACKENDS:
        raise SpecError(f"spec.backend: unknown value {backend!r}; the field "
                        f"is accepted only as one of "
                        f"{', '.join(LEGACY_BACKENDS)}, and ignored")

    structures: Tuple[str, ...] = ()
    if "structures" in payload:
        if kind == "reproduce":
            raise SpecError(
                "spec.structures: not meaningful for kind 'reproduce'")
        from repro.faultinject.live import INJECTABLE

        by_name = {s.value.lower(): s for s in INJECTABLE}
        unknown = [s for s in payload["structures"]
                   if s.lower() not in by_name]
        if unknown:
            raise SpecError(
                f"spec.structures: unknown structures {unknown}; "
                f"known: {', '.join(sorted(by_name))}")
        structures = tuple(s.lower() for s in payload["structures"])

    artefacts: Tuple[str, ...] = ()
    if kind == "reproduce":
        if "artefacts" not in payload:
            raise SpecError("spec.artefacts: required for kind 'reproduce'")
        from repro.experiments.parallel import KNOWN_ARTEFACTS

        unknown = sorted(set(payload["artefacts"]) - KNOWN_ARTEFACTS)
        if unknown:
            raise SpecError(f"spec.artefacts: unknown artefacts {unknown}; "
                            f"known: {sorted(KNOWN_ARTEFACTS)}")
        artefacts = tuple(payload["artefacts"])
    elif "artefacts" in payload:
        raise SpecError(
            f"spec.artefacts: only meaningful for kind 'reproduce', "
            f"not {kind!r}")

    budget_raw = payload.get("budget", {})
    budget = CampaignBudget(
        retries=int(budget_raw.get("retries", 1)),
        max_failures=int(budget_raw.get("max_failures", 0)),
        job_timeout=budget_raw.get("job_timeout"),
    )

    defaults = {"live": (300, 8), "reproduce": (300, 0)}
    default_instructions, default_strikes = defaults[kind]
    # Injection-only fields are normalised away for reproduce specs so a
    # stray "strikes": 5 cannot split two otherwise-identical reproduce
    # campaigns into different digests.
    strikes = (0 if kind == "reproduce"
               else int(payload.get("strikes", default_strikes)))
    if kind == "reproduce":
        protection = "none"
        mbu_len = 1
    else:
        # Normalise every accepted spelling (bare scheme, per-structure
        # string, object form, legacy 'ecc') to the canonical label so
        # equivalent requests dedup to one digest.
        from repro.errors import ConfigError
        from repro.protection import ProtectionConfig
        from repro.structures.strike import MAX_CLUSTER_LEN

        try:
            protection = ProtectionConfig.coerce(
                payload.get("protection", "none")).label()
        except ConfigError as exc:
            raise SpecError(f"spec.protection: {exc}") from None
        mbu_len = int(payload.get("mbu_len", 1))
        if not 1 <= mbu_len <= MAX_CLUSTER_LEN:
            raise SpecError(f"spec.mbu_len: must be 1-{MAX_CLUSTER_LEN}, "
                            f"got {mbu_len}")
    return CampaignSpec(
        kind=kind,
        workload_name=workload_name,
        programs=programs,
        policy=policy,
        instructions=int(payload.get("instructions", default_instructions)),
        seed=int(payload.get("seed", 1)),
        strikes=strikes,
        structures=structures,
        protection=protection,
        mbu_len=mbu_len,
        strike_batch=payload.get("strike_batch"),
        artefacts=artefacts,
        priority=int(payload.get("priority", 0)),
        budget=budget,
    )
