"""The shared artifact store: content-hash cache + per-campaign manifests.

The result cache and the live batch cache already key every payload by
a content hash of its inputs; this module promotes that layout to a
multi-tenant store the campaign service owns:

``<root>/cache/``
    The shared computation cache — ``SimResult`` entries and live
    ``live-<digest>.json`` batch entries, exactly the files the CLI
    paths read and write.  Every
    campaign's supervised jobs dedup through it, so two campaigns sharing
    simulations share the work.

``<root>/artifacts/<spec-digest>.json``
    Final campaign results, content-addressed by the *spec* digest and
    serialized canonically (sorted keys, fixed separators) — which is
    what makes "byte-identical results for identical specs" a property
    of the store rather than a promise of the scheduler.

``<root>/campaigns/<id>/manifest.json``
    Per-campaign metadata: the spec, terminal state, submission count,
    batch progress, failures (the service's analogue of PR-3's
    ``failures.json`` exit artefact), and the artifact digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ArtifactIntegrityError
from repro.experiments.runner import atomic_write_json, sweep_tmp_orphans

#: Version of the artifact/manifest layout.  v2 added the per-artifact
#: content checksum; v1 entries are invalidated on read (the campaign
#: recomputes from the batch cache, so the cost is re-assembly, not
#: re-simulation).
STORE_SCHEMA_VERSION = 2


def canonical_json_bytes(payload: Dict[str, object]) -> bytes:
    """The one true serialization of an artifact (byte-determinism)."""
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def result_checksum(payload: Dict[str, object]) -> str:
    """The integrity hash recorded beside (and re-checked against) a
    stored result: sha256 of the result's own canonical bytes."""
    return hashlib.sha256(canonical_json_bytes(payload)).hexdigest()


class ArtifactStore:
    """Owns the service's on-disk layout under one root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cache_dir = self.root / "cache"
        self.artifact_dir = self.root / "artifacts"
        self.campaign_dir = self.root / "campaigns"
        for directory in (self.cache_dir, self.artifact_dir,
                          self.campaign_dir):
            directory.mkdir(parents=True, exist_ok=True)
            sweep_tmp_orphans(directory)
        # Manifests live one level down (campaigns/<id>/manifest.json);
        # a writer killed mid-publish leaves its .tmp<pid> there, so the
        # orphan-sweep contract has to reach the per-campaign dirs too.
        for subdir in self.campaign_dir.iterdir():
            if subdir.is_dir():
                sweep_tmp_orphans(subdir)

    # -- artifacts (content-addressed finals) --------------------------------------

    def artifact_path(self, digest: str) -> Path:
        return self.artifact_dir / f"{digest}.json"

    def has_artifact(self, digest: str) -> bool:
        return self.artifact_path(digest).exists()

    def write_artifact(self, digest: str, payload: Dict[str, object]) -> None:
        """Canonical, atomic write; idempotent for identical payloads."""
        path = self.artifact_path(digest)
        data = canonical_json_bytes({"schema": STORE_SCHEMA_VERSION,
                                     "checksum": result_checksum(payload),
                                     "result": payload})
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def read_artifact_bytes(self, digest: str) -> bytes:
        """The exact bytes every client of this digest receives."""
        return self.artifact_path(digest).read_bytes()

    def verified_artifact_bytes(self, digest: str) -> bytes:
        """Artifact bytes for *serving*: refuses a corrupt entry.

        The entry's result is re-hashed against the checksum recorded at
        write time; a mismatch (bit rot, truncation past the JSON parser,
        manual tampering) raises
        :class:`~repro.errors.ArtifactIntegrityError` naming the digest —
        the server renders that as a 500, because silently serving wrong
        science is the one failure mode a content-addressed store exists
        to rule out.
        """
        raw = self.read_artifact_bytes(digest)
        try:
            entry = json.loads(raw)
        except ValueError as exc:
            raise ArtifactIntegrityError(digest, f"unparseable JSON: {exc}")
        if not isinstance(entry, dict):
            raise ArtifactIntegrityError(
                digest, f"entry is {type(entry).__name__}, not an object")
        if entry.get("schema") != STORE_SCHEMA_VERSION:
            raise ArtifactIntegrityError(
                digest, f"schema {entry.get('schema')!r} != "
                        f"{STORE_SCHEMA_VERSION}")
        recorded = entry.get("checksum")
        actual = result_checksum(entry.get("result", {}))
        if recorded != actual:
            raise ArtifactIntegrityError(
                digest, f"recorded checksum {str(recorded)[:12]}... but "
                        f"bytes re-hash to {actual[:12]}...")
        return raw

    def read_artifact(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored result, or None — for the dedup-on-submit path.

        Unlike :meth:`verified_artifact_bytes`, corruption here is
        answered by *invalidating* the entry (so the submission
        recomputes it) rather than by an error: at submission time a
        broken artifact is equivalent to no artifact.
        """
        try:
            entry = json.loads(self.read_artifact_bytes(digest))
        except (OSError, ValueError):
            return None
        if (not isinstance(entry, dict)
                or entry.get("schema") != STORE_SCHEMA_VERSION
                or entry.get("checksum")
                != result_checksum(entry.get("result", {}))):
            # Stale layout or failed re-hash: invalidate so the campaign
            # recomputes under the current schema instead of serving a
            # misread.
            try:
                self.artifact_path(digest).unlink()
            except OSError:
                pass
            return None
        return entry.get("result")

    # -- manifests (per-campaign metadata) -----------------------------------------

    def manifest_path(self, campaign_id: str) -> Path:
        return self.campaign_dir / campaign_id / "manifest.json"

    def write_manifest(self, campaign_id: str,
                       manifest: Dict[str, object]) -> None:
        path = self.manifest_path(campaign_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, {"schema": STORE_SCHEMA_VERSION,
                                 "manifest": manifest})

    def read_manifest(self, campaign_id: str) -> Optional[Dict[str, object]]:
        try:
            entry = json.loads(self.manifest_path(campaign_id).read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(entry, dict)
                or entry.get("schema") != STORE_SCHEMA_VERSION):
            return None
        return entry.get("manifest")

    def list_campaigns(self) -> List[str]:
        if not self.campaign_dir.exists():
            return []
        return sorted(p.name for p in self.campaign_dir.iterdir()
                      if (p / "manifest.json").exists())
