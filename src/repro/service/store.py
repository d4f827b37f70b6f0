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

Every file in all three is a :class:`~repro.content_store.ContentStore`
entry: one canonical, checksummed envelope, verified on every read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.content_store import ContentStore, sweep_tmp_orphans


class ArtifactStore:
    """Owns the service's on-disk layout under one root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.cache_dir = self.root / "cache"
        self.campaign_dir = self.root / "campaigns"
        self._artifacts = ContentStore(self.root / "artifacts")
        for directory in (self.cache_dir, self.campaign_dir):
            directory.mkdir(parents=True, exist_ok=True)
            sweep_tmp_orphans(directory)
        # Manifests live one level down (campaigns/<id>/manifest.json);
        # a writer killed mid-publish leaves its temp file there, so the
        # orphan-sweep contract has to reach the per-campaign dirs too.
        for subdir in self.campaign_dir.iterdir():
            if subdir.is_dir():
                sweep_tmp_orphans(subdir)

    # -- artifacts (content-addressed finals) --------------------------------------

    def write_artifact(self, digest: str, payload: Dict[str, object]) -> None:
        """Canonical, atomic write; idempotent for identical payloads."""
        self._artifacts.put(digest, payload)

    def verified_artifact_bytes(self, digest: str) -> bytes:
        """Artifact bytes for *serving*: refuses a corrupt entry.

        The entry's result is re-hashed against the checksum recorded at
        write time; a mismatch (bit rot, truncation, manual tampering)
        raises :class:`~repro.errors.ArtifactIntegrityError` naming the
        digest — the server renders that as a 500, because silently
        serving wrong science is the one failure mode a content-addressed
        store exists to rule out.
        """
        return self._artifacts.verified_bytes(digest)

    def read_artifact(self, digest: str) -> Optional[Dict[str, object]]:
        """The stored result, or None — for the dedup-on-submit path.

        Unlike :meth:`verified_artifact_bytes`, corruption here is
        answered by *invalidating* the entry (so the submission
        recomputes it) rather than by an error: at submission time a
        broken artifact is equivalent to no artifact.
        """
        return self._artifacts.get(digest)

    # -- manifests (per-campaign metadata) -----------------------------------------

    def write_manifest(self, campaign_id: str,
                       manifest: Dict[str, object]) -> None:
        ContentStore(self.campaign_dir / campaign_id).put("manifest", manifest)
