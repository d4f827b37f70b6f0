"""The one verified content store every cache and artifact goes through."""

import hashlib
import threading

import pytest

from repro.content_store import (
    STORE_SCHEMA_VERSION,
    ContentStore,
    canonical_json_bytes,
)
from repro.errors import ArtifactIntegrityError
from repro.service.store import ArtifactStore

PAYLOADS = [
    {"ipc": 1.2345678901234567, "avf": [0.1, 2.5e-07, 1e300, -0.0]},
    {"outer": {"z": {"b": [1, {"y": 2, "x": 3}]}, "a": {}}, "n": None},
    {"program": "gcc — ünïcödé ☃ 𝔘", "tags": ["é", "\u0000", "\n\""]},
    {"records": []},
]


class TestEnvelope:
    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_put_writes_the_canonical_envelope(self, tmp_path, payload):
        store = ContentStore(tmp_path)
        store.put("entry", payload)
        checksum = hashlib.sha256(canonical_json_bytes(payload)).hexdigest()
        assert store.path("entry").read_bytes() == canonical_json_bytes(
            {"schema": STORE_SCHEMA_VERSION, "checksum": checksum,
             "result": payload})
        assert store.get("entry") == payload
        assert store.verified_bytes("entry") == \
            store.path("entry").read_bytes()

    def test_miss_is_none_and_creates_nothing(self, tmp_path):
        store = ContentStore(tmp_path)
        assert store.get("absent") is None
        assert list(tmp_path.iterdir()) == []

    def test_decode_rejection_invalidates(self, tmp_path):
        store = ContentStore(tmp_path)
        store.put("entry", {"a": 1})

        def decode(payload):
            return payload["missing"]

        assert store.get("entry", decode=decode) is None
        assert not store.path("entry").exists()


class TestWriterRaces:
    def test_concurrent_puts_while_reopened(self, tmp_path):
        """Two threads publish the same entry while a third reopens (and
        so orphan-sweeps) the directory: no writer may lose its temp file
        to the other writer or to the sweep.  Each put first drops the
        entry: a rename over an existing file can flush to disk (tens of
        milliseconds on ext4), which would stretch the test, not the
        race."""
        store = ContentStore(tmp_path)
        payload = {"values": list(range(500))}
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for _ in range(300):
                    store.path("entry").unlink(missing_ok=True)
                    store.put("entry", payload)
            except OSError as exc:
                errors.append(exc)

        def opener():
            while not stop.is_set():
                try:
                    ContentStore(tmp_path)
                except OSError as exc:
                    errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        sweeper = threading.Thread(target=opener)
        for thread in writers + [sweeper]:
            thread.start()
        for thread in writers:
            thread.join(60)
        stop.set()
        sweeper.join(60)
        assert not any(t.is_alive() for t in writers + [sweeper])
        assert errors == []
        assert store.get("entry") == payload
        assert list(tmp_path.glob("*.tmp*")) == []


class TestArtifactCorruption:
    DIGEST = "ab" * 32

    def _flipped(self, tmp_path, flip_digit):
        store = ArtifactStore(tmp_path)
        store.write_artifact(self.DIGEST, {"kind": "live", "cycles": 1314})
        path = tmp_path / "artifacts" / f"{self.DIGEST}.json"
        flip_digit(path, "cycles")
        return store, path

    def test_read_artifact_invalidates(self, tmp_path, flip_digit):
        store, path = self._flipped(tmp_path, flip_digit)
        assert store.read_artifact(self.DIGEST) is None
        assert not path.exists()

    def test_verified_bytes_names_the_digest(self, tmp_path, flip_digit):
        store, path = self._flipped(tmp_path, flip_digit)
        with pytest.raises(ArtifactIntegrityError) as caught:
            store.verified_artifact_bytes(self.DIGEST)
        assert caught.value.digest == self.DIGEST
        assert self.DIGEST in str(caught.value)
        assert path.exists()
