"""One verified content store: the on-disk format of every cached result.

The result cache (``<digest>.json``), the live batch cache
(``live-<digest>.json``), the service's final artifacts and its campaign
manifests all persist through :class:`ContentStore`.  Each entry is one
file ``<root>/<name>.json`` holding the canonical envelope::

    {"checksum":"<sha256 of the result's canonical bytes>","result":<payload>,"schema":2}

Every read re-hashes the stored result against the recorded checksum.
An entry that fails (bit rot, truncation, tampering, an older layout, or
valid JSON that is not byte-canonical) is invalidated and recomputed by
its caller, never misread — a silently corrupted cache entry would be a
silent data corruption in every figure that averages over it.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

from repro.errors import ArtifactIntegrityError

#: Version of the entry layout, checked on every read.  v2 added the
#: per-entry checksum.  Bump it when a stored payload's layout changes
#: (``SimResult.to_payload``, a batch's records, ...): every entry of
#: another version then fails verification and is recomputed once.
STORE_SCHEMA_VERSION = 2

T = TypeVar("T")

# Canonical keys sort as checksum, result, schema, so a valid entry is
# exactly _PREFIX + 64 hex digits + _MIDDLE + canonical result + _SUFFIX.
# Reads check those fixed bytes and hash the body in place; re-serialising
# the decoded result to verify it would double the cost of a warm read.
_PREFIX = b'{"checksum":"'
_MIDDLE = b'","result":'
_SUFFIX = b',"schema":%d}\n' % STORE_SCHEMA_VERSION
_HEX_END = len(_PREFIX) + 64
_BODY_START = _HEX_END + len(_MIDDLE)


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_json_bytes(payload: object) -> bytes:
    """The one true serialization (sorted keys, fixed separators)."""
    return (_canonical(payload) + "\n").encode("utf-8")


def stable_digest(payload: object) -> str:
    """Content hash of a JSON-safe value, stable across processes/sessions."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so concurrent writers never expose a half-written
    file.

    The temporary name carries the pid and the thread id, so two threads
    publishing the same entry never share a temp file.  It is removed even
    when the write or rename is interrupted (disk full, a kill signal
    escaping as an exception): a crashed run must not litter the
    directory with ``.tmp`` orphans.
    """
    tmp = path.with_name(
        f"{path.name}.tmp{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        try:
            tmp.unlink()  # gone already after a successful replace
        except OSError:
            pass


def sweep_tmp_orphans(directory: Path) -> int:
    """Delete ``*.tmp*`` orphans a crashed writer left behind; returns the
    count.

    Called when a directory is opened.  A temp file of another process
    belongs to a writer that died between write and rename (live writers
    hold theirs for milliseconds).  One carrying this process's pid may be
    another thread's publish in flight — the campaign server opens the
    shared cache once per campaign — so it is left alone.
    """
    own = str(os.getpid())
    removed = 0
    for orphan in directory.glob("*.tmp*"):
        if orphan.name.rpartition(".tmp")[2].partition(".")[0] == own:
            continue
        try:
            orphan.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _verified_body(data: bytes) -> bytes:
    """The canonical result bytes of one entry; ValueError if corrupt."""
    if not (data.startswith(_PREFIX)
            and data[_HEX_END:_BODY_START] == _MIDDLE
            and data.endswith(_SUFFIX)
            and len(data) > _BODY_START + len(_SUFFIX)):
        raise ValueError(
            f"not a canonical schema-{STORE_SCHEMA_VERSION} entry")
    recorded = data[len(_PREFIX):_HEX_END].decode("ascii", "replace")
    body = data[_BODY_START:-len(_SUFFIX)]
    actual = hashlib.sha256(body + b"\n").hexdigest()
    if recorded != actual:
        raise ValueError(f"recorded checksum {recorded[:12]}... but bytes "
                         f"re-hash to {actual[:12]}...")
    return body


class ContentStore:
    """Checksummed JSON entries, one file per name, under one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        sweep_tmp_orphans(self.root)

    def path(self, name: str) -> Path:
        return self.root / f"{name}.json"

    def put(self, name: str, payload: object) -> None:
        """Atomically publish ``payload``; byte-identical to
        ``canonical_json_bytes({"schema", "checksum", "result"})``."""
        body = _canonical(payload).encode("utf-8")
        checksum = hashlib.sha256(body + b"\n").hexdigest().encode("ascii")
        atomic_write(self.path(name),
                     _PREFIX + checksum + _MIDDLE + body + _SUFFIX)

    def get(self, name: str,
            decode: Optional[Callable[[object], T]] = None
            ) -> Optional[T]:
        """The verified (and ``decode``-d) payload, or None.

        None on a miss.  An entry that fails verification, or whose
        payload ``decode`` rejects with ``KeyError``/``TypeError``/
        ``ValueError``, is deleted so the caller recomputes and rewrites
        it.
        """
        path = self.path(name)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(_verified_body(data))
            return payload if decode is None else decode(payload)
        except (KeyError, TypeError, ValueError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def verified_bytes(self, name: str) -> bytes:
        """The entry's exact file bytes, for serving as they are.

        Raises :class:`~repro.errors.ArtifactIntegrityError` naming the
        entry when verification fails (the entry is left in place), and
        ``OSError`` when it is missing.
        """
        data = self.path(name).read_bytes()
        try:
            _verified_body(data)
        except ValueError as exc:
            raise ArtifactIntegrityError(name, str(exc)) from None
        return data
