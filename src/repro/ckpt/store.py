"""Content-addressed on-disk storage for checkpoints.

A checkpoint is a JSON document (see :mod:`repro.ckpt.snapshot`). The
store writes it as canonical JSON, gzip-compressed with a zeroed
timestamp so identical state always produces identical bytes, and names
the blob by the SHA-256 of the *uncompressed* JSON:

.. code-block:: none

    <root>/ab/abcdef1234....json.gz     # the blob
    <root>/latest/<key>.json            # per-job "latest" pointer

The digest doubles as an integrity check: :meth:`CheckpointStore.load`
re-hashes the decompressed bytes and refuses blobs that do not match
their name, so a truncated or corrupted file surfaces as a
:class:`~repro.errors.CheckpointError` instead of a silently wrong
resume. All writes are atomic (temp file + rename), so a run killed
mid-checkpoint leaves either the previous blob or the new one, never a
torn file.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import re
from pathlib import Path

from repro.atomic import atomic_path
from repro.errors import CheckpointError
from repro.obs import bus as obs_bus
from repro.obs.registry import Registry

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_KEY_SANITIZE_RE = re.compile(r"[^A-Za-z0-9._=-]+")


def _canonical_bytes(state: dict) -> bytes:
    """Compact JSON encoding; the digest is computed over these bytes."""
    return json.dumps(state, separators=(",", ":")).encode("utf-8")


def sanitize_key(key: str) -> str:
    """A job key reduced to a safe filename component."""
    return _KEY_SANITIZE_RE.sub("_", key)


class CheckpointStore:
    """Directory of content-addressed checkpoint blobs.

    Each instance counts its traffic (``saves``/``loads``/``dedups``
    plus bytes in both directions) in a
    :class:`~repro.obs.registry.Registry`; when a batch telemetry bus
    is current in the process, saves and loads also land on it as
    ``ckpt.save``/``ckpt.load`` events — including from pool workers,
    where periodic mid-run checkpoints actually happen.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.metrics = Registry()

    @property
    def saves(self) -> int:
        return self.metrics.counter("saves").value

    @property
    def loads(self) -> int:
        return self.metrics.counter("loads").value

    def stats(self) -> dict:
        """Counter snapshot for reports and rollups."""
        return {
            name: counter.value
            for name, counter in sorted(self.metrics.counters.items())
        }

    # ------------------------------------------------------------------
    # blobs

    def _blob_path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json.gz"

    def save(self, state: dict, key: str | None = None) -> str:
        """Write ``state``; returns its digest.

        With ``key`` given, the per-key "latest" pointer is updated to
        the new blob (atomically, after the blob itself is durable), so
        a resume that asks for the latest checkpoint of a job can never
        observe a pointer to a blob that does not exist yet.
        """
        raw = _canonical_bytes(state)
        digest = hashlib.sha256(raw).hexdigest()
        path = self._blob_path(digest)
        deduped = path.exists()
        if not deduped:
            buffer = io.BytesIO()
            # mtime=0 keeps the compressed bytes deterministic too.
            with gzip.GzipFile(fileobj=buffer, mode="wb", mtime=0) as zf:
                zf.write(raw)
            with atomic_path(path) as tmp:
                tmp.write_bytes(buffer.getvalue())
            self.metrics.counter("bytes_written").inc(len(raw))
        self.metrics.counter("saves").inc()
        if deduped:
            self.metrics.counter("dedups").inc()
        obs_bus.emit(
            "ckpt.save", digest=digest, bytes=len(raw), deduped=deduped
        )
        if key is not None:
            self._write_latest(key, digest, state)
        return digest

    def load(self, digest: str) -> dict:
        """Read and verify the blob named ``digest``."""
        if not _DIGEST_RE.match(digest):
            raise CheckpointError(f"malformed checkpoint digest {digest!r}")
        path = self._blob_path(digest)
        try:
            raw = gzip.decompress(path.read_bytes())
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint blob {digest}") from None
        except OSError as error:
            raise CheckpointError(
                f"unreadable checkpoint blob {digest}: {error}"
            ) from error
        actual = hashlib.sha256(raw).hexdigest()
        if actual != digest:
            raise CheckpointError(
                f"checkpoint blob {digest} fails its content hash "
                f"(got {actual}); the file is corrupt"
            )
        self.metrics.counter("loads").inc()
        self.metrics.counter("bytes_read").inc(len(raw))
        obs_bus.emit("ckpt.load", digest=digest, bytes=len(raw))
        return json.loads(raw)

    def inspect(self, digest: str) -> dict:
        """The ``meta`` block of a blob (cycle, arch, versions, ...)."""
        state = self.load(digest)
        meta = state.get("meta")
        if not isinstance(meta, dict):
            raise CheckpointError(f"checkpoint {digest} has no meta block")
        return meta

    # ------------------------------------------------------------------
    # latest pointers

    def _latest_path(self, key: str) -> Path:
        return self.root / "latest" / f"{sanitize_key(key)}.json"

    def _write_latest(self, key: str, digest: str, state: dict) -> None:
        meta = state.get("meta", {})
        payload = {
            "key": key,
            "digest": digest,
            "cycle": meta.get("cycle", 0),
        }
        with atomic_path(self._latest_path(key)) as tmp:
            tmp.write_text(json.dumps(payload, indent=2))

    def latest(self, key: str) -> str | None:
        """Digest of the most recent checkpoint saved under ``key``."""
        path = self._latest_path(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # A torn pointer is impossible (atomic rename) but a
            # hand-damaged one should read as "no checkpoint".
            return None
        digest = payload.get("digest")
        if isinstance(digest, str) and _DIGEST_RE.match(digest):
            return digest
        return None

    def clear_latest(self, key: str) -> None:
        """Drop the latest pointer for ``key`` (job completed)."""
        try:
            self._latest_path(key).unlink()
        except FileNotFoundError:
            pass
