"""A directory-backed blob store for the real Classic Cloud runtime.

The paper's workers do not touch shared files in place: they *download*
the input object from cloud storage to local scratch space, run the
executable there, and *upload* the result object.  This store gives the
local framework the same architecture — a content root addressed by
blob keys, atomic uploads, downloads into per-worker scratch — plus an
optional artificial transfer delay for experimentation.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.sim.engine import monitor, monitor_lock

__all__ = ["LocalBlobStore"]


class LocalBlobStore:
    """Blob semantics over a local directory tree.

    Keys are slash-separated names mapped under the root; uploads are
    atomic (temp file + rename) so a concurrent download never observes
    a partial object — the property duplicate Classic Cloud executions
    rely on.
    """

    def __init__(self, root: str | Path, transfer_delay_s: float = 0.0):
        if transfer_delay_s < 0:
            raise ValueError("transfer_delay_s must be non-negative")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.transfer_delay_s = transfer_delay_s
        # Monitored under REPRO_SANITIZE=threads, plain otherwise.
        self._lock = monitor_lock("LocalBlobStore._lock")
        self.stats = monitor(
            {"puts": 0, "gets": 0, "deletes": 0}, "LocalBlobStore.stats"
        )

    def _path(self, key: str) -> Path:
        clean = key.strip("/")
        if not clean or ".." in clean.split("/"):
            raise ValueError(f"invalid blob key {key!r}")
        return self.root / clean

    def _delay(self) -> None:
        if self.transfer_delay_s:
            time.sleep(self.transfer_delay_s)

    # -- operations --------------------------------------------------------
    def put(self, key: str, source: str | Path) -> None:
        """Upload a local file as object ``key`` (atomic)."""
        self._delay()
        target = self._path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=target.parent, prefix=".upload.")
        os.close(fd)
        try:
            shutil.copyfile(source, temp_name)
            os.replace(temp_name, target)
        finally:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
        with self._lock:
            self.stats["puts"] += 1

    def put_bytes(self, key: str, data: bytes) -> None:
        """Upload raw bytes as object ``key`` (atomic)."""
        self._delay()
        target = self._path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=target.parent, prefix=".upload.")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, target)
        finally:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
        with self._lock:
            self.stats["puts"] += 1

    def get(self, key: str, destination: str | Path) -> Path:
        """Download object ``key`` to a local path; returns it."""
        self._delay()
        source = self._path(key)
        if not source.is_file():
            raise FileNotFoundError(key)
        destination = Path(destination)
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, destination)
        with self._lock:
            self.stats["gets"] += 1
        return destination

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def delete(self, key: str) -> None:
        """Idempotent object removal."""
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass
        with self._lock:
            self.stats["deletes"] += 1

    def list_keys(self, prefix: str = "") -> list[str]:
        """All object keys under ``prefix``, sorted."""
        keys = []
        for path in self.root.rglob("*"):
            if not path.is_file() or path.name.startswith(".upload."):
                continue
            key = path.relative_to(self.root).as_posix()
            if key.startswith(prefix):
                keys.append(key)
        return sorted(keys)

    def size(self, key: str) -> int:
        return self._path(key).stat().st_size
