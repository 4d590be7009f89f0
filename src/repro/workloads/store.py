"""Content-addressed workload artifact store.

Synthetic datasets (Cap3 FASTA reads, BLAST NR-like databases + query
bundles, PubChem-like GTM splits) are deterministic functions of their
generator parameters and seed — there is no reason to regenerate the
same bytes for every sweep point, worker, or test that asks for them.
This store materializes each dataset **exactly once** under
``.repro-cache/workloads/<kk>/<key>/`` (a sibling of the sweep result
cache; ``kk`` = first two hex chars of the key) and lets later callers
*attach* the files read-only: payloads are hard-linked into the
destination when the filesystem allows it, so every consumer shares one
inode — and therefore one page-cache copy — instead of private
duplicates.  Copying is the cross-device fallback.

Keying follows :mod:`repro.sweep.cache`: the key is a SHA-256 digest of
generator name + parameters + a version salt, the full fingerprint is
stored in the artifact's ``MANIFEST.json`` and verified on read so a
collision or corrupted entry degrades to a rebuild, never a wrong
dataset.  Builds are crash-safe: the builder writes into a temp
directory that is renamed into place only when complete; losing a
rename race to a concurrent builder just means adopting the winner's
(identical) artifact.

``REPRO_NO_CACHE=1`` disables the store wherever
:func:`default_artifact_store` is consulted (generation then happens
in place, exactly as before this store existed) and
``REPRO_CACHE_DIR`` relocates it together with the result cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.context import current as _current_obs
from repro.sweep.cache import DEFAULT_CACHE_DIRNAME

__all__ = [
    "WorkloadArtifact",
    "WorkloadArtifactStore",
    "default_artifact_store",
    "resolve_store",
]

# Bump when generator output changes so stale artifacts self-invalidate.
ARTIFACT_SALT = "workload-store-v2"

_MANIFEST = "MANIFEST.json"


@dataclass(frozen=True)
class WorkloadArtifact:
    """One materialized dataset: its directory, payload file names (in
    manifest order), and whatever extra metadata the builder recorded."""

    path: Path
    files: "tuple[str, ...]"
    extra: dict = field(default_factory=dict)

    def file_path(self, name: str) -> Path:
        return self.path / name


class WorkloadArtifactStore:
    """A directory of content-addressed workload datasets."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.hits = 0
        self.builds = 0
        obs = _current_obs()
        self._tracer = obs.tracer
        self._m_hits = obs.metrics.counter("workload.store.hits")
        self._m_builds = obs.metrics.counter("workload.store.builds")

    # -- keying -----------------------------------------------------------
    @staticmethod
    def fingerprint(kind: str, params: dict) -> str:
        return json.dumps(
            {"kind": kind, "params": params, "salt": ARTIFACT_SALT},
            sort_keys=True,
            separators=(",", ":"),
        )

    def _dir_for(self, key: str) -> Path:
        return self.root / key[:2] / key

    # -- materialize ------------------------------------------------------
    def materialize(self, kind: str, params: dict, builder) -> WorkloadArtifact:
        """Return the artifact for ``(kind, params)``, building at most once.

        ``builder(directory)`` must write the payload files into
        ``directory`` and may return a JSON-serializable dict of extra
        metadata (per-file work units, auxiliary file names, ...) that
        is stored in the manifest and handed back on every later hit.
        """
        fingerprint = self.fingerprint(kind, params)
        key = hashlib.sha256(fingerprint.encode("ascii")).hexdigest()
        target = self._dir_for(key)
        artifact = self._load(target, fingerprint)
        if artifact is not None:
            self.hits += 1
            self._m_hits.inc()
            return artifact

        with self._tracer.span("workload.build", label=kind):
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = Path(
                tempfile.mkdtemp(dir=target.parent, prefix=f"{key}.tmp")
            )
            try:
                extra = builder(tmp) or {}
                files = sorted(
                    p.name for p in tmp.iterdir() if p.name != _MANIFEST
                )
                manifest = {
                    "fingerprint": fingerprint,
                    "files": files,
                    "extra": extra,
                }
                (tmp / _MANIFEST).write_text(
                    json.dumps(manifest, sort_keys=True, indent=2),
                    encoding="utf-8",
                )
                try:
                    os.rename(tmp, target)
                except OSError:
                    # Lost the race to a concurrent builder (or a stale
                    # corrupt artifact occupies the slot): adopt theirs
                    # if valid, else replace it.
                    artifact = self._load(target, fingerprint)
                    if artifact is not None:
                        shutil.rmtree(tmp, ignore_errors=True)
                        self.hits += 1
                        self._m_hits.inc()
                        return artifact
                    shutil.rmtree(target, ignore_errors=True)
                    os.rename(tmp, target)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        self.builds += 1
        self._m_builds.inc()
        return WorkloadArtifact(
            path=target, files=tuple(files), extra=extra
        )

    def _load(
        self, target: Path, fingerprint: str
    ) -> "WorkloadArtifact | None":
        try:
            manifest = json.loads(
                (target / _MANIFEST).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if manifest.get("fingerprint") != fingerprint:
            return None
        files = manifest.get("files")
        if not isinstance(files, list):
            return None
        if any(not (target / name).is_file() for name in files):
            return None  # partially deleted artifact: rebuild
        return WorkloadArtifact(
            path=target,
            files=tuple(files),
            extra=manifest.get("extra", {}),
        )

    # -- attach -----------------------------------------------------------
    def attach(self, artifact: WorkloadArtifact, dest: "str | Path") -> None:
        """Expose the artifact's payload files under ``dest``.

        Hard links where possible (one shared inode per file — readers
        mmap/read the same page-cache copy), byte copies across
        filesystems.  Existing destination entries are replaced
        atomically.
        """
        dest = Path(dest)
        dest.mkdir(parents=True, exist_ok=True)
        for name in artifact.files:
            source = artifact.file_path(name)
            final = dest / name
            tmp = dest / f".{name}.attach-{os.getpid()}"
            try:
                try:
                    os.link(source, tmp)
                except OSError:
                    shutil.copyfile(source, tmp)
                os.replace(tmp, final)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    # -- maintenance ------------------------------------------------------
    def stats(self) -> "dict[str, int]":
        entries = 0
        size = 0
        if self.root.is_dir():
            for manifest in self.root.glob(f"*/*/{_MANIFEST}"):
                entries += 1
                for path in manifest.parent.iterdir():
                    try:
                        size += path.stat().st_size
                    except OSError:
                        pass
        return {
            "hits": self.hits,
            "builds": self.builds,
            "entries": entries,
            "bytes": size,
        }

    def clear(self) -> int:
        """Remove every artifact; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for manifest in sorted(self.root.glob(f"*/*/{_MANIFEST}")):
            shutil.rmtree(manifest.parent, ignore_errors=True)
            removed += 1
            try:
                manifest.parent.parent.rmdir()
            except OSError:
                pass  # not empty yet / already gone
        return removed


def default_artifact_store(
    root: "str | Path | None" = None,
) -> "WorkloadArtifactStore | None":
    """The process-wide artifact-store policy.

    Returns ``None`` (store off — generate in place) when
    ``REPRO_NO_CACHE`` is set, else a store under ``<cache-root>/
    workloads`` where the cache root is ``root``, ``REPRO_CACHE_DIR``,
    or ``./.repro-cache`` in that order — always a sibling of the sweep
    result cache.
    """
    if os.environ.get("REPRO_NO_CACHE"):
        return None
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIRNAME
    return WorkloadArtifactStore(Path(root) / "workloads")


def resolve_store(
    store: "WorkloadArtifactStore | str | None",
) -> "WorkloadArtifactStore | None":
    """Normalize a ``store=`` argument: ``"auto"`` consults the default
    policy, ``None`` disables the store, anything else is used as-is."""
    if store == "auto":
        return default_artifact_store()
    if store is None:
        return None
    return store
