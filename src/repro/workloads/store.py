"""Content-addressed workload artifact store.

Synthetic datasets (Cap3 FASTA reads, BLAST NR-like databases + query
bundles, PubChem-like GTM splits) are deterministic functions of their
generator parameters and seed, so each is materialized **exactly once**
as an entry of the store in :mod:`repro.sweep.cache`, under
``.repro-cache/workloads/<kk>/<key>/``, keyed by generator name +
parameters + a version salt.  Later callers *attach* it read-only: the
payloads are hard-linked into the destination when the filesystem
allows it, so every consumer shares one inode — and one page-cache copy
— instead of a private duplicate; copying is the cross-device fallback.
:func:`write_inputs` is the one store-or-in-place path of the
``write_*_workload`` writers; with ``REPRO_NO_CACHE=1`` they generate in
place, exactly as before this store existed.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.obs.context import current as _current_obs
from repro.sweep.cache import ContentStore, Entry, cache_root
from repro.sweep.fingerprint import canonicalize

__all__ = [
    "WorkloadArtifact",
    "WorkloadArtifactStore",
    "default_artifact_store",
    "resolve_store",
    "write_inputs",
]

# Bump when generator output changes so stale artifacts self-invalidate.
ARTIFACT_SALT = "workload-store-v2"

#: One materialized dataset: its directory, payload file names, and
#: whatever extra metadata the builder recorded.
WorkloadArtifact = Entry


class WorkloadArtifactStore(ContentStore):
    """Content-addressed workload datasets, one entry per dataset."""

    def __init__(self, root: "str | Path"):
        super().__init__(root)
        self.hits = 0
        self.builds = 0
        obs = _current_obs()
        self._tracer = obs.tracer
        self._m_hits = obs.metrics.counter("workload.store.hits")
        self._m_builds = obs.metrics.counter("workload.store.builds")

    @staticmethod
    def fingerprint(kind: str, params: dict) -> dict:
        return canonicalize(
            {"kind": kind, "params": params, "salt": ARTIFACT_SALT}
        )

    def materialize(self, kind: str, params: dict, builder) -> WorkloadArtifact:
        """Return the artifact for ``(kind, params)``, building at most once.

        ``builder(directory)`` must write the payload files into
        ``directory`` and may return a JSON-serializable dict of extra
        metadata (per-file work units, auxiliary file names, ...) that
        is stored in the manifest and handed back on every later hit.
        """
        fingerprint = self.fingerprint(kind, params)
        artifact = self.load(fingerprint)
        if artifact is None:
            with self._tracer.span("workload.build", label=kind):
                artifact, built = self.publish(fingerprint, builder)
            if built:
                self.builds += 1
                self._m_builds.inc()
                return artifact
        self.hits += 1
        self._m_hits.inc()
        return artifact

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

    def stats(self) -> "dict[str, int]":
        entries, size = self.usage()
        return {
            "hits": self.hits,
            "builds": self.builds,
            "entries": entries,
            "bytes": size,
        }


def default_artifact_store(
    root: "str | Path | None" = None,
) -> "WorkloadArtifactStore | None":
    """A :class:`WorkloadArtifactStore` under ``<cache-root>/workloads``
    (:func:`repro.sweep.cache.cache_root`), or ``None`` when caching is
    off — the writers then generate in place."""
    root = cache_root(root)
    return None if root is None else WorkloadArtifactStore(root / "workloads")


def resolve_store(
    store: "WorkloadArtifactStore | str | None",
) -> "WorkloadArtifactStore | None":
    """Normalize a ``store=`` argument: ``"auto"`` consults the default
    policy, ``None`` disables the store, anything else is used as-is."""
    return default_artifact_store() if store == "auto" else store


def write_inputs(store, kind: str, params: dict, in_dir: Path, build, attached):
    """Write one dataset's input files into ``in_dir``; return its value.

    ``build(directory)`` writes the payload files into ``directory`` and
    returns ``(value, extra)``: the in-memory dataset handed back to the
    caller and a JSON-serializable dict for the artifact's manifest.
    ``store`` is a writer's ``store=`` argument: ``"auto"`` (the
    :func:`default_artifact_store` policy), a store, or ``None``
    (:func:`resolve_store`).  With no store, ``build`` runs in
    ``in_dir`` and its value is returned.  Otherwise the dataset is
    materialized once under ``(kind, params)`` and attached to
    ``in_dir`` as hard links into the store (treat them as read-only),
    and the value is ``attached(value, extra)`` — ``value`` is ``None``
    when the store already held the dataset and the builder did not run.
    """
    store = resolve_store(store)
    if store is None:
        in_dir.mkdir(parents=True, exist_ok=True)
        return build(in_dir)[0]
    built = []

    def builder(directory: Path) -> dict:
        value, extra = build(directory)
        built.append(value)
        return extra

    artifact = store.materialize(kind, params, builder)
    store.attach(artifact, in_dir)
    return attached(built[0] if built else None, artifact.extra)
