"""One content-addressed store under ``.repro-cache/``.

Every cached thing is an *entry*: the directory ``<root>/<kk>/<key>/``
(``key`` = SHA-256 of the entry's canonical JSON fingerprint, ``kk`` =
its first two hex chars) holding its payload files and a
``MANIFEST.json`` with the fingerprint, the file names and an ``extra``
dict.  Reads verify the fingerprint and the files, so a hash collision
or a corrupted or partly deleted entry degrades to a miss, never to a
wrong answer; writes publish a finished temp directory with one rename.

:class:`ResultCache` keeps each sweep point's :class:`PointResult` as an
entry with no files (the result is the ``extra``);
:class:`repro.workloads.store.WorkloadArtifactStore` keeps generated
datasets under ``<root>/workloads/``.  ``stats`` and ``clear`` cover
every entry beneath a root, so ``python -m repro cache {stats,clear}``
manages both.  :func:`cache_root` is the one root policy
(``REPRO_NO_CACHE``, ``REPRO_CACHE_DIR``, ``./.repro-cache``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.context import current as _current_obs
from repro.sweep.fingerprint import cache_key, point_fingerprint
from repro.sweep.points import PointResult, PointSpec

__all__ = [
    "CacheStats",
    "ContentStore",
    "Entry",
    "ResultCache",
    "cache_root",
    "default_cache",
]

DEFAULT_CACHE_DIRNAME = ".repro-cache"
MANIFEST = "MANIFEST.json"
_KEY = re.compile(r"[0-9a-f]{64}")


def cache_root(
    root: "str | Path | None" = None, *, always: bool = False
) -> "Path | None":
    """The one cache-root policy: ``None`` (caching off) when
    ``REPRO_NO_CACHE`` is set, unless ``always``; else ``root``,
    ``REPRO_CACHE_DIR`` or ``./.repro-cache``, in that order."""
    if os.environ.get("REPRO_NO_CACHE") and not always:
        return None
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIRNAME
    return Path(root)


@dataclass(frozen=True)
class Entry:
    """One published entry: its directory, payload file names (in
    manifest order), and the extra metadata its writer recorded."""

    path: Path
    files: "tuple[str, ...]"
    extra: dict = field(default_factory=dict)

    def file_path(self, name: str) -> Path:
        return self.path / name


class ContentStore:
    """A directory of content-addressed entries."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    def entry_dir(self, fingerprint) -> Path:
        key = cache_key(fingerprint)
        return self.root / key[:2] / key

    def load(self, fingerprint) -> "Entry | None":
        """The verified entry for ``fingerprint``, or ``None``."""
        target = self.entry_dir(fingerprint)
        try:
            manifest = json.loads(
                (target / MANIFEST).read_text(encoding="utf-8")
            )
            stored, files = manifest["fingerprint"], manifest["files"]
            extra = manifest["extra"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if stored != fingerprint:
            return None
        if not isinstance(files, list) or not isinstance(extra, dict):
            return None
        if any(not (target / name).is_file() for name in files):
            return None  # partly deleted entry: rebuild
        return Entry(path=target, files=tuple(files), extra=extra)

    def publish(self, fingerprint, build) -> "tuple[Entry, bool]":
        """Publish what ``build(directory)`` writes (it may return a
        JSON-serializable ``extra`` dict) as the entry for ``fingerprint``.
        Returns the entry and ``False`` if a concurrent writer's valid
        entry was adopted instead."""
        target = self.entry_dir(fingerprint)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(
            tempfile.mkdtemp(dir=target.parent, prefix=f"{target.name}.tmp")
        )
        try:
            extra = build(tmp) or {}
            files = sorted(p.name for p in tmp.iterdir())
            # Compact: an indented dump takes json's pure-Python encoder.
            (tmp / MANIFEST).write_text(
                json.dumps(
                    {"fingerprint": fingerprint, "files": files, "extra": extra},
                    sort_keys=True,
                    separators=(",", ":"),
                ),
                encoding="utf-8",
            )
            try:
                os.rename(tmp, target)
            except OSError:
                # Lost the race to a concurrent writer (or a stale
                # corrupt entry occupies the slot): adopt theirs if
                # valid, else replace it.
                entry = self.load(fingerprint)
                if entry is not None:
                    shutil.rmtree(tmp, ignore_errors=True)
                    return entry, False
                shutil.rmtree(target, ignore_errors=True)
                os.rename(tmp, target)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return Entry(path=target, files=tuple(files), extra=extra), True

    # -- maintenance ------------------------------------------------------
    def _entries(self) -> "list[Path]":
        """Every entry beneath the root, whichever face wrote it, plus
        the result files of the layout before entry directories
        (``<kk>/<key>.json``), which nothing reads any more.  Only
        entry-shaped paths count, so ``clear`` on a mistaken root never
        removes unrelated files."""
        if not self.root.is_dir():
            return []
        found = []
        for path in self.root.rglob("*.json"):
            if path.name == MANIFEST:
                path = path.parent
            elif not path.is_file():
                continue
            key = path.name.removesuffix(".json")
            if _KEY.fullmatch(key) and path.parent.name == key[:2]:
                found.append(path)
        return sorted(found)

    def usage(self) -> "tuple[int, int]":
        """``(entries, bytes)`` on disk beneath the root."""
        entries = self._entries()
        size = 0
        for entry in entries:
            for path in entry.iterdir() if entry.is_dir() else [entry]:
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        return len(entries), size

    def clear(self) -> int:
        """Remove every entry beneath the root; returns how many."""
        entries = self._entries()
        for entry in entries:
            if entry.is_dir():
                shutil.rmtree(entry, ignore_errors=True)
            else:
                entry.unlink(missing_ok=True)
            parent = entry.parent
            while parent != self.root:
                try:
                    parent.rmdir()
                except OSError:
                    break  # not empty yet / already gone
                parent = parent.parent
        return len(entries)


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime, plus a
    snapshot of what is on disk."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    entries: int = 0
    bytes: int = 0


class ResultCache(ContentStore):
    """Content-addressed :class:`PointResult` entries, one per point."""

    def __init__(self, root: "str | Path"):
        super().__init__(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        obs = _current_obs()
        self._tracer = obs.tracer
        self._m_hits = obs.metrics.counter("sweep.cache.hits")
        self._m_misses = obs.metrics.counter("sweep.cache.misses")

    def get(
        self, spec: PointSpec, fingerprint: "dict | None" = None
    ) -> "PointResult | None":
        """The cached result of ``spec``; ``fingerprint``, when given, is
        its :func:`point_fingerprint`, so a caller that also puts the
        result computes it once."""
        if fingerprint is None:
            fingerprint = point_fingerprint(spec)
        with self._tracer.span("cache.lookup", label=spec.label):
            result = self._get(fingerprint)
        if result is None:
            self.misses += 1
            self._m_misses.inc()
        else:
            self.hits += 1
            self._m_hits.inc()
        return result

    def _get(self, fingerprint: dict) -> "PointResult | None":
        entry = self.load(fingerprint)
        if entry is None:
            return None
        try:
            return PointResult.from_dict(entry.extra)
        except (KeyError, TypeError):
            return None

    def put(
        self,
        spec: PointSpec,
        result: PointResult,
        fingerprint: "dict | None" = None,
    ) -> None:
        if fingerprint is None:
            fingerprint = point_fingerprint(spec)
        self.publish(fingerprint, lambda _: result.to_dict())
        self.stores += 1

    def stats(self) -> CacheStats:
        entries, size = self.usage()
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            entries=entries,
            bytes=size,
        )


def default_cache(root: "str | Path | None" = None) -> "ResultCache | None":
    """A :class:`ResultCache` at :func:`cache_root`, or ``None`` when
    caching is off."""
    root = cache_root(root)
    return None if root is None else ResultCache(root)
