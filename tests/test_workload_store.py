"""Workload artifact store: materialize-once, attach, and parity.

The store must be invisible in every observable way except speed: same
seed → byte-identical artifacts, fresh-generation and store-attached
paths produce identical files and specs, and ``REPRO_NO_CACHE`` opts
out entirely.
"""

import os

import numpy as np
import pytest

from repro.workloads.genome import write_cap3_workload
from repro.workloads.protein import write_blast_workload
from repro.workloads.pubchem import write_gtm_workload
from repro.workloads.store import (
    WorkloadArtifactStore,
    default_artifact_store,
    resolve_store,
)


def _file_bytes(directory):
    return {
        p.name: p.read_bytes()
        for p in sorted((directory / "in").iterdir())
    }


class TestStoreCore:
    def test_materialize_builds_exactly_once(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        calls = []

        def build(target):
            calls.append(target)
            (target / "data.txt").write_text("payload")
            return {"meta": 7}

        a = store.materialize("demo", {"x": 1}, build)
        b = store.materialize("demo", {"x": 1}, build)
        assert len(calls) == 1
        assert a.path == b.path
        assert b.extra == {"meta": 7}
        assert b.files == ("data.txt",)
        assert store.builds == 1 and store.hits == 1

    def test_different_params_different_artifacts(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")

        def build(target):
            (target / "data.txt").write_text("payload")

        a = store.materialize("demo", {"x": 1}, build)
        b = store.materialize("demo", {"x": 2}, build)
        assert a.path != b.path
        assert store.builds == 2

    def test_attach_shares_bytes(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        artifact = store.materialize(
            "demo", {}, lambda t: (t / "data.txt").write_text("shared")
        )
        dest = tmp_path / "dest"
        store.attach(artifact, dest)
        assert (dest / "data.txt").read_text() == "shared"
        # Same filesystem: attach hard-links, one inode for all copies.
        assert (
            os.stat(dest / "data.txt").st_ino
            == os.stat(artifact.file_path("data.txt")).st_ino
        )

    def test_partial_artifact_rebuilds(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")

        def build(target):
            (target / "a.txt").write_text("a")
            (target / "b.txt").write_text("b")

        artifact = store.materialize("demo", {}, build)
        artifact.file_path("b.txt").unlink()  # simulate corruption
        again = store.materialize("demo", {}, build)
        assert again.file_path("b.txt").read_text() == "b"
        assert store.builds == 2

    def test_clear_and_stats(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        store.materialize(
            "demo", {"x": 1}, lambda t: (t / "d.txt").write_text("x")
        )
        store.materialize(
            "demo", {"x": 2}, lambda t: (t / "d.txt").write_text("y")
        )
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == 0


class TestPolicy:
    def test_no_cache_disables_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert default_artifact_store() is None
        assert resolve_store("auto") is None

    def test_cache_dir_relocates_store(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        store = default_artifact_store()
        assert store.root == tmp_path / "c" / "workloads"

    def test_store_is_sibling_of_result_cache(self, tmp_path):
        store = default_artifact_store(tmp_path)
        assert store.root == tmp_path / "workloads"

    def test_resolve_passthrough_and_none(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path)
        assert resolve_store(store) is store
        assert resolve_store(None) is None


@pytest.mark.parametrize("app", ["cap3", "blast", "gtm"])
class TestGeneratorParity:
    """Same seed → byte-identical artifacts; fresh vs store paths agree."""

    def _write(self, app, directory, store):
        if app == "cap3":
            return write_cap3_workload(
                directory, 3, reads_per_file=8, seed=5, store=store
            )
        if app == "blast":
            specs, _db = write_blast_workload(
                directory, 2, queries_per_file=4, db_sequences=10, seed=5,
                store=store,
            )
            return specs
        specs, _sample = write_gtm_workload(
            directory, 2, points_per_file=50, dimensions=6,
            sample_points=40, seed=5, store=store,
        )
        return specs

    def test_same_seed_is_byte_identical(self, app, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        self._write(app, tmp_path / "one", store)
        self._write(app, tmp_path / "two", store)
        assert _file_bytes(tmp_path / "one") == _file_bytes(tmp_path / "two")
        assert store.builds == 1 and store.hits == 1

    def test_fresh_and_store_paths_agree(self, app, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        fresh_specs = self._write(app, tmp_path / "fresh", None)
        # Run the store path twice: a cold build and a warm attach must
        # both match in-place generation byte for byte.
        cold_specs = self._write(app, tmp_path / "cold", store)
        warm_specs = self._write(app, tmp_path / "warm", store)
        fresh = _file_bytes(tmp_path / "fresh")
        cold = _file_bytes(tmp_path / "cold")
        warm = _file_bytes(tmp_path / "warm")
        # The store path may add shared auxiliary files (database.fa,
        # sample.npy); every file the fresh path wrote must match.
        for name, data in fresh.items():
            assert cold[name] == data, name
            assert warm[name] == data, name
        assert cold == warm

        def comparable(specs):
            return [
                (s.task_id, os.path.basename(s.input_key), s.input_size,
                 s.output_size, s.work_units)
                for s in specs
            ]

        assert comparable(fresh_specs) == comparable(cold_specs)
        assert comparable(cold_specs) == comparable(warm_specs)


class TestReturnedAuxiliaries:
    def test_blast_db_identical_on_hit(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        _, cold_db = write_blast_workload(
            tmp_path / "a", 2, queries_per_file=4, db_sequences=10,
            seed=3, store=store,
        )
        _, warm_db = write_blast_workload(
            tmp_path / "b", 2, queries_per_file=4, db_sequences=10,
            seed=3, store=store,
        )
        assert warm_db.ids == cold_db.ids
        assert warm_db.seqs == cold_db.seqs
        for column in ("keys", "seq", "pos"):
            warm, cold = (getattr(db.postings, column) for db in (warm_db, cold_db))
            assert warm.dtype == cold.dtype
            assert np.array_equal(warm, cold)

    def test_gtm_sample_identical_and_readonly(self, tmp_path):
        store = WorkloadArtifactStore(tmp_path / "store")
        _, fresh = write_gtm_workload(
            tmp_path / "a", 2, points_per_file=20, dimensions=4,
            sample_points=30, seed=3, store=None,
        )
        _, shared = write_gtm_workload(
            tmp_path / "b", 2, points_per_file=20, dimensions=4,
            sample_points=30, seed=3, store=store,
        )
        assert np.array_equal(fresh, shared)
        # Attached samples are memory-mapped read-only.
        with pytest.raises(ValueError):
            shared[0, 0] = 1.0
