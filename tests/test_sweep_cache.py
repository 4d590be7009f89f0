"""Content-addressed cache: key sensitivity, hit/miss counters, policy.

The cache key must move when anything that could change a point's
result moves — any perf-model coefficient, any backend config field,
the task set, the version salt — and must NOT move for an identical
rerun.  All assertions go through the ``stats()`` counters, the same
surface ``python -m repro cache stats`` exposes.
"""

import dataclasses
import json

import pytest

from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.sweep.cache import MANIFEST, ContentStore, ResultCache, default_cache
from repro.sweep.fingerprint import point_fingerprint, task_digest
from repro.sweep.points import point_for, run_point
from repro.workloads.genome import cap3_task_specs


def _tasks():
    return cap3_task_specs(4, reads_per_file=100)


def _backend(**overrides):
    kwargs = dict(
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        fault_plan=FaultPlan.none(),
        seed=17,
    )
    kwargs.update(overrides)
    return make_backend("ec2", **kwargs)


def _spec(app=None, backend=None, tasks=None):
    return point_for(
        app or get_application("cap3"),
        backend or _backend(),
        tasks if tasks is not None else _tasks(),
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestKeySensitivity:
    def test_identical_rerun_hits(self, cache):
        spec = _spec()
        cache.put(spec, run_point(spec))
        assert cache.get(_spec()) is not None
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 0, 1)
        assert stats.entries == 1

    def test_perf_model_field_change_misses(self, cache):
        spec = _spec()
        cache.put(spec, run_point(spec))
        app = get_application("cap3")
        tweaked = dataclasses.replace(
            app,
            perf_model=dataclasses.replace(
                app.perf_model,
                cpu_ghz_seconds_per_unit=(
                    app.perf_model.cpu_ghz_seconds_per_unit * 1.01
                ),
            ),
        )
        assert cache.get(_spec(app=tweaked)) is None
        assert cache.stats().misses == 1

    def test_backend_config_field_change_misses(self, cache):
        spec = _spec()
        cache.put(spec, run_point(spec))
        assert cache.get(_spec(backend=_backend(seed=18))) is None
        assert cache.get(_spec(backend=_backend(n_instances=4))) is None
        assert cache.get(
            _spec(backend=_backend(instance_type="XL", workers_per_instance=4))
        ) is None
        assert cache.stats().misses == 3

    def test_task_set_change_misses(self, cache):
        spec = _spec()
        cache.put(spec, run_point(spec))
        tasks = _tasks()
        tasks[0] = dataclasses.replace(
            tasks[0], work_units=tasks[0].work_units + 1
        )
        assert cache.get(_spec(tasks=tasks)) is None
        assert cache.get(_spec(tasks=_tasks()[:-1])) is None
        assert cache.stats().misses == 2

    def test_salt_change_misses(self, cache, monkeypatch):
        spec = _spec()
        cache.put(spec, run_point(spec))
        monkeypatch.setattr(
            "repro.sweep.fingerprint.CACHE_SALT", "repro-sweep-v999"
        )
        assert cache.get(_spec()) is None
        assert cache.stats().misses == 1

    def test_fault_free_spellings_share_a_key(self):
        # FaultPlan() is fault-free, so passing FaultPlan.none() is a
        # no-op: both spellings address the same cached result.
        bare = dict(instance_type="HCXL", n_instances=2, seed=17)
        spelled = point_for(
            get_application("cap3"),
            make_backend("ec2", fault_plan=FaultPlan.none(), **bare),
            _tasks(),
        )
        default = point_for(
            get_application("cap3"), make_backend("ec2", **bare), _tasks()
        )
        assert point_fingerprint(spelled) == point_fingerprint(default)

    def test_task_digest_covers_every_field(self):
        tasks = _tasks()
        base = task_digest(tasks)
        for field in (
            "task_id", "input_key", "output_key", "input_size",
            "output_size", "work_units",
        ):
            value = getattr(tasks[0], field)
            bumped = value + 1 if isinstance(value, (int, float)) \
                else value + "x"
            mutated = [dataclasses.replace(tasks[0], **{field: bumped})] \
                + tasks[1:]
            assert task_digest(mutated) != base, field


class TestCacheStore:
    def test_roundtrip_preserves_result(self, cache):
        spec = _spec()
        result = run_point(spec)
        cache.put(spec, result)
        assert cache.get(spec) == result

    def test_corrupted_entry_degrades_to_miss(self, cache):
        spec = _spec()
        cache.put(spec, run_point(spec))
        path = cache.entry_dir(point_fingerprint(spec)) / MANIFEST
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None

    def test_fingerprint_mismatch_degrades_to_miss(self, cache):
        """A hash collision (or hand-edited file) must not serve a wrong
        result: the stored fingerprint is verified on read."""
        spec = _spec()
        cache.put(spec, run_point(spec))
        path = cache.entry_dir(point_fingerprint(spec)) / MANIFEST
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["fingerprint"]["salt"] = "tampered"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(spec) is None

    def test_clear_empties_the_store(self, cache):
        spec = _spec()
        cache.put(spec, run_point(spec))
        assert cache.clear() == 1
        assert cache.stats().entries == 0
        assert cache.get(spec) is None


class TestContentStore:
    """The one entry mechanism both faces share."""

    @staticmethod
    def _build(text):
        def build(directory):
            (directory / "data.txt").write_text(text)
            return {"text": text}

        return build

    def test_publish_adopts_a_valid_entry_and_replaces_a_corrupt_one(
        self, tmp_path
    ):
        store = ContentStore(tmp_path)
        first, built = store.publish({"x": 1}, self._build("one"))
        assert built and first.extra == {"text": "one"}
        # A concurrent writer that loses the rename adopts the winner.
        again, built = store.publish({"x": 1}, self._build("two"))
        assert not built and again.extra == {"text": "one"}
        assert again.file_path("data.txt").read_text() == "one"
        (first.path / MANIFEST).write_text("{not json", encoding="utf-8")
        assert store.load({"x": 1}) is None
        fresh, built = store.publish({"x": 1}, self._build("three"))
        assert built and store.load({"x": 1}).extra == {"text": "three"}
        # No temp directory is left behind.
        assert list(first.path.parent.iterdir()) == [first.path]

    def test_clear_leaves_files_that_are_not_entries(self, tmp_path):
        store = ContentStore(tmp_path)
        store.publish({"x": 1}, self._build("one"))
        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / MANIFEST).write_text("{}")
        (tmp_path / "ab").mkdir()
        (tmp_path / "ab" / "cd.json").write_text("{}")
        assert store.usage()[0] == 1
        assert store.clear() == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab", "notes"]
        assert (tmp_path / "notes" / MANIFEST).is_file()
        assert (tmp_path / "ab" / "cd.json").is_file()


class TestDefaultCachePolicy:
    def test_no_cache_env_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert default_cache() is None

    def test_cache_dir_env_relocates(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path / "elsewhere"

    def test_explicit_root_wins(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = default_cache(tmp_path / "explicit")
        assert cache.root == tmp_path / "explicit"
