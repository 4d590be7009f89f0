"""Tests for the Hadoop substrate: HDFS, input format, job simulator."""

import numpy as np
import pytest

from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.hadoop import (
    FileNameInputFormat,
    HadoopJobConfig,
    HadoopSimulator,
    HdfsClient,
    MiniHadoop,
)
from repro.workloads.genome import cap3_task_specs


class TestHdfs:
    def make(self, n_nodes=8, replication=3, seed=0):
        return HdfsClient(
            n_nodes, np.random.default_rng(seed), replication=replication
        )

    def test_put_places_distinct_replicas(self):
        hdfs = self.make()
        f = hdfs.put("a", 1000)
        assert len(f.replicas) == 3
        assert len(set(f.replicas)) == 3
        assert all(0 <= r < 8 for r in f.replicas)

    def test_replication_capped_at_nodes(self):
        hdfs = HdfsClient(2, np.random.default_rng(0), replication=3)
        f = hdfs.put("a", 10)
        assert len(f.replicas) == 2

    def test_duplicate_put_rejected(self):
        hdfs = self.make()
        hdfs.put("a", 10)
        with pytest.raises(FileExistsError):
            hdfs.put("a", 10)

    def test_local_read_faster_than_remote(self):
        hdfs = self.make()
        hdfs.put("a", 10_000_000)
        local_node = hdfs.locations("a")[0]
        remote_node = next(
            n for n in range(8) if n not in hdfs.locations("a")
        )
        t_local = hdfs.read_seconds("a", local_node)
        t_remote = hdfs.read_seconds("a", remote_node)
        assert t_remote > t_local
        assert hdfs.stats.local_reads == 1
        assert hdfs.stats.remote_reads == 1

    def test_locality_fraction(self):
        hdfs = self.make()
        hdfs.put("a", 100)
        node = hdfs.locations("a")[0]
        hdfs.read_seconds("a", node)
        assert hdfs.locality_fraction == 1.0

    def test_placement_roughly_balanced(self):
        hdfs = self.make(n_nodes=8, seed=1)
        for i in range(400):
            hdfs.put(f"f{i}", 1000)
        per_node = hdfs.node_utilization()
        # 400 files x 3 replicas over 8 nodes: 150 expected per node.
        assert per_node.min() > 100_000
        assert per_node.max() < 200_000

    def test_validation(self):
        with pytest.raises(ValueError):
            HdfsClient(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            HdfsClient(2, np.random.default_rng(0), replication=0)
        hdfs = self.make()
        with pytest.raises(ValueError):
            hdfs.put("neg", -1)
        with pytest.raises(ValueError):
            hdfs.write_seconds(-1)


class TestInputFormat:
    def test_splits_one_per_file(self, tmp_path):
        for name in ("b.fa", "a.fa", "c.fa"):
            (tmp_path / name).write_text(">x\nACGT\n")
        splits = FileNameInputFormat("*.fa").get_splits(tmp_path)
        assert [s.path.split("/")[-1] for s in splits] == ["a.fa", "b.fa", "c.fa"]
        assert all(s.size > 0 for s in splits)

    def test_record_reader_yields_name_and_path(self, tmp_path):
        (tmp_path / "task.fa").write_text(">x\nACGT\n")
        fmt = FileNameInputFormat()
        (split,) = fmt.get_splits(tmp_path)
        reader = fmt.create_record_reader(split)
        assert reader.progress == 0.0
        records = list(reader)
        assert records == [("task.fa", str(tmp_path / "task.fa"))]
        assert reader.progress == 1.0

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no input files"):
            FileNameInputFormat().get_splits(tmp_path)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            FileNameInputFormat().get_splits(tmp_path / "nope")

    def test_pattern_filters(self, tmp_path):
        (tmp_path / "a.fa").write_text(">x\nA\n")
        (tmp_path / "b.txt").write_text("not fasta")
        splits = FileNameInputFormat("*.fa").get_splits(tmp_path)
        assert len(splits) == 1


def hadoop_config(**kwargs):
    defaults = dict(cluster=get_cluster("cap3-baremetal").subset(4), seed=5)
    defaults.update(kwargs)
    return HadoopJobConfig(**defaults)


@pytest.fixture
def cap3():
    return get_application("cap3")


class TestHadoopSimulator:
    def test_all_tasks_complete(self, cap3):
        tasks = cap3_task_specs(48, reads_per_file=200)
        result = HadoopSimulator(hadoop_config()).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        assert result.makespan_seconds > 0
        assert result.backend == "hadoop"

    def test_data_locality_majority_local(self, cap3):
        """With replication 3 over 4 nodes and locality-aware scheduling,
        nearly every read should be local."""
        tasks = cap3_task_specs(64, reads_per_file=200)
        result = HadoopSimulator(hadoop_config()).run(cap3, tasks)
        assert result.extras["locality_fraction"] > 0.9

    def test_locality_off_causes_remote_reads(self, cap3):
        tasks = cap3_task_specs(64, reads_per_file=200)
        off = HadoopSimulator(hadoop_config(locality_aware=False)).run(
            cap3, tasks
        )
        on = HadoopSimulator(hadoop_config(locality_aware=True)).run(cap3, tasks)
        assert off.extras["locality_fraction"] < on.extras["locality_fraction"]

    def test_deterministic(self, cap3):
        tasks = cap3_task_specs(24, reads_per_file=200)
        a = HadoopSimulator(hadoop_config(seed=9)).run(cap3, tasks)
        b = HadoopSimulator(hadoop_config(seed=9)).run(cap3, tasks)
        assert a.makespan_seconds == b.makespan_seconds  # repro: noqa[RPR005] exact: determinism contract

    def test_more_nodes_faster(self, cap3):
        tasks = cap3_task_specs(64, reads_per_file=200)
        small = HadoopSimulator(
            hadoop_config(cluster=get_cluster("cap3-baremetal").subset(2))
        ).run(cap3, tasks)
        large = HadoopSimulator(
            hadoop_config(cluster=get_cluster("cap3-baremetal").subset(8))
        ).run(cap3, tasks)
        assert large.makespan_seconds < small.makespan_seconds / 2.0

    def test_task_failures_retried(self, cap3):
        tasks = cap3_task_specs(32, reads_per_file=200)
        result = HadoopSimulator(
            hadoop_config(task_failure_probability=0.15)
        ).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        attempts = [r.attempt for r in result.records]
        assert max(attempts) > 1  # some retries happened

    def test_backups_do_not_use_up_the_failure_budget(self, cap3):
        """A backup is a dispatch, not a failure.  Here cap3-00016's
        primary fails once while its backup runs; with max_attempts=2
        that used to count as two failed attempts and abort the job."""
        tasks = cap3_task_specs(20, reads_per_file=200, seed=0)
        config = HadoopJobConfig(
            cluster=get_cluster("cap3-baremetal").subset(2),
            seed=0,
            task_failure_probability=0.2,
            max_attempts=2,
        )
        result = HadoopSimulator(config).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        (record,) = [r for r in result.records if r.task_id == "cap3-00016"]
        assert record.speculative and record.won and record.attempt == 2

    def test_a_failed_attempt_with_a_running_backup_is_not_requeued(
        self, cap3, monkeypatch
    ):
        """No task ever has more than one attempt plus one backup live.
        Here cap3-00016's primary fails while its backup runs; putting
        the task back on the queue used to start a third attempt (and
        a backup of that), which were still running when the job
        ended."""
        from repro.hadoop.job import _HadoopRun

        peak: dict[str, int] = {}
        sample = _HadoopRun._sample_running

        def watch(run):
            for task_id, attempts in run.running.items():
                peak[task_id] = max(peak.get(task_id, 0), len(attempts))
            sample(run)

        monkeypatch.setattr(_HadoopRun, "_sample_running", watch)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        tasks = cap3_task_specs(20)
        sim = HadoopSimulator(
            HadoopJobConfig(
                cluster=get_cluster("cap3-baremetal").subset(2),
                seed=0,
                task_failure_probability=0.2,
                max_attempts=2,
            )
        )
        result = sim.run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}
        assert peak["cap3-00016"] == 2
        assert max(peak.values()) <= 2
        report = sim.last_environment.sanitizer_report()
        assert report.scheduled_processes == 3  # losing backups only

    def test_a_primary_whose_backup_failed_is_backed_up_again(self, cap3):
        """cap3-00047 straggles from time 0 and its backup (attempt 2)
        fails at 93.8 s.  The task is not re-queued while its primary
        runs, so the primary must be eligible for another backup: that
        one (attempt 3) wins long before the primary's 270 s finish."""
        config = HadoopJobConfig(
            cluster=get_cluster("cap3-baremetal").subset(4),
            seed=11,
            task_failure_probability=0.2,
            straggler_probability=0.3,
            straggler_slowdown=6.0,
            max_attempts=10,
            speculative_progress_threshold=0.95,
            scheduling_policy="lpt",
            locality_aware=False,
        )
        tasks = cap3_task_specs(
            48, reads_per_file=200, inhomogeneous=True, seed=11
        )
        result = HadoopSimulator(config).run(cap3, tasks)
        (winner,) = [
            r for r in result.records if r.task_id == "cap3-00047" and r.won
        ]
        assert winner.speculative and winner.attempt == 3
        assert result.makespan_seconds < 200

    def test_failed_attempts_still_exhaust_the_budget(self, cap3):
        tasks = cap3_task_specs(20, reads_per_file=200, seed=0)
        config = hadoop_config(
            task_failure_probability=0.9,
            max_attempts=2,
            speculative_execution=False,
        )
        with pytest.raises(RuntimeError, match="failed 2 attempts"):
            HadoopSimulator(config).run(cap3, tasks)

    def test_speculative_execution_rescues_stragglers(self, cap3):
        tasks = cap3_task_specs(32, reads_per_file=200)
        with_spec = HadoopSimulator(
            hadoop_config(
                straggler_probability=0.1,
                straggler_slowdown=8.0,
                speculative_execution=True,
            )
        ).run(cap3, tasks)
        without = HadoopSimulator(
            hadoop_config(
                straggler_probability=0.1,
                straggler_slowdown=8.0,
                speculative_execution=False,
            )
        ).run(cap3, tasks)
        assert with_spec.extras["speculative_attempts"] > 0
        assert with_spec.makespan_seconds < without.makespan_seconds

    # (2, 0.2, 29) retries an attempt after a scan came back empty, so
    # a backup is launched only because the cache was cleared.
    @pytest.mark.parametrize(
        "nodes,failure_probability,seed", [(4, 0.1, 3), (4, 0.1, 11), (2, 0.2, 29)]
    )
    def test_empty_backup_scan_cache_changes_nothing(
        self, cap3, monkeypatch, nodes, failure_probability, seed
    ):
        """Idle slots skip the speculation scan while nothing changed
        since it last came back empty; forcing the scan every time gives
        the same run."""
        from repro.hadoop.job import _HadoopRun

        tasks = cap3_task_specs(40, reads_per_file=200, inhomogeneous=True)
        config = hadoop_config(
            cluster=get_cluster("cap3-baremetal").subset(nodes),
            seed=seed,
            straggler_probability=0.15,
            straggler_slowdown=6.0,
            task_failure_probability=failure_probability,
            max_attempts=10,
            speculative_execution=True,
        )
        cached = HadoopSimulator(config).run(cap3, tasks)
        # A data descriptor that always reads False and ignores writes.
        monkeypatch.setattr(
            _HadoopRun,
            "_no_backup_candidate",
            property(lambda run: False, lambda run, value: None),
            raising=False,
        )
        scanned = HadoopSimulator(config).run(cap3, tasks)
        assert cached.to_dict() == scanned.to_dict()
        assert cached.extras["speculative_attempts"] > 0
        assert max(r.attempt for r in cached.records) > 1

    def test_sequential_estimate_gives_high_efficiency(self, cap3):
        tasks = cap3_task_specs(64, reads_per_file=200)
        sim = HadoopSimulator(hadoop_config())
        t1 = sim.estimate_sequential_time(cap3, tasks)
        result = sim.run(cap3, tasks)
        cores = sim.config.total_slots
        efficiency = t1 / (cores * result.makespan_seconds)
        assert 0.7 < efficiency <= 1.0

    def test_lpt_policy_still_completes_everything(self, cap3):
        tasks = cap3_task_specs(48, reads_per_file=200, inhomogeneous=True)
        result = HadoopSimulator(
            hadoop_config(scheduling_policy="lpt")
        ).run(cap3, tasks)
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="scheduling_policy"):
            hadoop_config(scheduling_policy="random")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hadoop_config(map_slots_per_node=0)
        with pytest.raises(ValueError):
            hadoop_config(map_slots_per_node=99)
        with pytest.raises(ValueError):
            hadoop_config(task_failure_probability=1.0)
        with pytest.raises(ValueError):
            hadoop_config(max_attempts=0)

    def test_gtm_cluster_uses_8_of_24_slots(self):
        config = HadoopJobConfig(cluster=get_cluster("gtm-hadoop"))
        assert config.slots_per_node == 8

    def test_empty_tasks_rejected(self, cap3):
        with pytest.raises(ValueError):
            HadoopSimulator(hadoop_config()).run(cap3, [])


class TestMiniHadoop:
    def test_real_map_only_job(self, tmp_path):
        from repro.apps.executables import Cap3Executable
        from repro.workloads.genome import write_cap3_workload

        write_cap3_workload(tmp_path, n_files=4, reads_per_file=10)
        result = MiniHadoop(n_slots=2).run_job(
            Cap3Executable(), tmp_path / "in", tmp_path / "mapout", "*.fa"
        )
        assert result.n_tasks == 4
        assert len(result.completed_task_ids) == 4
        for record in result.records:
            out = tmp_path / "mapout" / record.task_id
            assert out.exists()
            assert out.stat().st_size > 0

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            MiniHadoop(n_slots=0)
        with pytest.raises(ValueError):
            MiniHadoop(max_attempts=0)

    def test_flaky_executable_retried(self, tmp_path):
        """A map task that fails on its first attempts re-executes, as
        Hadoop re-runs failed tasks."""
        from repro.apps.executables import Cap3Executable, Executable
        from repro.workloads.genome import write_cap3_workload

        write_cap3_workload(tmp_path, n_files=3, reads_per_file=8)

        class FlakyOnce(Executable):
            name = "flaky-cap3"

            def __init__(self):
                self.failed: set[str] = set()
                self.inner = Cap3Executable()

            def run(self, input_path, output_path):
                key = str(input_path)
                if key not in self.failed:
                    self.failed.add(key)
                    raise IOError("transient failure")
                self.inner.run(input_path, output_path)

        result = MiniHadoop(n_slots=2, max_attempts=3).run_job(
            FlakyOnce(), tmp_path / "in", tmp_path / "retryout", "*.fa"
        )
        assert len(result.completed_task_ids) == 3
        assert all(r.attempt == 2 for r in result.records)

    def test_permanently_failing_task_fails_job(self, tmp_path):
        from repro.apps.executables import Executable
        from repro.workloads.genome import write_cap3_workload

        write_cap3_workload(tmp_path, n_files=2, reads_per_file=8)

        class AlwaysFails(Executable):
            name = "broken"

            def run(self, input_path, output_path):
                raise IOError("permanent failure")

        with pytest.raises(RuntimeError, match="failed 2 attempts"):
            MiniHadoop(n_slots=2, max_attempts=2).run_job(
                AlwaysFails(), tmp_path / "in", tmp_path / "failout", "*.fa"
            )
