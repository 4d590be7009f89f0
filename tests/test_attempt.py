"""The task attempt every backend shares (``repro.core.attempt``)."""

import math

import pytest

from repro.cluster import get_cluster
from repro.core.attempt import (
    Attempt,
    add_phases,
    draw_failure,
    draw_service,
)
from repro.core.task import RunResult, TaskRecord, TaskSpec
from repro.dryad import DryadLinqConfig
from repro.hadoop import HadoopJobConfig
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.rng import RngRegistry


def hadoop_config(**fault):
    return HadoopJobConfig(cluster=get_cluster("cap3-baremetal"), **fault)


def dryad_config(**fault):
    return DryadLinqConfig(
        cluster=get_cluster("cap3-baremetal-windows"), **fault
    )


class TestFaultSettings:
    @pytest.mark.parametrize(
        ("make", "field", "value"),
        [
            (dryad_config, "vertex_failure_probability", -0.5),
            (dryad_config, "vertex_failure_probability", 1.0),
            (dryad_config, "max_attempts", 0),
            (dryad_config, "straggler_probability", 2.0),
            (dryad_config, "straggler_probability", -0.1),
            (dryad_config, "straggler_slowdown", 0.5),
            (dryad_config, "straggler_probability", math.nan),
            (hadoop_config, "task_failure_probability", 1.0),
            (hadoop_config, "max_attempts", 0),
            (hadoop_config, "straggler_probability", 2.0),
            (hadoop_config, "straggler_slowdown", -1.0),
            (hadoop_config, "speculative_progress_threshold", 5.0),
            (hadoop_config, "speculative_progress_threshold", 0.0),
        ],
    )
    def test_out_of_range_rejected(self, make, field, value):
        with pytest.raises(ValueError, match=field):
            make(**{field: value})

    @pytest.mark.parametrize("make", [dryad_config, hadoop_config])
    def test_range_ends_accepted(self, make):
        make(
            straggler_probability=1.0, straggler_slowdown=1.0, max_attempts=1
        )

    def test_threshold_of_one_accepted(self):
        hadoop_config(speculative_progress_threshold=1.0)


class TestDraws:
    def test_stream_names_and_order(self):
        fresh, used = RngRegistry(4), RngRegistry(4)
        service = draw_service(used.stream, "w", 10.0, 0.5, 3.0, noise="jitter")
        straggled = fresh.stream("w-straggle").random() < 0.5
        noise = float(fresh.stream("w-jitter").uniform(0.98, 1.02))
        assert service == (30.0 if straggled else 10.0) * noise
        assert sorted(used._streams) == ["w-jitter", "w-straggle"]

    def test_backup_draws_but_never_straggles(self):
        always = draw_service(
            RngRegistry(1).stream, "w", 10.0, 1.0, 3.0, straggles=False
        )
        never = draw_service(RngRegistry(1).stream, "w", 10.0, 1.0, 1.0)
        assert always == never  # same noise draw after the straggle draw

    def test_no_probability_draws_nothing(self):
        rng = RngRegistry(1)
        draw_service(rng.stream, "w", 10.0, 0.0, 3.0)
        assert draw_failure(rng.stream, "w", 0.0) is None
        assert sorted(rng._streams) == ["w-noise"]

    def test_failure_share_in_range(self):
        rng = RngRegistry(2)
        shares = [draw_failure(rng.stream, "w", 1.0) for _ in range(200)]
        assert all(0.1 <= share <= 0.9 for share in shares)


def make_attempt(**kw):
    task = TaskSpec("t1", "in", "out", 100, 10, 1.0)
    return Attempt(task, "slot", 2, 10.0, 1.0, 4.0, 0.5, **kw)


class TestAttempt:
    def test_runs_to_the_fail_point_or_the_end(self):
        assert make_attempt().runs_for == make_attempt().total == 5.5
        assert make_attempt(fail_share=0.5).runs_for == 1.0 + 4.0 * 0.5
        assert make_attempt().expected_end == 15.5

    def test_equality_is_identity(self):
        assert make_attempt() != make_attempt()

    def test_finish_emits_contiguous_phases_and_the_record(self):
        tracer = Tracer()
        record = make_attempt(speculative=True).finish(
            tracer, 15.5, won=False, speculative=True
        )
        assert [(s.name, s.start, s.end, s.args) for s in tracer.spans] == [
            ("task.download", 10.0, 11.0, {"task_id": "t1"}),
            ("task.compute", 11.0, 15.0,
             {"task_id": "t1", "speculative": True}),
            ("task.upload", 15.0, 15.5, {"task_id": "t1"}),
        ]
        assert record == TaskRecord(
            "t1", "slot", 10.0, 15.5, 1.0, 4.0, 0.5, attempt=2,
            was_duplicate=True, speculative=True, won=False,
        )

    def test_null_tracer_records_nothing(self):
        add_phases(NULL_TRACER, "w", (0.0, 1.0, 2.0, 3.0), task_id="t")
        assert make_attempt().finish(NULL_TRACER, 15.5).won


class TestRecordSchema:
    def test_round_trip(self):
        record = make_attempt().finish(NULL_TRACER, 15.5, won=False)
        run = RunResult("hadoop", "cap3", 1, 15.5, records=[record])
        assert RunResult.from_dict(run.to_dict()).records == [record]

    def test_defaults_fill_missing_optional_fields(self):
        data = {"task_id": "t", "worker": "w", "started_at": 0.0,
                "finished_at": 1.0}
        assert TaskRecord.from_dict(data) == TaskRecord("t", "w", 0.0, 1.0)

    def test_missing_task_id_is_a_key_error(self):
        with pytest.raises(KeyError):
            TaskRecord.from_dict({"worker": "w", "started_at": 0.0,
                                  "finished_at": 1.0})
