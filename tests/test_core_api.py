"""Tests for the unified API, backend registry and experiment drivers."""

import pytest

from repro.classiccloud.framework import ClassicCloudConfig, ClassicCloudFramework
from repro.cloud.failures import FaultPlan
from repro.core.api import evaluate, run
from repro.core.application import Application, get_application
from repro.core.backends import make_backend
from repro.core.experiment import instance_type_study, scalability_study
from repro.workloads.genome import cap3_task_specs


@pytest.fixture
def cap3():
    return get_application("cap3")


def quiet_cc(**kwargs):
    """A small, fault-free EC2 backend for fast tests."""
    defaults = dict(
        provider="aws",
        instance_type="HCXL",
        n_instances=2,
        workers_per_instance=8,
        fault_plan=FaultPlan.none(),
        consistency_window_s=0.0,
        seed=1,
    )
    defaults.update(kwargs)
    return ClassicCloudFramework(ClassicCloudConfig(**defaults))


class TestApplication:
    def test_known_apps(self):
        for name in ("cap3", "blast", "gtm"):
            app = get_application(name)
            assert app.name == name
            assert app.perf_model.app_name == name

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="unknown application"):
            get_application("hmmer")

    def test_blast_has_preload(self):
        blast = get_application("blast")
        assert blast.preload_bytes > 2 * 1024**3
        assert get_application("cap3").preload_bytes == 0

    def test_with_threads(self):
        blast = get_application("blast").with_threads(4)
        assert blast.threads_per_worker == 4

    def test_make_executable_requires_factory(self, cap3):
        with pytest.raises(ValueError, match="no local executable"):
            cap3.make_executable()

    def test_executable_factory_used(self):
        from repro.apps.executables import Cap3Executable

        app = get_application("cap3", executable_factory=Cap3Executable)
        assert isinstance(app.make_executable(), Cap3Executable)

    def test_validation(self):
        from repro.apps.perfmodels import APP_PERF_MODELS

        with pytest.raises(ValueError):
            Application(
                name="x", perf_model=APP_PERF_MODELS["cap3"], preload_bytes=-1
            )
        with pytest.raises(ValueError):
            Application(
                name="x",
                perf_model=APP_PERF_MODELS["cap3"],
                threads_per_worker=0,
            )


class TestMakeBackend:
    def test_ec2_defaults_match_paper(self):
        backend = make_backend("ec2")
        assert backend.config.instance_type == "HCXL"
        assert backend.config.n_instances == 16
        assert backend.total_cores == 128

    def test_azure_defaults_match_paper(self):
        backend = make_backend("azure")
        assert backend.config.instance_type == "Small"
        assert backend.config.n_instances == 128
        assert backend.total_cores == 128

    def test_hadoop_cluster_by_name(self):
        backend = make_backend("hadoop", cluster="idataplex")
        assert backend.config.cluster.name == "idataplex"

    def test_dryadlinq_default_cluster(self):
        backend = make_backend("dryadlinq")
        assert backend.config.cluster.node.machine.os == "windows"

    def test_local(self):
        backend = make_backend("local", n_workers=2)
        assert backend.total_cores == 2

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_backend("slurm")

    # (name, cores, T1 of 8 default cap3 files, point label) as the
    # former *Backend wrappers reported them: the simulators now answer
    # for themselves and must say the same.
    @pytest.mark.parametrize(
        ("kind", "name", "cores", "t1", "label"),
        [
            ("ec2", "classiccloud-aws", 128, 879.8180000000001,
             "HCXL - 16 x 8"),
            ("azure", "classiccloud-azure", 128, 889.3874242424243,
             "Small - 128 x 1"),
            ("hadoop", "hadoop", 256, 879.7263999999998, "hadoop"),
            ("dryadlinq", "dryadlinq", 256, 782.0197333333334, "dryadlinq"),
        ],
    )
    def test_simulators_are_the_backends(
        self, cap3, kind, name, cores, t1, label
    ):
        from repro.sweep.points import PointSpec, point_for, run_point

        backend = make_backend(kind)
        tasks = cap3_task_specs(8)
        assert backend.name == name
        assert backend.total_cores == cores
        assert backend.estimate_sequential_time(cap3, tasks) == t1
        point = point_for(cap3, backend, tasks)
        assert isinstance(point, PointSpec)
        result = run_point(point)
        assert (result.backend, result.label) == (name, label)
        assert (result.cores, result.t1_s) == (cores, t1)


class TestRunApi:
    def test_run_with_backend_instance(self, cap3):
        tasks = cap3_task_specs(16, reads_per_file=200)
        result = run(cap3, tasks, backend=quiet_cc())
        assert result.completed_task_ids == {t.task_id for t in tasks}

    def test_run_with_backend_name(self, cap3):
        tasks = cap3_task_specs(16, reads_per_file=200)
        result = run(
            cap3,
            tasks,
            backend="ec2",
            n_instances=2,
            fault_plan=FaultPlan.none(),
            consistency_window_s=0.0,
        )
        assert result.n_tasks == 16

    def test_kwargs_with_instance_rejected(self, cap3):
        with pytest.raises(TypeError):
            run(cap3, cap3_task_specs(2), backend=quiet_cc(), n_instances=3)

    def test_evaluate_kwargs_with_instance_rejected(self, cap3):
        # A built 2-instance backend must not be silently reported as
        # the 4 instances asked for (nor the kwargs silently dropped).
        with pytest.raises(TypeError):
            evaluate(
                cap3, cap3_task_specs(2), backend=quiet_cc(), n_instances=4
            )

    def test_evaluate_produces_paper_metrics(self, cap3):
        tasks = cap3_task_specs(32, reads_per_file=200)
        metrics = evaluate(cap3, tasks, backend=quiet_cc())
        assert set(metrics) == {
            "makespan_seconds",
            "t1_seconds",
            "cores",
            "parallel_efficiency",
            "avg_time_per_file_per_core",
        }
        assert 0.0 < metrics["parallel_efficiency"] <= 1.0
        assert metrics["cores"] == 16.0


class TestExperimentDrivers:
    def test_instance_type_study_rows(self, cap3):
        tasks = cap3_task_specs(32, reads_per_file=200)
        backends = [
            quiet_cc(instance_type="HCXL", n_instances=2, workers_per_instance=8),
            quiet_cc(instance_type="L", n_instances=8, workers_per_instance=2),
        ]
        rows = instance_type_study(cap3, backends, tasks)
        assert len(rows) == 2
        assert rows[0].label == "HCXL - 2 x 8"
        assert rows[1].label == "L - 8 x 2"
        for row in rows:
            assert row.compute_time_s > 0
            assert row.compute_cost > 0
            assert row.amortized_cost < row.total_cost

    def test_hcxl_most_economical_for_cap3(self, cap3):
        """Figure 3's punchline: HCXL wins on cost."""
        tasks = cap3_task_specs(48, reads_per_file=200)
        backends = [
            quiet_cc(instance_type="L", n_instances=8, workers_per_instance=2),
            quiet_cc(instance_type="XL", n_instances=4, workers_per_instance=4),
            quiet_cc(instance_type="HCXL", n_instances=2, workers_per_instance=8),
            quiet_cc(instance_type="HM4XL", n_instances=2, workers_per_instance=8),
        ]
        rows = instance_type_study(cap3, backends, tasks)
        by_label = {r.label.split(" ")[0]: r for r in rows}
        cheapest = min(rows, key=lambda r: r.compute_cost)
        assert cheapest.label.startswith("HCXL")
        # HM4XL fastest (Figure 4) but most expensive (Figure 3).
        fastest = min(rows, key=lambda r: r.compute_time_s)
        assert fastest.label.startswith("HM4XL")
        assert by_label["HM4XL"].compute_cost == max(
            r.compute_cost for r in rows
        )

    def test_scalability_study_points(self, cap3):
        def factory(cores):
            return quiet_cc(n_instances=cores // 8)

        def tasks_for(cores):
            return cap3_task_specs(cores * 2, reads_per_file=200)

        points = scalability_study(cap3, factory, [16, 32], tasks_for)
        assert [p.cores for p in points] == [16, 32]
        for point in points:
            assert 0.5 < point.efficiency <= 1.0
            assert point.per_file_per_core_s > 0
