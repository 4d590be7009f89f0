"""The job service layer: admission books, fairness, faults, determinism."""

import hashlib
import io
import json
import re

import pytest

from repro.autoscale.plan import AutoscalePlan
from repro.cli import main
from repro.cloud.spot import BidStrategy, SpotMarketModel
from repro.obs import (
    Observability,
    observe,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.context import worker_payload
from repro.serve import (
    ServeConfig,
    TenantSpec,
    default_tenants,
    run_serve,
    serialize_rows,
    serve_study,
)
from repro.serve.tenants import peak_rate, rate_at


def tenant_by_name(result, name):
    (stats,) = [t for t in result.tenants if t.name == name]
    return stats


def traced_frontier(path):
    """Fleets 1 and 2 under live bundles, merged and exported by a
    hand-written per-fleet capture loop: the oracle for the trace that
    ``serve_study`` writes under a live bundle."""
    parent = Observability.make(label="serve-study")
    for n in (1, 2):
        label = f"serve-fleet-{n}"
        child = Observability.make(label=label)
        with observe(child):
            run_serve(
                ServeConfig(
                    tenants=default_tenants(),
                    n_instances=n,
                    duration_s=120.0,
                    seed=42,
                )
            )
        parent.adopt_worker(worker_payload(child, label=label))
    return write_chrome_trace(path, parent)


class TestArrivalShapes:
    def test_poisson_rate_is_flat(self):
        spec = TenantSpec(name="t", app="cap3", rate_per_s=0.5)
        assert rate_at(spec, 0.0) == rate_at(spec, 123.0) == 0.5
        assert peak_rate(spec) == 0.5

    def test_burst_preserves_the_mean_rate(self):
        spec = TenantSpec(
            name="t", app="cap3", arrival="burst", rate_per_s=0.4,
            burst_factor=4.0, burst_duty=0.2, period_s=100.0,
        )
        # Integrate one period: duty on-phase at factor x rate, the rest
        # at the compensating off-rate.
        on = 0.2 * 100.0 * rate_at(spec, 10.0)
        off = 0.8 * 100.0 * rate_at(spec, 50.0)
        assert on + off == pytest.approx(0.4 * 100.0)
        assert peak_rate(spec) == pytest.approx(1.6)

    def test_diurnal_never_goes_negative(self):
        spec = TenantSpec(
            name="t", app="gtm", arrival="diurnal", rate_per_s=0.3,
            diurnal_amplitude=0.8, period_s=600.0,
        )
        rates = [rate_at(spec, t) for t in range(0, 1200, 25)]
        assert min(rates) >= 0.0
        assert max(rates) <= peak_rate(spec) + 1e-12

    def test_mean_preservation_constraint_enforced(self):
        with pytest.raises(ValueError):
            TenantSpec(
                name="t", app="cap3", arrival="burst",
                burst_factor=6.0, burst_duty=0.2,
            )


class TestZeroCapacity:
    def test_books_balance_with_no_fleet(self):
        # No workers at all: the quota fills, everything else sheds,
        # and the drain writes the admitted jobs off as abandoned.
        config = ServeConfig(
            tenants=(
                TenantSpec(name="g", app="cap3", rate_per_s=1.0, quota=10),
            ),
            n_instances=0,
            duration_s=60.0,
            drain_timeout_s=30.0,
            seed=7,
        )
        result = run_serve(config)
        (stats,) = result.tenants
        assert stats.completed == 0
        assert stats.admitted == 10  # the quota, exactly
        assert stats.abandoned == 10
        assert stats.shed_quota > 0
        assert stats.submitted == stats.admitted + stats.shed
        assert result.cost_per_1k_jobs is None
        assert stats.slo_ok is None
        assert stats.p95_s is None


class TestBurstOverQuota:
    def test_shed_accounting_is_exact(self):
        # One instance, a hard burst far over the quota: some jobs must
        # shed, and every submission lands in exactly one bucket.
        config = ServeConfig(
            tenants=(
                TenantSpec(
                    name="spiky", app="cap3", arrival="burst",
                    rate_per_s=1.5, burst_factor=4.0, burst_duty=0.25,
                    period_s=120.0, quota=8,
                ),
            ),
            n_instances=1,
            duration_s=240.0,
            seed=3,
        )
        result = run_serve(config)
        (stats,) = result.tenants
        assert stats.shed_quota > 0
        assert stats.submitted == stats.admitted + stats.shed_quota + stats.shed_backlog
        assert stats.admitted == stats.completed + stats.abandoned
        assert stats.completed > 0

    def test_global_backlog_cap_sheds_typed(self):
        config = ServeConfig(
            tenants=(
                TenantSpec(name="flood", app="cap3", rate_per_s=2.0, quota=500),
            ),
            n_instances=1,
            duration_s=180.0,
            max_backlog=16,
            seed=5,
        )
        result = run_serve(config)
        (stats,) = result.tenants
        assert stats.shed_backlog > 0
        assert stats.submitted == stats.admitted + stats.shed


class TestFairness:
    def test_skewed_weights_do_not_starve_the_light_tenant(self):
        # Both tenants overload one instance; WDRR must still serve the
        # weight-1 tenant at roughly 1/10 the heavy tenant's share.
        config = ServeConfig(
            tenants=(
                TenantSpec(
                    name="heavy", app="cap3", rate_per_s=1.0,
                    weight=10.0, quota=200,
                ),
                TenantSpec(
                    name="light", app="cap3", rate_per_s=1.0,
                    weight=1.0, quota=200,
                ),
            ),
            n_instances=1,
            duration_s=300.0,
            max_backlog=400,
            seed=11,
        )
        result = run_serve(config)
        heavy = tenant_by_name(result, "heavy")
        light = tenant_by_name(result, "light")
        assert light.completed > 0  # never starved
        # Weighted priority shows up as latency: the heavy tenant's
        # jobs jump most of the queue, the light tenant's jobs wait —
        # but they are dispatched every round, never starved.
        assert heavy.p95_s < light.p95_s / 3
        for stats in (heavy, light):
            assert stats.submitted == stats.admitted + stats.shed
            assert stats.admitted == stats.completed + stats.abandoned


def preemption_config():
    """A hostile spot market on a mixed-bid elastic fleet."""
    market = SpotMarketModel(spike_probability=0.5, interval_s=60.0)
    return ServeConfig(
        tenants=default_tenants(),
        n_instances=2,
        duration_s=240.0,
        visibility_timeout_s=60.0,
        seed=2,
        autoscale=AutoscalePlan(
            min_instances=1,
            max_instances=4,
            bid=BidStrategy.mixed(1.0),
            spot_market=market,
        ),
    )


@pytest.fixture(scope="module")
def preempted():
    """One observed run of :func:`preemption_config`: (obs, result)."""
    with observe(label="preemption") as obs:
        result = run_serve(preemption_config())
    return obs, result


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPreemption:
    def test_preempted_jobs_complete_idempotently(self, preempted):
        # Workers get preempted mid-job, the visibility timeout returns
        # the job, and every admitted job still completes exactly once.
        obs, result = preempted
        assert result.extras["autoscale_preemptions"] > 0
        # Controller and service instants are stamped in simulated time.
        names = {i.name for i in obs.tracer.instants}
        assert "autoscale.preemption" in names
        assert all(i.domain == "sim" for i in obs.tracer.instants)
        assert result.extras["reappearances"] > 0
        assert result.admitted == result.completed
        assert result.abandoned == 0
        # Duplicate deliveries were recognised, not double-counted.
        for stats in result.tenants:
            assert stats.completed <= stats.admitted

    def test_preemption_closes_the_busy_gauge(self, preempted):
        """Every busy ``+1`` is paired with a ``-1``, including for the
        workers interrupted mid-job by a spot preemption."""
        obs, result = preempted
        assert result.extras["autoscale_preemptions"] > 0
        series = obs.timeline.series("workers.busy")
        assert series, "busy gauge never sampled"
        assert series[-1][1] == 0
        assert min(value for _, value in series) >= 0


def test_serve_counters_are_created_on_first_use():
    # Per-job counters are cached, not made up front: a counter for an
    # outcome that never happened stays out of the exported metrics.
    with observe() as obs:
        result = run_serve(ServeConfig(
            tenants=default_tenants(), n_instances=2, duration_s=60.0, seed=42
        ))
    metrics = obs.metrics.to_dict()
    assert result.duplicates == 0 and "serve.duplicates" not in metrics
    assert metrics["serve.submitted"] == result.submitted
    assert metrics["serve.completed"] == result.completed
    assert metrics["serve.admitted"] == result.admitted


class TestGolden:
    """Digests of seeded service output; any change to the simulated
    worker fleet that moves a single event shows up here."""

    def test_frontier_digest(self):
        rows, _ = serve_study(
            fleet_sizes=(1, 2), duration_s=120.0, seed=42, jobs=1
        )
        digest = hashlib.sha256(
            serialize_rows(rows).encode("utf-8")
        ).hexdigest()
        assert digest == (
            "9c4fb21534144d6a7d2c177fc33e914a7bca5343305b93e780c38379b312d47a"
        )

    def test_preemption_result_digest(self, preempted):
        _, result = preempted
        assert sha256_json(result.to_dict()) == (
            "96214a4ded90af3af98b0472a6da4d76a51dbd58328034dda64c13b38aaa9785"
        )


class TestDeterminism:
    def test_same_seed_same_frontier(self):
        first, _ = serve_study(
            fleet_sizes=(1,), duration_s=120.0, seed=42, jobs=1
        )
        second, _ = serve_study(
            fleet_sizes=(1,), duration_s=120.0, seed=42, jobs=1
        )
        assert serialize_rows(first) == serialize_rows(second)

    def test_parallel_equals_serial_byte_for_byte(self):
        serial, _ = serve_study(
            fleet_sizes=(1, 2), duration_s=120.0, seed=42, jobs=1
        )
        fanned, _ = serve_study(
            fleet_sizes=(1, 2), duration_s=120.0, seed=42, jobs=2
        )
        assert serialize_rows(serial) == serialize_rows(fanned)


def normalized_trace_digest(path) -> str:
    """SHA-256 of a written Chrome trace with the OS pid taken out.

    The pid is the only thing two runs of one seed write differently,
    and it appears only in a pool worker's process name and its
    ``os_pid`` entry."""
    text = path.read_text(encoding="utf-8")
    text = re.sub(r'"os_pid":\d+', '"os_pid":0', text)
    text = re.sub(
        r"worker \d+ \(simulated time\)", "worker 0 (simulated time)", text
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGoldenTrace:
    """Digests of the exported Chrome traces: every span, instant,
    counter sample and metric the service records.  A sanitized loop
    adds its kernel events to the same tracer, so these run on the
    plain loop."""

    @pytest.fixture(autouse=True)
    def plain_loop(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def test_frontier_trace_digest(self, tmp_path):
        path = tmp_path / "trace.json"
        traced_frontier(path)
        assert normalized_trace_digest(path) == (
            "113fad9028cff28219f82f918c932374cfa106ed193e6df41d0e618bf4971654"
        )

    def test_preemption_trace_digest(self, tmp_path):
        with observe(label="preemption") as obs:
            run_serve(preemption_config())
        path = tmp_path / "trace.json"
        write_chrome_trace(path, obs)
        assert normalized_trace_digest(path) == (
            "f0d8c78d968a018c0480ce9f36f2a83d339e59fca7ec291d3fff96111bcf68c0"
        )


class TestTraceDeterminism:
    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        traced_frontier(first)
        traced_frontier(second)
        assert first.read_bytes() == second.read_bytes()

    def test_serial_study_trace_equals_the_capture_loop(self, tmp_path):
        oracle, study = tmp_path / "oracle.json", tmp_path / "study.json"
        traced_frontier(oracle)
        with observe(Observability.make(label="serve-study")) as obs:
            serve_study((1, 2), duration_s=120.0, seed=42, jobs=1)
        write_chrome_trace(study, obs)
        assert study.read_bytes() == oracle.read_bytes()

    def test_pooled_study_trace_has_one_capture_per_fleet(self, tmp_path):
        with observe(Observability.make(label="serve-study")) as obs:
            rows, _ = serve_study((1, 2), duration_s=120.0, seed=42, jobs=2)
        assert [c.label for c in obs.workers] == [
            "serve-fleet-1",
            "serve-fleet-2",
        ]
        document = write_chrome_trace(tmp_path / "trace.json", obs)
        assert validate_chrome_trace(document) == []
        serial, _ = serve_study((1, 2), duration_s=120.0, seed=42, jobs=1)
        assert serialize_rows(rows) == serialize_rows(serial)

    def test_dispatch_instants_sit_on_sim_pids(self, tmp_path):
        document = traced_frontier(tmp_path / "trace.json")
        sim_pids = {1} | {
            worker["pids"]["sim"]
            for worker in document["otherData"]["workers"]
        }
        dispatch = [
            event
            for event in document["traceEvents"]
            if event["name"] == "serve.dispatch"
        ]
        assert dispatch
        assert {event["pid"] for event in dispatch} <= sim_pids


class TestConfigValidation:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(
                tenants=(
                    TenantSpec(name="a", app="cap3"),
                    TenantSpec(name="a", app="gtm"),
                ),
            )

    def test_zero_capacity_with_autoscale_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(
                tenants=(TenantSpec(name="a", app="cap3"),),
                n_instances=0,
                autoscale=AutoscalePlan(),
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("visibility_timeout_s", -3.0),
            ("poll_backoff_s", -1.0),
            ("consistency_window_s", -1.0),
            ("max_sim_seconds", -1.0),
            ("perf_jitter", -0.01),
        ],
    )
    def test_out_of_range_setting_rejected_when_built(self, field, value):
        # A serve run with a -3 s visibility timeout used to finish with
        # dozens of duplicate executions and no error.
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ServeConfig(
                tenants=(TenantSpec(name="a", app="cap3"),), **{field: value}
            )


class TestCliServe:
    def test_pooled_trace_merges_every_fleet(self, tmp_path):
        out = io.StringIO()
        trace = tmp_path / "trace.json"
        code = main(
            [
                "serve", "--seed", "42", "--duration", "60",
                "--fleet", "1,2", "--jobs", "2", "--trace", str(trace),
            ],
            out=out,
        )
        assert code == 0
        assert f"trace written to {trace}" in out.getvalue()
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert validate_chrome_trace(document) == []
        points = [
            point
            for worker in document["otherData"]["workers"]
            for point in worker["points"]
        ]
        assert sorted(points) == ["serve-fleet-1", "serve-fleet-2"]

    def test_negative_fleet_exits_2(self):
        out = io.StringIO()
        code = main(["serve", "--fleet", "-1", "--jobs", "1"], out=out)
        assert code == 2
        assert out.getvalue() == "error: n_instances must be >= 0\n"

    def test_smoke_prints_frontier(self, tmp_path):
        out = io.StringIO()
        json_path = tmp_path / "frontier.json"
        code = main(
            [
                "serve", "--seed", "42", "--duration", "60",
                "--fleet", "1", "--jobs", "1",
                "--json", str(json_path),
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "cost vs latency frontier" in text
        assert "genomics" in text and "chemistry" in text
        assert json_path.is_file()
        assert '"tenant"' in json_path.read_text()
