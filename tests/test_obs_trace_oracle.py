"""Differential test: the columnar Chrome-trace encoder against the
dict-per-event oracle (``tests/trace_oracle.py``).

``write_chrome_trace`` encodes events straight from the tracer's
columns.  Whatever the bundle holds, the file it writes must be the very
bytes ``json.dumps(document, sort_keys=True, separators=(",", ":"))``
writes for the oracle's document, and the returned document must agree
with it.
"""

import enum
import json
import math
import os

import pytest

from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.obs import (
    Observability,
    Tracer,
    chrome_trace,
    observe,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.context import WorkerCapture
from repro.obs.tracer import Instant, Span
from repro.serve import serve_study
from repro.sweep.points import point_for
from repro.sweep.pool import SweepPool
from repro.sweep.runner import run_points
from repro.workloads.genome import cap3_task_specs

from tests.trace_oracle import oracle_bytes


def assert_matches_oracle(obs: Observability, tmp_path) -> None:
    path = tmp_path / "trace.json"
    document = write_chrome_trace(path, obs)
    raw = path.read_bytes()
    expected = oracle_bytes(obs)
    assert raw == expected
    parsed = json.loads(expected)
    assert len(document["traceEvents"]) == len(parsed["traceEvents"])
    assert document["otherData"] == parsed["otherData"]
    assert chrome_trace(
        obs.tracer, obs.metrics, timeline=obs.timeline, workers=obs.workers
    ) == json.loads(raw)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def test_serve_study_with_three_fleet_captures(tmp_path):
    with observe(label="serve-study") as obs:
        serve_study(fleet_sizes=(1, 2, 4), duration_s=120.0, seed=5, jobs=1)
    assert [c.label for c in obs.workers] == [
        "serve-fleet-1", "serve-fleet-2", "serve-fleet-4",
    ]
    assert sum(len(c.spans) for c in obs.workers) > 100
    assert_matches_oracle(obs, tmp_path)


def test_pool_captures_that_crossed_pickle(tmp_path):
    app = get_application("cap3")
    tasks = cap3_task_specs(8, reads_per_file=150)
    specs = [
        point_for(
            app,
            make_backend(
                "ec2", instance_type=itype, n_instances=n,
                workers_per_instance=w, fault_plan=FaultPlan.none(), seed=3,
            ),
            tasks,
        )
        for itype, n, w in (("L", 4, 2), ("XL", 2, 4))
    ]
    with SweepPool(2) as pool:
        with observe(label="pool-sweep") as obs:
            run_points(specs, jobs=2, pool=pool)
    assert len(obs.workers) == 2
    assert all(c.os_pid != os.getpid() for c in obs.workers)
    assert_matches_oracle(obs, tmp_path)


def test_sanitized_run_kernel_instants(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    backend = make_backend(
        "ec2", n_instances=1, fault_plan=FaultPlan.none(), seed=1
    )
    with observe(label="sanitized") as obs:
        backend.run(get_application("cap3"), cap3_task_specs(3, reads_per_file=100))
    assert any(i.track == "kernel" for i in obs.tracer.instants)
    assert_matches_oracle(obs, tmp_path)


def test_empty_tracer(tmp_path):
    assert_matches_oracle(Observability.make(label="idle"), tmp_path)
    path = tmp_path / "bare.json"
    write_chrome_trace(path, Tracer())
    assert path.read_bytes() == oracle_bytes(Tracer())


def test_edge_case_args(tmp_path):
    obs = Observability.make(label="edge % ünïcode")
    tracer = obs.tracer
    tracer.add("task.compute", track="w0", start=0.0, end=1.5,
               nan=math.nan, inf=math.inf, ninf=-math.inf, flag=True,
               none=None, level=_Level.HIGH, big=2**70)
    tracer.add("task.compute", track="w0", start=1.5, end=2.0,
               nan=0.5, inf=1, ninf=False, flag="mixed", none=[None],
               level=_Level.LOW, big=-(2**70))
    tracer.add("odd%name", track="wörk %s", start=0.25, end=0.5,
               nested={"b": [1, (2, 3)], "a": {"z": 1, "y": (None,)}},
               text='comma, "quote" \\ back\\"slash ünïcode ∑ %s')
    tracer.add("plain", track="w1", start=3, end=4)
    tracer.add("wall.work", track="host", start=0.001, end=0.002,
               domain="wall", point="parent's own")
    tracer.instant("mark", track="w0", ts=0.75, **{"%d": 1, "": "empty"})
    tracer.instant("other.domain", track="t", ts=1.0, domain="gpu")
    with tracer.span("cache.lookup", track="host", domain="not-a-kwarg"):
        pass
    obs.timeline.sample("series %", 0.0, math.nan)
    obs.timeline.sample("series %", 2.0, 3)
    obs.metrics.counter("c").inc()
    obs.workers.append(WorkerCapture(
        os_pid=4242,
        label="p,1 % ü",
        spans=[
            Span("task.download", "w0", 0.0, 1.0, args={"point": "mine"}),
            Span("task.download", "w0", 1.0, 2.0, args={"point": "x", "k": 1}),
            Span("sweep.point", "main", 0.0, 2.0, domain="wall"),
            Span("task.upload", "w0", 2.0, 2.5, args={"n": math.inf}),
        ],
        instants=[
            Instant("chaos.crash", "chaos", 0.5, args={"n": 1}),
            Instant("chaos.crash", "gpu-track", 0.6, domain="gpu"),
        ],
        timeline={"backlog": [(0.0, 2), (5.0, 1.5)], "empty": []},
    ))
    obs.workers.append(WorkerCapture(os_pid=4242, label="",
                                     spans=[
                                         Span("task.upload", "w0", 1.0, 1.5),
                                         Span("int.keys", "w0", 0.0, 1.0,
                                              args={2: "b", 1: "a"}),
                                     ],
                                     timeline={"late": [(1.0, -0.0)]}))
    obs.workers.append(WorkerCapture(os_pid=7, label="only-counters",
                                     timeline={"depth": [(0.5, 4.0)]}))
    assert validate_chrome_trace(json.loads(oracle_bytes(obs))) == []
    assert_matches_oracle(obs, tmp_path)


def test_unencodable_args_still_raise(tmp_path):
    tracer = Tracer()
    tracer.add("bad", track="t", start=0.0, end=1.0, value=object())
    with pytest.raises(TypeError):
        write_chrome_trace(tmp_path / "bad.json", tracer)
