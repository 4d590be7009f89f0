"""Sleeping idle Hadoop map slots replay 1 s polling exactly.

A map slot that finds no work leaves the event heap, and an attempt
start that leaves work puts it back on its own 1 s grid.  The
``eager_hadoop`` fixture (tests/conftest.py) polls every second
instead, which is the oracle: every seeded run must give the same
``RunResult`` either way.
"""

import pytest

from repro.cloud.failures import FaultPlan
from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.hadoop import HadoopJobConfig, HadoopSimulator
from repro.obs.context import observe
from repro.sim.rng import RngRegistry
from repro.workloads.genome import cap3_task_specs

CAP3 = get_application("cap3")

#: Draws in the differential fuzz (about 5 s for both modes).
N_DRAWS = 300

AXES = dict(
    nodes=[1, 2, 3, 4],
    map_slots_per_node=[None, 1, 2, 4],
    task_failure_probability=[0.0, 0.1, 0.2, 0.3],
    straggler_probability=[0.0, 0.15, 0.4],
    straggler_slowdown=[3.0, 8.0],
    speculative_execution=[True, False],
    speculative_progress_threshold=[0.5, 0.8, 0.95],
    scheduling_policy=["fifo", "lpt"],
    locality_aware=[True, False],
    max_attempts=[2, 4, 10],
)


def draw(index: int) -> tuple[dict, list]:
    """One seeded scenario: a value on every axis, 1-48 Cap3 files."""
    rng = RngRegistry(index).stream("fuzz")

    def pick(values):
        return values[int(rng.integers(len(values)))]

    knobs = {axis: pick(values) for axis, values in AXES.items()}
    nodes = knobs.pop("nodes")
    tasks = cap3_task_specs(
        int(rng.integers(1, 49)),
        reads_per_file=pick([50, 200]),
        inhomogeneous=pick([True, False]),
        seed=int(rng.integers(100)),
    )
    knobs.update(
        cluster=get_cluster("cap3-baremetal").subset(nodes),
        seed=int(rng.integers(10**6)),
    )
    return knobs, tasks


def play(index: int):
    """The run's JSON trace, or the error of a task out of attempts."""
    knobs, tasks = draw(index)
    try:
        result = HadoopSimulator(HadoopJobConfig(**knobs)).run(CAP3, tasks)
    except RuntimeError as exc:
        return str(exc)
    return result.to_dict()


def test_fuzz_covers_every_axis():
    seen = {axis: set() for axis in AXES}
    for index in range(N_DRAWS):
        knobs, _ = draw(index)
        knobs["nodes"] = knobs.pop("cluster").n_nodes
        for axis in AXES:
            seen[axis].add(knobs[axis])
    assert seen == {axis: set(values) for axis, values in AXES.items()}


def test_seeded_fuzz_matches_eager_hadoop(request):
    sleeping = [play(index) for index in range(N_DRAWS)]
    request.getfixturevalue("eager_hadoop")
    eager = [play(index) for index in range(N_DRAWS)]
    for index, (left, right) in enumerate(zip(sleeping, eager)):
        assert left == right, index


def few_files(seed: int, policy: str):
    """Three files on one 8-slot node with failures, stragglers and
    speculation: five slots idle from time 0 share the integer grid, so
    wakes tie with each other and must keep slot order."""
    config = HadoopJobConfig(
        cluster=get_cluster("cap3-baremetal").subset(1),
        seed=seed,
        task_failure_probability=0.3,
        straggler_probability=0.4,
        straggler_slowdown=3.0,
        speculative_progress_threshold=0.95,
        scheduling_policy=policy,
        max_attempts=10,
    )
    tasks = cap3_task_specs(3, reads_per_file=200, inhomogeneous=True, seed=seed)
    return HadoopSimulator(config).run(CAP3, tasks).to_dict()


def test_tied_ticks_match_eager_hadoop(request):
    cases = [(seed, policy) for seed in range(50) for policy in ("fifo", "lpt")]
    sleeping = [few_files(*case) for case in cases]
    request.getfixturevalue("eager_hadoop")
    eager = [few_files(*case) for case in cases]
    for case, left, right in zip(cases, sleeping, eager):
        assert left == right, case


def long_tail_run() -> tuple:
    """Nine heavy-tailed files on one 8-slot node: most slots idle for
    most of the run.  Returns the run and its scheduled event count."""
    config = HadoopJobConfig(
        cluster=get_cluster("cap3-baremetal").subset(1),
        seed=4,
        straggler_probability=0.3,
        straggler_slowdown=6.0,
    )
    tasks = cap3_task_specs(9, reads_per_file=200, inhomogeneous=True)
    with observe() as obs:
        result = HadoopSimulator(config).run(CAP3, tasks)
    return result.to_dict(), obs.metrics.counter("sim.events").value


def test_sleeping_slots_schedule_no_idle_ticks(request):
    sleeping, sleeping_events = long_tail_run()
    request.getfixturevalue("eager_hadoop")
    eager, eager_events = long_tail_run()
    assert sleeping == eager
    assert sleeping_events < eager_events / 5


@pytest.mark.parametrize(
    "kind,knobs",
    [
        ("hadoop", dict(cluster="cap3-baremetal")),
        ("dryadlinq", dict(cluster="cap3-baremetal-windows")),
        (
            "ec2",
            dict(n_instances=2, workers_per_instance=8,
                 fault_plan=FaultPlan.none()),
        ),
    ],
)
def test_fault_free_run_creates_no_fail_or_straggle_stream(
    monkeypatch, kind, knobs
):
    """Streams are created on first draw, so a run that never fails or
    straggles never builds those streams."""
    names = []
    stream = RngRegistry.stream

    def spy(registry, name):
        names.append(name)
        return stream(registry, name)

    monkeypatch.setattr(RngRegistry, "stream", spy)
    backend = make_backend(kind, **knobs)
    backend.run(CAP3, cap3_task_specs(24, reads_per_file=200))
    assert any(name.endswith(("-noise", "-jitter")) for name in names)
    assert not [n for n in names if n.endswith(("-fail", "-straggle"))]
