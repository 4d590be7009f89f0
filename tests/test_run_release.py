"""A finished spec'd point frees its simulation by reference counting.

:func:`repro.sweep.points.run_point` owns the backend it builds and
closes that run's event loop once the plain result exists, so nothing
the simulation built is left in a reference cycle for the cyclic
garbage collector; :func:`repro.serve.run_serve` does the same for a
service run.  Each check runs one seeded point with the collector off,
then collects: no ``repro`` object may be found, and the cyclic garbage
that is found must not grow with the number of files (for the service,
with the length of the arrival window).
"""

import gc

import pytest

from repro.autoscale.plan import AutoscalePlan
from repro.autoscale.policies import default_policy
from repro.autoscale.study import STUDY_MARKET
from repro.chaos.campaign import chaos_point
from repro.cloud.failures import FaultPlan
from repro.cloud.queue import MessageQueue
from repro.cloud.spot import BidStrategy
from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.serve import ServeConfig, default_tenants, run_serve
from repro.sim.engine import Environment, Interrupt
from repro.sim.rng import RngRegistry
from repro.sweep import point_for
from repro.sweep.points import run_point
from repro.workloads import study_task_specs
from repro.workloads.genome import cap3_task_specs


def _cap3_point(backend, n_files):
    return point_for(
        get_application("cap3"), backend, cap3_task_specs(n_files, seed=5)
    )


def _ec2(n_files):
    return _cap3_point(
        make_backend("ec2", n_instances=2, workers_per_instance=4, seed=3),
        n_files,
    )


def _azure(n_files):
    return _cap3_point(
        make_backend(
            "azure", n_instances=4, fault_plan=FaultPlan.none(), seed=3
        ),
        n_files,
    )


def _hadoop(n_files):
    cluster = get_cluster("cap3-baremetal").subset(2)
    return _cap3_point(make_backend("hadoop", cluster=cluster), n_files)


def _dryadlinq(n_files):
    cluster = get_cluster("cap3-baremetal-windows").subset(2)
    return _cap3_point(make_backend("dryadlinq", cluster=cluster), n_files)


def _chaos(n_files):
    return chaos_point(
        "cap3", 1.0, "retry+speculation", n_files=n_files, n_instances=2,
        workers_per_instance=8, seed=13, horizon_s=240.0,
    )


def _autoscale(n_files):
    plan = AutoscalePlan(
        policy=default_policy("target-tracking"),
        min_instances=1,
        max_instances=4,
        bid=BidStrategy.mixed(0.5),
        spot_market=STUDY_MARKET,
    )
    backend = make_backend(
        "ec2", n_instances=2, workers_per_instance=8, seed=17,
        autoscale=plan,
    )
    return point_for(
        get_application("cap3"), backend, study_task_specs("cap3", n_files)
    )


def _serve(n):
    """A two-instance service run with an arrival window of ``10 n`` s."""
    return run_serve(
        ServeConfig(
            tenants=default_tenants(),
            n_instances=2,
            duration_s=10.0 * n,
            seed=1,
        )
    )


def _spec(point):
    return lambda n: run_point(point(n))


RUNS = {
    "ec2": _spec(_ec2),
    "azure": _spec(_azure),
    "hadoop": _spec(_hadoop),
    "dryadlinq": _spec(_dryadlinq),
    "chaos": _spec(_chaos),
    "autoscale": _spec(_autoscale),
    "serve": _serve,
}


def _cyclic_garbage(run, n) -> "tuple[int, list[str]]":
    """Call ``run(n)`` with the collector off; return how many
    unreachable objects one collection then finds, and the ``repro``
    types among them."""
    gc.collect()
    gc.disable()
    try:
        run(n)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            unreachable = gc.collect()
            types = sorted(
                {
                    f"{type(obj).__module__}.{type(obj).__qualname__}"
                    for obj in gc.garbage
                    if type(obj).__module__.startswith("repro.")
                }
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    return unreachable, types


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_finished_point_frees_its_simulation(kind):
    small, types = _cyclic_garbage(RUNS[kind], 16)
    assert types == []
    large, types = _cyclic_garbage(RUNS[kind], 64)
    assert types == []
    assert large <= small


class TestPollUnlinks:
    """A poll's waiter and its heap entry point at each other only
    while the poll is outstanding."""

    def _polling(self):
        env = Environment()
        queue = MessageQueue(
            env, "q", RngRegistry(1).stream("q"), miss_probability=0.0
        )

        def poller():
            try:
                return (yield from queue.poll(lambda: True, 1.0))
            except Interrupt:
                return None

        process = env.process(poller())
        env.run(until=5.0)
        waiter = process._waiting_on
        assert waiter._entry._waiter is waiter
        return env, queue, process, waiter

    def test_resumed_poll_unlinks(self):
        env, queue, process, waiter = self._polling()
        env.process(queue.send("task"))
        env.run(until=process)
        assert process.value.body == "task"
        assert waiter._entry is None

    def test_interrupted_poll_unlinks(self):
        env, _, process, waiter = self._polling()
        process.interrupt("stop")
        env.run(until=process)
        assert waiter._entry is None

    def test_closed_environment_unlinks(self):
        env, _, process, waiter = self._polling()
        env.close()
        assert waiter._entry is None
        assert process._waiting_on is None
