"""Shape stability: the paper's headline orderings must hold across seeds.

The benchmark suite asserts each figure's shape at one seed; these tests
re-check the most important orderings at several seeds so a finding
can't hinge on one lucky random stream.
"""

import pytest

from repro.cloud.failures import FaultPlan
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.classiccloud.framework import ClassicCloudConfig, ClassicCloudFramework
from repro.workloads.genome import cap3_task_specs
from repro.workloads.pubchem import gtm_task_specs

SEEDS = [1, 7, 42]


def ec2(instance_type, n_instances, workers, seed):
    return ClassicCloudFramework(
        ClassicCloudConfig(
            provider="aws",
            instance_type=instance_type,
            n_instances=n_instances,
            workers_per_instance=workers,
            fault_plan=FaultPlan.none(),
            consistency_window_s=0.0,
            seed=seed,
        )
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_cap3_hm4xl_fastest_hcxl_cheapest(seed):
    """Figures 3/4's winners, at every seed."""
    app = get_application("cap3")
    tasks = cap3_task_specs(64, reads_per_file=200, seed=seed)
    shapes = [("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8)]
    times, costs = {}, {}
    for itype, n, workers in shapes:
        result = ec2(itype, n, workers, seed).run(app, tasks)
        times[itype] = result.makespan_seconds
        costs[itype] = result.billing.compute_cost
    assert min(times, key=times.get) == "HM4XL"
    assert min(costs, key=costs.get) == "HCXL"


@pytest.mark.parametrize("seed", SEEDS)
def test_gtm_bandwidth_ordering(seed):
    """Figure 13's ordering (HM4XL < L < HCXL), at every seed."""
    app = get_application("gtm")
    tasks = gtm_task_specs(48)
    times = {}
    for itype, n, workers in (("L", 8, 2), ("HCXL", 2, 8), ("HM4XL", 2, 8)):
        result = ec2(itype, n, workers, seed).run(app, tasks)
        times[itype] = result.makespan_seconds
    assert times["HM4XL"] < times["L"] < times["HCXL"]


@pytest.mark.parametrize("seed", SEEDS)
def test_four_frameworks_within_20_percent_on_cap3(seed):
    """Figure 5's comparability claim, at every seed."""
    from repro.cluster import get_cluster
    from repro.core.metrics import parallel_efficiency

    app = get_application("cap3")
    tasks = cap3_task_specs(128, reads_per_file=458, seed=seed)
    backends = {
        "ec2": ec2("HCXL", 4, 8, seed),
        "azure": make_backend(
            "azure", n_instances=32, fault_plan=FaultPlan.none(), seed=seed
        ),
        "hadoop": make_backend(
            "hadoop", cluster=get_cluster("cap3-baremetal").subset(4), seed=seed
        ),
        "dryadlinq": make_backend(
            "dryadlinq",
            cluster=get_cluster("cap3-baremetal-windows").subset(4),
            seed=seed,
        ),
    }
    efficiencies = {}
    for name, backend in backends.items():
        result = backend.run(app, tasks)
        t1 = backend.estimate_sequential_time(app, tasks)
        efficiencies[name] = parallel_efficiency(
            t1, result.makespan_seconds, backend.total_cores
        )
    assert max(efficiencies.values()) / min(efficiencies.values()) < 1.25
    assert min(efficiencies.values()) > 0.75
