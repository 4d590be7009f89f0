"""Quiet backend builders shared by the non-figure benchmarks.

The paper figures declare their own deployments in :mod:`repro.figures`.
"""

from __future__ import annotations

from repro.core.backends import Backend, make_backend


def quiet_ec2(
    instance_type: str = "HCXL",
    n_instances: int = 2,
    workers_per_instance: int = 8,
    **kwargs,
) -> Backend:
    """A deterministic, fault-free EC2 backend."""
    defaults = dict(consistency_window_s=0.0, seed=17)
    defaults.update(kwargs)
    return make_backend(
        "ec2",
        instance_type=instance_type,
        n_instances=n_instances,
        workers_per_instance=workers_per_instance,
        **defaults,
    )


def quiet_azure(
    instance_type: str = "Small",
    n_instances: int = 16,
    workers_per_instance: int = 1,
    **kwargs,
) -> Backend:
    """A deterministic, fault-free Azure backend."""
    defaults = dict(consistency_window_s=0.0, seed=17)
    defaults.update(kwargs)
    return make_backend(
        "azure",
        instance_type=instance_type,
        n_instances=n_instances,
        workers_per_instance=workers_per_instance,
        **defaults,
    )

