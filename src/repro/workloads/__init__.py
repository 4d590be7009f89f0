"""Synthetic workload generators.

The paper's data is either proprietary-scale (the 8.7 GB NR database, 26M
PubChem points) or trivially replicable (replicated FASTA files); these
generators produce the closest synthetic equivalents at any scale:

* :mod:`repro.workloads.genome` — shotgun read sets for Cap3, both
  replicated-homogeneous (the paper's scaling studies) and inhomogeneous
  (its load-balancing discussion);
* :mod:`repro.workloads.protein` — query bundles (100 queries/file,
  7–8 KB) and an NR-like protein database for BLAST;
* :mod:`repro.workloads.pubchem` — 166-dimensional descriptor vectors
  with a sample / out-of-sample split for GTM Interpolation.

Every generator can emit *real files* (for the local backend) and always
emits :class:`~repro.core.task.TaskSpec` lists (for the simulator).
File emission goes through :mod:`repro.workloads.store`, the workload
face of the content-addressed store under ``.repro-cache/``: each
dataset is materialized once under ``workloads/`` and hard-linked into
place so every consumer shares one read-only copy (``REPRO_NO_CACHE``
opts out).
:func:`study_task_specs` is the fixed per-app task list the autoscale
and chaos studies sweep.
"""

from repro.workloads.genome import (
    cap3_task_specs,
    generate_genome,
    generate_read_records,
    write_cap3_workload,
)
from repro.workloads.protein import (
    blast_task_specs,
    generate_protein_database,
    write_blast_workload,
)
from repro.workloads.pubchem import (
    generate_pubchem_points,
    gtm_task_specs,
    write_gtm_workload,
)
from repro.workloads.store import (
    WorkloadArtifact,
    WorkloadArtifactStore,
    default_artifact_store,
)

__all__ = [
    "WorkloadArtifact",
    "WorkloadArtifactStore",
    "blast_task_specs",
    "cap3_task_specs",
    "default_artifact_store",
    "generate_genome",
    "generate_protein_database",
    "generate_pubchem_points",
    "generate_read_records",
    "gtm_task_specs",
    "study_task_specs",
    "write_blast_workload",
    "write_cap3_workload",
    "write_gtm_workload",
]


def study_task_specs(app_name: str, n_files: int):
    """The autoscale and chaos studies' workload: ``n_files`` homogeneous
    tasks of ``app_name`` (``cap3``, ``blast`` or ``gtm``) from fixed
    generator seeds, so a study's cells differ only in deployment."""
    if app_name == "cap3":
        return cap3_task_specs(n_files, reads_per_file=400)
    if app_name == "blast":
        return blast_task_specs(n_files, inhomogeneous_base=False, seed=3)
    if app_name == "gtm":
        return gtm_task_specs(n_files)
    raise KeyError(f"unknown study application {app_name!r}")
