"""The paper's figures, each declared once.

Every figure is a :class:`Figure`: ``study()`` builds its deployments
and workload and runs them, and ``tables(data)`` renders each of its
tables, keyed by the file name ``benchmarks/results/`` records it under.
``python -m repro figures <id>`` prints the joined tables; the benchmark
suite runs the same ``Figure`` and asserts the paper's shape on its
data, so the CLI prints exactly what ``benchmarks/results/`` records.

Every figure is a sweep of independent simulation points, so the
studies route through :mod:`repro.sweep`: points fan out over worker
processes (``REPRO_JOBS``) and completed points are served from the
content-addressed cache under ``.repro-cache/`` (``REPRO_NO_CACHE=1``
disables it).  Result ordering is fixed by the sweep definition, never
by worker completion order, so the tables are identical at any job
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster import get_cluster
from repro.core.application import get_application
from repro.core.backends import Backend, make_backend
from repro.core.experiment import instance_type_study, scalability_study
from repro.core.report import format_series, format_table
from repro.sweep import default_cache, point_for, run_points
from repro.workloads.genome import cap3_task_specs
from repro.workloads.protein import blast_task_specs
from repro.workloads.pubchem import gtm_task_specs

__all__ = [
    "EC2_16CORE_SHAPES",
    "FIGURES",
    "Figure",
    "available_figures",
    "ec2_16core_backends",
    "render_figure",
]


@dataclass(frozen=True)
class Figure:
    """One figure: ``study()`` runs it, ``tables(data)`` renders it as
    ``{results file name: table text}``."""

    study: Callable[[], Any]
    tables: Callable[[Any], "dict[str, str]"]


#: The paper's 16-core EC2 deployments (Figures 3/4, 7/8, 12/13):
#: (instance type, instances, workers per instance).
EC2_16CORE_SHAPES: list[tuple[str, int, int]] = [
    ("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8),
]


def _quiet(kind: str, **kwargs) -> Backend:
    """A deterministic EC2/Azure backend: no consistency window, seed 17."""
    kwargs.setdefault("consistency_window_s", 0.0)
    kwargs.setdefault("seed", 17)
    return make_backend(kind, **kwargs)


def _cluster(kind: str, cluster: str, nodes: int) -> Backend:
    return make_backend(kind, cluster=get_cluster(cluster).subset(nodes))


def ec2_16core_backends(**kwargs) -> list[Backend]:
    """One quiet EC2 backend per :data:`EC2_16CORE_SHAPES` entry;
    ``kwargs`` override the quiet defaults (e.g. ``seed=``)."""
    return [
        _quiet("ec2", instance_type=itype, n_instances=n,
               workers_per_instance=w, **kwargs)
        for itype, n, w in EC2_16CORE_SHAPES
    ]


def _instance_figure(
    app_name: str, tasks: Callable[[], list], name: str, title: str
) -> Figure:
    """An EC2 instance-type figure: one bar per 16-core shape."""

    def study():
        return instance_type_study(
            get_application(app_name), ec2_16core_backends(), tasks(),
            jobs=None, cache=default_cache(),
        )

    def tables(rows):
        return {name: format_table(
            ["deployment", "compute time (s)", "cost $ (hour units)",
             "amortized $"],
            [
                [r.label, f"{r.compute_time_s:,.0f}", f"{r.compute_cost:.2f}",
                 f"{r.amortized_cost:.2f}"]
                for r in rows
            ],
            title=title,
        )}

    return Figure(study, tables)


def _scaling_figure(
    app_name: str,
    factories: Callable[[], "dict[str, Callable[[int], Backend]]"],
    axis: str,
    values: tuple[int, ...],
    tasks_for: Callable[[int], list],
    efficiency: tuple[str, str],
    per_file: tuple[str, str],
) -> Figure:
    """A scaling figure pair: per platform, the Eq. 1 efficiency and the
    Eq. 2 per-file per-core time at each ``axis`` value.  ``efficiency``
    and ``per_file`` are each a (results file name, title) pair."""

    def study():
        app, cache = get_application(app_name), default_cache()
        eff, per = {}, {}
        for name, factory in factories().items():
            points = scalability_study(
                app, factory, values, tasks_for, jobs=None, cache=cache
            )
            eff[name] = {v: p.efficiency for v, p in zip(values, points)}
            per[name] = {
                v: p.per_file_per_core_s for v, p in zip(values, points)
            }
        return eff, per

    def tables(series):
        eff, per = series
        return {
            efficiency[0]: format_series(axis, eff, title=efficiency[1]),
            per_file[0]: format_series(
                axis, per, value_format="{:.1f}", title=per_file[1]
            ),
        }

    return Figure(study, tables)


# Figures 5/6: Cap3 weak scaling, four replicated 458-read files per core.
fig5_6 = _scaling_figure(
    "cap3",
    lambda: {
        "EC2": lambda cores: _quiet("ec2", n_instances=cores // 8),
        "Azure": lambda cores: _quiet("azure", n_instances=cores),
        "Hadoop": lambda cores: _cluster(
            "hadoop", "cap3-baremetal", cores // 8
        ),
        "DryadLINQ": lambda cores: _cluster(
            "dryadlinq", "cap3-baremetal-windows", cores // 8
        ),
    },
    "cores",
    (32, 64, 128),
    lambda cores: cap3_task_specs(cores * 4, reads_per_file=458),
    ("fig5_cap3_parallel_efficiency", "Figure 5: Cap3 parallel efficiency"),
    ("fig6_cap3_time_per_file_per_core",
     "Figure 6: Cap3 per-file per-core time (s)"),
)


def _fixed(backend: Backend) -> Callable[[int], Backend]:
    return lambda _: backend


# Figures 10/11: BLAST on fixed fleets as the query-file count grows.
fig10_11 = _scaling_figure(
    "blast",
    lambda: {
        "EC2 (16xHCXL)": _fixed(_quiet("ec2", n_instances=16)),
        "Azure (16xLarge)": _fixed(_quiet(
            "azure", instance_type="Large", n_instances=16,
            workers_per_instance=4,
        )),
        "Hadoop (iDataplex)": _fixed(_cluster("hadoop", "idataplex", 16)),
        "DryadLINQ (HPC)": _fixed(_cluster("dryadlinq", "hpc-blast", 8)),
    },
    "query files",
    (128, 256, 384, 512),
    lambda n_files: blast_task_specs(n_files, seed=6),
    ("fig10_blast_parallel_efficiency",
     "Figure 10: BLAST parallel efficiency"),
    ("fig11_blast_time_per_query_file",
     "Figure 11: BLAST per-query-file per-core time (s)"),
)

fig3_4 = _instance_figure(
    "cap3",
    lambda: cap3_task_specs(200, reads_per_file=200),
    "fig3_4_cap3_instance_types",
    "Figures 3+4: Cap3 on EC2 instance types "
    "(200 files x 200 reads, 16 cores)",
)

fig7_8 = _instance_figure(
    "blast",
    lambda: blast_task_specs(64, inhomogeneous_base=False, seed=3),
    "fig7_8_blast_instance_types",
    "Figures 7+8: BLAST on EC2 instance types "
    "(64 query files x 100 seqs, 16 cores)",
)

fig12_13 = _instance_figure(
    "gtm",
    lambda: gtm_task_specs(64),
    "fig12_13_gtm_instance_types",
    "Figures 12+13: GTM Interpolation on EC2 instance types "
    "(64 PubChem splits, 16 cores)",
)

# Figure 9: (instance type, count, workers/instance, threads/worker),
# all 8 cores.
_AZURE_8CORE_SHAPES = [
    ("Small", 8, 1, 1),
    ("Medium", 4, 2, 1),
    ("Medium", 4, 1, 2),
    ("Large", 2, 4, 1),
    ("Large", 2, 1, 4),
    ("ExtraLarge", 1, 8, 1),
    ("ExtraLarge", 1, 1, 8),
]


def _fig9_study():
    """(label, type, workers, threads, seconds, amortized compute $) per
    shape.  The backends run directly: the cached point result carries
    no amortized compute cost."""
    app = get_application("blast")
    tasks = blast_task_specs(8, inhomogeneous_base=False, seed=4)
    rows = []
    for itype, n, workers, threads in _AZURE_8CORE_SHAPES:
        result = _quiet(
            "azure",
            instance_type=itype,
            n_instances=n,
            workers_per_instance=workers,
            threads_per_worker=threads,
        ).run(app.with_threads(threads), tasks)
        rows.append(
            (f"{itype} {workers}x{threads}", itype, workers, threads,
             result.makespan_seconds, result.billing.amortized_compute_cost)
        )
    return rows


fig9 = Figure(
    _fig9_study,
    lambda rows: {"fig9_blast_azure_types": format_table(
        ["shape (workers x threads)", "time (s)", "amortized $"],
        [[label, f"{t:,.0f}", f"{cost:.2f}"]
         for label, _, _, _, t, cost in rows],
        title="Figure 9: BLAST on Azure instance types (8 query files)",
    )},
)


def _fig14_15_study():
    """{platform: PointResult} for 264 PubChem files of 100k points."""
    backends = {
        "Azure Small (64x1)": _quiet("azure", n_instances=64),
        "EC2 Large (32x2)": _quiet(
            "ec2", instance_type="L", n_instances=32, workers_per_instance=2
        ),
        "EC2 HCXL (8x8)": _quiet("ec2", n_instances=8),
        "EC2 HM4XL (8x8)": _quiet(
            "ec2", instance_type="HM4XL", n_instances=8,
            workers_per_instance=8,
        ),
        "Hadoop (8 of 24 cores)": _cluster("hadoop", "gtm-hadoop", 8),
        "DryadLINQ (16-core nodes)": _cluster("dryadlinq", "gtm-dryad", 4),
    }
    app, tasks = get_application("gtm"), gtm_task_specs(264)
    results = run_points(
        [point_for(app, backend, tasks) for backend in backends.values()],
        jobs=None, cache=default_cache(),
    )
    return dict(zip(backends, results))


fig14_15 = Figure(
    _fig14_15_study,
    lambda results: {"fig14_15_gtm_scaling": format_table(
        ["platform", "cores", "makespan (s)", "efficiency", "s/file/core"],
        [
            [name, r.cores, f"{r.makespan_s:,.0f}",
             f"{r.efficiency:.3f}", f"{r.per_file_per_core_s:.1f}"]
            for name, r in results.items()
        ],
        title="Figures 14+15: GTM Interpolation across platforms "
              "(264 x 100k points)",
    )},
)


def _autoscale_study():
    from repro.autoscale.study import autoscale_study

    return autoscale_study(n_files=64, jobs=None, cache=default_cache())


def _autoscale_tables(rows):
    from repro.autoscale.study import render_frontier

    return {"autoscale_frontier": render_frontier(rows)}


def _serve_study():
    from repro.serve import serve_study

    return serve_study(duration_s=300.0, seed=42, jobs=None)[0]


def _serve_tables(rows):
    from repro.serve import render_frontier

    return {"serve_frontier": render_frontier(rows)}


def _chaos_study():
    from repro.chaos import chaos_study

    return chaos_study(n_files=48, jobs=None, cache=default_cache())


def _chaos_tables(rows):
    from repro.chaos import render_resilience

    return {"chaos_resilience": render_resilience(rows)}


FIGURES: dict[str, Figure] = {
    # Not paper figures: the extensions' frontiers (elastic pools,
    # sustained multi-tenant load, fault injection).
    "autoscale": Figure(_autoscale_study, _autoscale_tables),
    "chaos": Figure(_chaos_study, _chaos_tables),
    "serve": Figure(_serve_study, _serve_tables),
    "fig3_4": fig3_4,
    "fig5_6": fig5_6,
    "fig7_8": fig7_8,
    "fig9": fig9,
    "fig10_11": fig10_11,
    "fig12_13": fig12_13,
    "fig14_15": fig14_15,
}


def available_figures() -> list[str]:
    """Figure identifiers accepted by :func:`render_figure`."""
    return sorted(FIGURES)


def render_figure(figure_id: str) -> str:
    """Run one figure and join its tables with a blank line."""
    try:
        figure = FIGURES[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure_id!r}; available: {available_figures()}"
        ) from None
    return "\n\n".join(figure.tables(figure.study()).values())
