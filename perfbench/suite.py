"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload has two phases:

* ``setup(seed, root)`` generates every input from the seed into the
  private directory ``root`` and builds backends, points and configs.
  It returns a :class:`Prepared` whose ``run_pass`` callable is the
  timed phase.
* ``Prepared.run_pass(step)`` runs the workload once and returns its
  outputs as ``{item name: bytes}``; the harness digests and compares
  them.  The pass runs all its work inside ``with step():`` blocks,
  which the harness times one by one.

The program only ever sees the generated inputs: task specs, configs,
files and trained models.  Nothing here reads or writes the checkout's
``.repro-cache/``: result caches and artifact stores are private
directories under ``root``, passed explicitly.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

WORKLOADS = ("figures-cold", "serve-trace", "kernels-local")


@dataclass
class Prepared:
    """One workload after set-up: the timed pass plus what it needs."""

    run_pass: Callable[..., "dict[str, bytes]"]
    #: counts of generated inputs, reported in the traced run
    inputs: "dict[str, int]" = field(default_factory=dict)
    #: directory the pass writes into; emptied before every pass
    scratch: "Path | None" = None
    #: for a workload that is traced by design (serve-trace): the same
    #: pass with the null observability bundle and no trace export
    null_pass: "Callable[..., dict[str, bytes]] | None" = None


def derive_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent sub-seeds, a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(1, 2**31 - 1, size=n)]


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, indent=1).encode()


# ---------------------------------------------------------------------------
# figures-cold: every repro.figures study except serve, serial, cold cache.
# ---------------------------------------------------------------------------

# The paper's 16-core EC2 deployment shapes, as in repro.figures.
_EC2_SHAPES = [("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8)]
BACKEND_SEED = 17
# Studies that keep repro.figures' own input seed: their DES work moves
# with the seed far more than the rest (Figs 10/11 by 1.3x, autoscale by
# 4x), which would make wall_s measure the seed, not the code.
FIG10_SEED = 6
AUTOSCALE_SEED = 17

#: The studies a pass runs: every repro.figures study except serve.
FIGURE_STUDIES = ("fig3_4", "fig5_6", "fig7_8", "fig9", "fig10_11",
                  "fig12_13", "fig14_15", "chaos", "autoscale")
_AZURE_FIG9_SHAPES = [
    ("Small", 8, 1, 1), ("Medium", 4, 2, 1), ("Large", 2, 4, 1),
    ("Large", 2, 1, 4), ("ExtraLarge", 1, 8, 1), ("ExtraLarge", 1, 1, 8),
]


def setup_figures(seed: int, root: Path) -> Prepared:
    from repro.cloud.failures import FaultPlan
    from repro.cluster import get_cluster
    from repro.core.application import get_application
    from repro.core.backends import make_backend
    from repro.sweep import point_for
    from repro.workloads.genome import cap3_task_specs
    from repro.workloads.protein import blast_task_specs
    from repro.workloads.pubchem import gtm_task_specs

    s_cap3a, s_cap3b, s_blast78, s_blast9, s_chaos = derive_seeds(seed, 5)
    cap3, blast, gtm = (get_application(n) for n in ("cap3", "blast", "gtm"))

    # The simulated platforms keep repro.figures' seeds: the seed is the
    # platform's, not the input's, and a platform seed alone moved the
    # DES work of Figs 10/11 by 1.7x between benchmark seeds.
    def quiet(kind: str, **kwargs):
        return make_backend(
            kind, fault_plan=FaultPlan.none(), seed=BACKEND_SEED, **kwargs
        )

    def cluster_backend(kind: str, cluster: str, nodes: int):
        return make_backend(kind, cluster=get_cluster(cluster).subset(nodes))

    ec2_16core = [
        quiet("ec2", instance_type=t, n_instances=n, workers_per_instance=w)
        for t, n, w in _EC2_SHAPES
    ]

    # Figures 5/6: weak scaling of Cap3 over four frameworks.
    core_counts = [32, 64, 128]
    cap3_by_cores = {
        c: cap3_task_specs(c * 4, reads_per_file=458, seed=s_cap3b)
        for c in core_counts
    }
    fig5_backends = {
        "EC2": {c: quiet("ec2", n_instances=c // 8) for c in core_counts},
        "Azure": {c: quiet("azure", n_instances=c) for c in core_counts},
        "Hadoop": {
            c: cluster_backend("hadoop", "cap3-baremetal", c // 8)
            for c in core_counts
        },
        "DryadLINQ": {
            c: cluster_backend("dryadlinq", "cap3-baremetal-windows", c // 8)
            for c in core_counts
        },
    }

    fig9_tasks = blast_task_specs(8, inhomogeneous_base=False, seed=s_blast9)
    fig9_points = [
        point_for(
            blast.with_threads(threads),
            quiet(
                "azure", instance_type=t, n_instances=n,
                workers_per_instance=w, threads_per_worker=threads,
            ),
            fig9_tasks,
        )
        for t, n, w, threads in _AZURE_FIG9_SHAPES
    ]

    fig10_backends = {
        "EC2": quiet("ec2", n_instances=16),
        "Azure": quiet(
            "azure", instance_type="Large", n_instances=16,
            workers_per_instance=4,
        ),
        "Hadoop": cluster_backend("hadoop", "idataplex", 16),
        "DryadLINQ": cluster_backend("dryadlinq", "hpc-blast", 8),
    }
    fig10_points = [
        point_for(blast, backend, blast_task_specs(n, seed=FIG10_SEED))
        for backend in fig10_backends.values()
        for n in (128, 256, 384)
    ]

    fig14_backends = [
        quiet("azure", n_instances=64),
        quiet("ec2", instance_type="L", n_instances=32, workers_per_instance=2),
        quiet("ec2", n_instances=8),
        cluster_backend("hadoop", "gtm-hadoop", 8),
        cluster_backend("dryadlinq", "gtm-dryad", 4),
    ]
    fig14_points = [
        point_for(gtm, b, gtm_task_specs(264)) for b in fig14_backends
    ]

    all_studies = {
        "fig3_4": ("instance", cap3, ec2_16core,
                   cap3_task_specs(200, reads_per_file=200, seed=s_cap3a)),
        "fig5_6": ("scaling", cap3, fig5_backends, cap3_by_cores),
        "fig7_8": ("instance", blast, ec2_16core,
                   blast_task_specs(64, inhomogeneous_base=False,
                                    seed=s_blast78)),
        "fig9": ("points", fig9_points),
        "fig10_11": ("points", fig10_points),
        "fig12_13": ("instance", gtm, ec2_16core, gtm_task_specs(64)),
        "fig14_15": ("points", fig14_points),
        "chaos": ("chaos", s_chaos),
        "autoscale": ("autoscale", AUTOSCALE_SEED),
    }
    studies = {name: all_studies[name] for name in FIGURE_STUDIES}
    cache_root = root / "result-cache"
    return Prepared(
        run_pass=lambda step=nullcontext: _figures_pass(
            studies, cache_root, step),
        inputs={"figures.studies": len(studies)},
        scratch=cache_root,
    )


def _figures_pass(studies: dict, cache_root: Path, step) -> "dict[str, bytes]":
    """One pass; each study is a step, and a study over a list of points
    (or of frameworks) takes one step per point (or framework)."""
    from repro.autoscale.study import autoscale_study
    from repro.chaos import chaos_study
    from repro.core.experiment import instance_type_study, scalability_study
    from repro.sweep import ResultCache, run_points

    # The harness empties cache_root before every pass: a cold cache.
    cache = ResultCache(cache_root)
    outputs: dict[str, bytes] = {}
    for name, (kind, *args) in studies.items():
        if kind == "instance":
            app, backends, tasks = args
            with step():
                rows = instance_type_study(app, backends, tasks, jobs=1,
                                           cache=cache)
            value = [asdict(r) for r in rows]
        elif kind == "scaling":
            app, backends, tasks_by = args
            value = {}
            for label, by_cores in backends.items():
                with step():
                    rows = scalability_study(
                        app, by_cores.__getitem__, sorted(by_cores),
                        tasks_by.__getitem__, jobs=1, cache=cache,
                    )
                value[label] = [asdict(p) for p in rows]
        elif kind == "points":
            value = []
            for point in args[0]:
                with step():
                    (result,) = run_points([point], jobs=1, cache=cache)
                value.append(result.to_dict())
        elif kind == "chaos":
            with step():
                rows = chaos_study(n_files=48, seed=args[0], jobs=1,
                                   cache=cache)
            value = [r.to_dict() for r in rows]
        else:
            with step():
                rows = autoscale_study(n_files=64, seed=args[0], jobs=1,
                                       cache=cache)
            value = [r.to_dict() for r in rows]
        outputs[name] = _canonical(value)
    return outputs


# ---------------------------------------------------------------------------
# serve-trace: the serve frontier the way `python -m repro serve --trace`
# runs it — every fleet point in-process under its own live bundle.
# ---------------------------------------------------------------------------

SERVE_FLEETS = (1, 2, 4)
SERVE_WINDOW_S = 1800.0


def setup_serve(seed: int, root: Path) -> Prepared:
    from repro.serve import ServeConfig, default_tenants

    (s_serve,) = derive_seeds(seed, 1)
    tenants = default_tenants()
    configs = [
        ServeConfig(
            tenants=tenants,
            provider="aws",
            instance_type="HCXL",
            n_instances=n,
            workers_per_instance=8,
            duration_s=SERVE_WINDOW_S,
            seed=s_serve,
        )
        for n in SERVE_FLEETS
    ]
    out = root / "serve-out"
    return Prepared(
        run_pass=lambda step=nullcontext: _serve_pass(
            configs, out, step, live=True),
        null_pass=lambda step=nullcontext: _serve_pass(
            configs, out, step, live=False),
        inputs={"serve.fleet_points": len(configs),
                "serve.tenants": len(tenants)},
        scratch=out,
    )


def _serve_pass(configs, out: Path, step, live: bool) -> "dict[str, bytes]":
    """One frontier: a step per fleet point, then one for the frontier
    and the trace.  ``live=False`` runs it with the null bundle and
    writes no trace: the baseline for ``obs.overhead_ratio``."""
    from repro.obs import Observability, observe, write_chrome_trace
    from repro.obs.context import worker_payload
    from repro.serve import frontier_rows, run_serve, serialize_rows

    out.mkdir(parents=True, exist_ok=True)
    parent = Observability.make(label="serve-study") if live else None
    results = []
    for config in configs:
        with step():
            if live:
                label = f"serve-fleet-{config.n_instances}"
                child = Observability.make(label=label)
                with observe(child):
                    results.append(run_serve(config))
                parent.adopt_worker(worker_payload(child, label=label))
            else:
                results.append(run_serve(config))
    with step():
        frontier = serialize_rows(frontier_rows(results))
        (out / "frontier.json").write_text(frontier + "\n", encoding="utf-8")
        if live:
            trace_path = out / "trace.json"
            write_chrome_trace(trace_path, parent)
    outputs = {"frontier": frontier.encode()}
    accounting = []
    for r in results:
        accounting.append({
            "fleet": r.n_instances, "submitted": r.submitted,
            "admitted": r.admitted, "shed": r.shed,
            "completed": r.completed, "abandoned": r.abandoned,
            "duplicates": r.duplicates,
        })
    outputs["accounting"] = _canonical(accounting)
    if live:
        outputs["trace"] = trace_path.read_bytes()
    return outputs


def comparable_trace(raw: bytes) -> bytes:
    """The trace without its wall-clock timestamps.

    ``serve.dispatch`` instants are stamped on the wall-time track, so
    their ``ts`` differs between passes; everything on simulated-time
    tracks must repeat exactly.  The trace also names real OS pids, so
    it is compared between the passes of one run but never pinned.
    """
    document = json.loads(raw)
    events = document["traceEvents"]
    wall_pids = {
        e["pid"] for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
        and "wall time" in e.get("args", {}).get("name", "")
    }
    for event in events:
        if event.get("pid") in wall_pids:
            event.pop("ts", None)
            event.pop("dur", None)
    return _canonical(events)


def serve_accounting_errors(accounting: bytes) -> list[str]:
    """Every fleet point's books must balance exactly."""
    errors = []
    for row in json.loads(accounting):
        if row["submitted"] != row["admitted"] + row["shed"]:
            errors.append(f"fleet {row['fleet']}: submitted != admitted + shed")
        if row["admitted"] != row["completed"] + row["abandoned"]:
            errors.append(
                f"fleet {row['fleet']}: admitted != completed + abandoned"
            )
    return errors


# ---------------------------------------------------------------------------
# kernels-local: the real Cap3 / BLAST / GTM executables through
# LocalClassicCloud + LocalBlobStore with one worker thread.
# ---------------------------------------------------------------------------

# Uneven Cap3 read counts: a fixed multiset (lognormal quantiles), shuffled
# per seed, so every seed does the same amount of assembly work.
#
# How long BLAST and GTM take depends on the data as well as its size
# (hits to extend; how sharp the trained model is).  So each BLAST file
# gets its own database and each GTM group its own dataset and model,
# all from independent sub-seeds: a run's time averages over several
# draws instead of resting on one.
CAP3_FILES = 24
CAP3_MEAN_READS = 40
CAP3_READ_LENGTH = 200
BLAST_FILES = 5
BLAST_QUERIES = 10
BLAST_DB_SEQUENCES = 30
GTM_FILES = 40
GTM_GROUPS = 4
GTM_POINTS = 2500
GTM_DIMENSIONS = 16
GTM_SAMPLE = 300


def cap3_read_counts() -> list[int]:
    """Read counts at the lognormal quantiles: uneven, but a fixed sum."""
    sigma = 0.55
    q = (np.arange(CAP3_FILES) + 0.5) / CAP3_FILES
    z = np.array([NormalDist().inv_cdf(float(p)) for p in q])
    counts = np.exp(z * sigma - 0.5 * sigma**2) * CAP3_MEAN_READS
    return [max(4, int(round(c))) for c in counts]


def setup_kernels(seed: int, root: Path) -> Prepared:
    from repro.apps.executables import (
        BlastExecutable,
        Cap3Executable,
        GtmInterpolationExecutable,
    )
    from repro.apps.gtm import train_gtm
    from repro.classiccloud.localstore import LocalBlobStore
    from repro.core.task import TaskSpec
    from repro.workloads.genome import write_cap3_workload
    from repro.workloads.protein import write_blast_workload
    from repro.workloads.pubchem import write_gtm_workload
    from repro.workloads.store import WorkloadArtifactStore

    s_cap3, s_blast, s_gtm, s_shuffle = derive_seeds(seed, 4)
    artifacts = WorkloadArtifactStore(root / "artifacts")
    gen = root / "generated"
    blobs = LocalBlobStore(root / "blobs")

    counts = cap3_read_counts()
    order = np.random.default_rng(s_shuffle).permutation(len(counts))
    cap3_inputs = []
    for i, index in enumerate(order):
        (spec,) = write_cap3_workload(
            gen / "cap3" / f"{i:03d}", 1, reads_per_file=counts[index],
            read_length=CAP3_READ_LENGTH, replicated=True,
            seed=s_cap3 + i, store=artifacts,
        )
        cap3_inputs.append(Path(spec.input_key))
    blast_groups = []
    for g in range(BLAST_FILES):
        (spec,), db = write_blast_workload(
            gen / "blast" / f"{g:03d}", 1, queries_per_file=BLAST_QUERIES,
            db_sequences=BLAST_DB_SEQUENCES, seed=s_blast + g,
            store=artifacts,
        )
        blast_groups.append((BlastExecutable(db), [Path(spec.input_key)]))
    gtm_groups = []
    for g in range(GTM_GROUPS):
        specs, sample = write_gtm_workload(
            gen / "gtm" / f"{g:03d}", GTM_FILES // GTM_GROUPS,
            points_per_file=GTM_POINTS, dimensions=GTM_DIMENSIONS,
            sample_points=GTM_SAMPLE, seed=s_gtm + g, store=artifacts,
        )
        model = train_gtm(np.asarray(sample), seed=s_gtm + g, tol=0.0)
        gtm_groups.append((GtmInterpolationExecutable(model),
                           [Path(s.input_key) for s in specs]))

    def upload(kernel: str, groups: list, suffix: str) -> list:
        """Blob-store inputs and task specs, numbered across groups."""
        jobs, i = [], 0
        for executable, paths in groups:
            tasks = []
            for path in paths:
                in_key = f"{kernel}/in/{i:05d}{path.suffix}"
                blobs.put(in_key, path)
                tasks.append(TaskSpec(
                    task_id=f"{kernel}-{i:05d}", input_key=in_key,
                    output_key=f"out/{kernel}/{i:05d}{suffix}",
                    input_size=path.stat().st_size, output_size=0,
                    work_units=1.0,
                ))
                i += 1
            jobs.append((executable, tasks))
        return jobs

    jobs = {
        "cap3": upload("cap3", [(Cap3Executable(), cap3_inputs)], ".fa"),
        "blast": upload("blast", blast_groups, ".tsv"),
        "gtm": upload("gtm", gtm_groups, ".npy"),
    }
    return Prepared(
        run_pass=lambda step=nullcontext: _kernels_pass(jobs, blobs, step),
        inputs={
            "kernel.cap3.files": CAP3_FILES,
            "kernel.cap3.reads": int(sum(counts)),
            "kernel.blast.files": BLAST_FILES,
            "kernel.blast.queries": BLAST_FILES * BLAST_QUERIES,
            "kernel.gtm.files": GTM_FILES,
            "kernel.gtm.points": GTM_FILES * GTM_POINTS,
        },
        scratch=blobs.root / "out",
    )


def _kernels_pass(jobs, blobs, step) -> "dict[str, bytes]":
    """One pass: a step per job (one per database or model)."""
    from repro.classiccloud.local import LocalClassicCloud

    outputs: dict[str, bytes] = {}
    for kernel, kernel_jobs in jobs.items():
        for executable, tasks in kernel_jobs:
            with step():
                LocalClassicCloud(n_workers=1, store=blobs).run(
                    executable, tasks)
        written = blobs.list_keys(f"out/{kernel}/")
        expected = sorted(t.output_key for _, tasks in kernel_jobs
                          for t in tasks)
        # Exactly one output per task, and nothing else.
        outputs[f"{kernel}.outputs"] = _canonical(
            {"expected": len(expected), "missing": sorted(
                set(expected) - set(written)), "extra": sorted(
                set(written) - set(expected))}
        )
        for key in written:
            outputs[key] = (blobs.root / key).read_bytes()
    return outputs


def kernel_output_errors(outputs: "dict[str, bytes]") -> list[str]:
    """Every kernel task left exactly one output."""
    errors = []
    for name, value in outputs.items():
        if name.endswith(".outputs"):
            book = json.loads(value)
            if book["missing"] or book["extra"]:
                errors.append(f"{name}: {book}")
    return errors


SETUPS = {
    "figures-cold": setup_figures,
    "serve-trace": setup_serve,
    "kernels-local": setup_kernels,
}


#: Outputs compared between the passes of one run but never pinned.
UNPINNED = {"trace"}


def comparable(name: str, value: bytes) -> bytes:
    """The bytes of one output that must repeat exactly."""
    return comparable_trace(value) if name == "trace" else value


def output_errors(
    workload: str, outputs: "dict[str, bytes]"
) -> "list[tuple[str, str]]":
    """Seed-independent invariants of one pass: (output, message) pairs."""
    if workload == "serve-trace":
        return [("accounting", e)
                for e in serve_accounting_errors(outputs["accounting"])]
    if workload == "kernels-local":
        return [("kernels", e) for e in kernel_output_errors(outputs)]
    return []
