"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``catalog`` — print the instance-type tables (paper Tables 1–2) and
  cluster catalog;
* ``run`` — run one application workload on one backend and print the
  paper's metrics (Eq. 1 efficiency, Eq. 2 per-file time, cost);
* ``cost`` — the Table 4 style cloud-vs-cluster comparison for an
  arbitrary file count;
* ``bench`` — the microbenchmark suite (kernel ops + per-app sweeps),
  written to ``BENCH_3.json`` (:mod:`repro.sweep.bench`);
* ``cache`` — inspect (``stats``) or empty (``clear``) the
  content-addressed sweep result cache under ``.repro-cache/``;
* ``sweep`` — run the instance-type sweep through the worker pool;
  with ``--trace`` exports one **merged multi-process** Chrome trace
  covering the parent and every pool worker;
* ``serve`` — the sustained-traffic job service study
  (:mod:`repro.serve`): seeded multi-tenant arrival streams, admission
  control, fair-share scheduling, and the cost-vs-latency frontier;
* ``trace`` — validate and summarize a Chrome ``trace_event`` JSON
  exported by ``run --trace`` / ``sweep --trace`` (:mod:`repro.obs`);
* ``report`` — render a trace + run result + ``BENCH_*.json`` history
  as one self-contained HTML report (:mod:`repro.obs.report`);
* ``lint`` — the determinism linter over the simulation sources
  (:mod:`repro.lint`).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from repro.cloud.failures import FaultPlan
from repro.cloud.instance_types import AZURE_INSTANCE_TYPES, EC2_INSTANCE_TYPES
from repro.cluster import CLUSTERS, get_cluster
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.core.metrics import average_time_per_file_per_core, parallel_efficiency
from repro.core.report import format_table

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Cloud Computing Paradigms for Pleasingly "
            "Parallel Biomedical Applications' (Gunarathne et al., 2010)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="print instance-type and cluster catalogs")

    run_parser = sub.add_parser(
        "run", help="run a workload on a backend and print metrics"
    )
    run_parser.add_argument(
        "--app", choices=("cap3", "blast", "gtm"), default="cap3"
    )
    run_parser.add_argument(
        "--backend",
        choices=("ec2", "azure", "hadoop", "dryadlinq"),
        default="ec2",
    )
    run_parser.add_argument("--files", type=int, default=200)
    run_parser.add_argument(
        "--instances", type=int, default=None,
        help="cloud instances (default: paper setup)",
    )
    run_parser.add_argument(
        "--instance-type", default=None, help="e.g. HCXL or Small"
    )
    run_parser.add_argument(
        "--workers", type=int, default=None, help="workers per instance"
    )
    run_parser.add_argument(
        "--nodes", type=int, default=None, help="bare-metal nodes"
    )
    run_parser.add_argument(
        "--cluster", default=None, help=f"one of {sorted(CLUSTERS)}"
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--inhomogeneous", action="store_true",
        help="inhomogeneous task sizes (Cap3/BLAST)",
    )
    run_parser.add_argument(
        "--sanitize", action="store_true",
        help="run on the instrumented event loop and print the "
        "sanitizer report (sets REPRO_SANITIZE=1)",
    )
    run_parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: REPRO_JOBS or cpu count)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the result cache under .repro-cache/",
    )
    run_parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="record spans/metrics and export a Chrome trace_event JSON "
        "(open in chrome://tracing or ui.perfetto.dev); forces an "
        "in-process, uncached run",
    )
    run_parser.add_argument(
        "--autoscale", choices=("target-tracking", "step"), default=None,
        help="run an elastic pool under this scaling policy instead of "
        "the static deployment (cloud backends only)",
    )
    run_parser.add_argument(
        "--spot-fraction", type=float, default=0.0,
        help="fraction of the elastic pool bought on the spot market "
        "(0 = all on-demand, 1 = all spot; requires --autoscale)",
    )
    run_parser.add_argument(
        "--bid-multiplier", type=float, default=0.5,
        help="spot bid as a multiple of the on-demand price",
    )
    run_parser.add_argument(
        "--min-instances", type=int, default=1,
        help="elastic pool floor (requires --autoscale)",
    )
    run_parser.add_argument(
        "--max-instances", type=int, default=16,
        help="elastic pool ceiling (requires --autoscale)",
    )
    run_parser.add_argument(
        "--billing", choices=("hourly", "per-second"), default="hourly",
        help="billing mode for the elastic pool's instances",
    )

    sweep_parser = sub.add_parser(
        "sweep",
        help="run the paper's instance-type sweep through the worker pool",
    )
    sweep_parser.add_argument(
        "--app", choices=("cap3", "blast", "gtm"), default="cap3"
    )
    sweep_parser.add_argument("--files", type=int, default=16)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: REPRO_JOBS or cpu count)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the result cache under .repro-cache/",
    )
    sweep_parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="capture inside every worker process and export one merged "
        "multi-process Chrome trace_event JSON",
    )

    serve_parser = sub.add_parser(
        "serve",
        help="sustained-traffic job service study: multi-tenant arrival "
        "streams, fair-share scheduling, cost-vs-latency frontier",
    )
    serve_parser.add_argument("--seed", type=int, default=42)
    serve_parser.add_argument(
        "--duration", type=float, default=600.0,
        help="simulated seconds the arrival window stays open",
    )
    serve_parser.add_argument(
        "--fleet", default="1,2,4", metavar="N[,N...]",
        help="comma-separated fleet sizes to study (default 1,2,4)",
    )
    serve_parser.add_argument(
        "--instance-type", default="HCXL", help="e.g. HCXL or Small"
    )
    serve_parser.add_argument(
        "--provider", choices=("aws", "azure"), default="aws"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=8, help="workers per instance"
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="fleet points run in parallel (default: REPRO_JOBS or cpu "
        "count)",
    )
    serve_parser.add_argument(
        "--autoscale", choices=("target-tracking", "step"), default=None,
        help="autoscale each fleet point instead of keeping it static",
    )
    serve_parser.add_argument(
        "--spot-fraction", type=float, default=0.0,
        help="fraction of the elastic fleet bought on the spot market "
        "(requires --autoscale)",
    )
    serve_parser.add_argument(
        "--max-instances", type=int, default=8,
        help="elastic fleet ceiling (requires --autoscale)",
    )
    serve_parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="run fleet points in-process and export one merged Chrome "
        "trace_event JSON (one synthetic process per fleet point)",
    )
    serve_parser.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="also write the frontier rows as canonical JSON",
    )

    trace_parser = sub.add_parser(
        "trace", help="validate and summarize an exported Chrome trace"
    )
    trace_parser.add_argument(
        "trace", help="trace JSON written by 'run --trace' or 'sweep --trace'"
    )

    report_parser = sub.add_parser(
        "report",
        help="render a self-contained HTML report from a trace, a run "
        "result and the BENCH_*.json history",
    )
    report_parser.add_argument(
        "trace", help="Chrome trace JSON (from 'run --trace' or 'sweep --trace')"
    )
    report_parser.add_argument(
        "--run", default=None, metavar="RESULT.json",
        help="RunResult JSON exported via RunResult.to_json",
    )
    report_parser.add_argument(
        "--bench", nargs="*", default=None, metavar="BENCH.json",
        help="bench history files, oldest first (default: BENCH_*.json "
        "in the working directory)",
    )
    report_parser.add_argument(
        "-o", "--output", default="report.html", help="output HTML path"
    )
    report_parser.add_argument("--title", default=None)
    report_parser.add_argument(
        "--timeline-csv", default=None, metavar="OUT.csv",
        help="also write the trace's timeline counter series as CSV",
    )

    bench_parser = sub.add_parser(
        "bench", help="run the microbenchmark suite and write BENCH JSON"
    )
    bench_parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes: verify wiring in seconds, numbers not publishable",
    )
    bench_parser.add_argument(
        "--jobs", type=int, default=None,
        help="sweep worker processes (default: REPRO_JOBS or cpu count)",
    )
    bench_parser.add_argument(
        "--output", default="BENCH_3.json", help="output JSON path"
    )
    bench_parser.add_argument(
        "--gate", default=None, metavar="BASELINE",
        help="fail if kernel events/s regress past --gate-tolerance of "
        "this baseline BENCH JSON",
    )
    bench_parser.add_argument(
        "--gate-tolerance", type=float, default=0.10, metavar="FRACTION",
        help="allowed kernel events/s regression fraction (default 0.10)",
    )
    bench_parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two BENCH JSON files and print a delta table with "
        "regressions flagged (skips running the suite)",
    )

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the sweep result cache"
    )
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument(
        "--dir", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or .repro-cache)",
    )

    cost_parser = sub.add_parser(
        "cost", help="Table 4-style cost comparison for a Cap3 workload"
    )
    cost_parser.add_argument("--files", type=int, default=4096)
    cost_parser.add_argument("--reads-per-file", type=int, default=458)

    figures_parser = sub.add_parser(
        "figures", help="regenerate one of the paper's figures"
    )
    figures_parser.add_argument(
        "figure", nargs="?", default=None,
        help="figure id (omit to list available ids)",
    )

    analyze_parser = sub.add_parser(
        "analyze", help="analyze a trace JSON exported via RunResult.to_json"
    )
    analyze_parser.add_argument("trace", help="path to the trace JSON")
    analyze_parser.add_argument(
        "--gantt-width", type=int, default=72, help="Gantt chart width"
    )

    gendata_parser = sub.add_parser(
        "gendata", help="write a real synthetic workload to disk"
    )
    gendata_parser.add_argument(
        "--app", choices=("cap3", "blast", "gtm"), default="cap3"
    )
    gendata_parser.add_argument("directory", help="output directory")
    gendata_parser.add_argument("--files", type=int, default=8)
    gendata_parser.add_argument(
        "--size", type=int, default=None,
        help="reads per file (cap3), queries per file (blast) or points "
             "per file (gtm); app default if omitted",
    )
    gendata_parser.add_argument("--seed", type=int, default=0)

    chaos_parser = sub.add_parser(
        "chaos",
        help="deterministic fault-injection campaign: sweep fault "
        "intensity x mitigation and print the resilience report",
    )
    chaos_parser.add_argument(
        "--app", choices=("cap3", "blast", "gtm"), default="cap3"
    )
    chaos_parser.add_argument("--files", type=int, default=48)
    chaos_parser.add_argument("--instances", type=int, default=2)
    chaos_parser.add_argument(
        "--workers", type=int, default=8, help="workers per instance"
    )
    chaos_parser.add_argument("--seed", type=int, default=13)
    chaos_parser.add_argument(
        "--intensities", default="0,0.5,1", metavar="X[,X...]",
        help="comma-separated fault intensities (0 = fault-free)",
    )
    chaos_parser.add_argument(
        "--mitigations", default=None, metavar="M[,M...]",
        help="comma-separated subset of none,retry,speculation,"
        "retry+speculation (default: all four)",
    )
    chaos_parser.add_argument(
        "--horizon", type=float, default=240.0,
        help="seconds of the measured window faults are scheduled into",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=None,
        help="campaign cells run in parallel (default: REPRO_JOBS or "
        "cpu count)",
    )
    chaos_parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the result cache under .repro-cache/",
    )
    chaos_parser.add_argument(
        "--smoke", action="store_true",
        help="1-seed PR smoke: a tiny grid (fault-free baseline plus "
        "one defended high-intensity cell), seconds of wall time",
    )
    chaos_parser.add_argument(
        "--json", metavar="OUT.json", default=None,
        help="also write the resilience rows as canonical JSON",
    )
    chaos_parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="also play one traced run at the highest requested "
        "intensity (retry+speculation) and export its Chrome trace "
        "with the chaos-track instants",
    )

    docs_parser = sub.add_parser(
        "docs", help="check documentation: links resolve, code blocks run"
    )
    docs_parser.add_argument(
        "paths", nargs="*",
        help="markdown files to check (default: README.md + docs/*.md)",
    )
    docs_parser.add_argument(
        "--no-execute", action="store_true",
        help="check links only, skip running python code blocks",
    )

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)
    return parser


def _tasks_for(app_name: str, n_files: int, inhomogeneous: bool, seed: int):
    if app_name == "cap3":
        from repro.workloads.genome import cap3_task_specs

        return cap3_task_specs(
            n_files, inhomogeneous=inhomogeneous, seed=seed
        )
    if app_name == "blast":
        from repro.workloads.protein import blast_task_specs

        return blast_task_specs(
            n_files, inhomogeneous_base=inhomogeneous, seed=seed
        )
    from repro.workloads.pubchem import gtm_task_specs

    return gtm_task_specs(n_files)


def _cmd_catalog(out) -> int:
    rows = [
        [t.name, f"{t.machine.memory_gb} GB", t.ec2_compute_units or "-",
         f"{t.machine.cores} x {t.machine.clock_ghz} GHz",
         f"${t.cost_per_hour}/h"]
        for t in EC2_INSTANCE_TYPES.values()
    ]
    print(format_table(
        ["EC2 type", "memory", "ECU", "cores", "price"], rows,
        title="Table 1: EC2 instance types",
    ), file=out)
    rows = [
        [t.name, t.machine.cores, f"{t.machine.memory_gb} GB",
         f"${t.cost_per_hour}/h"]
        for t in AZURE_INSTANCE_TYPES.values()
    ]
    print(file=out)
    print(format_table(
        ["Azure type", "cores", "memory", "price"], rows,
        title="Table 2: Azure instance types",
    ), file=out)
    rows = [
        [c.name, c.n_nodes, c.node.machine.cores,
         f"{c.node.machine.clock_ghz} GHz",
         f"{c.node.machine.memory_gb} GB", c.node.machine.os]
        for c in CLUSTERS.values()
    ]
    print(file=out)
    print(format_table(
        ["cluster", "nodes", "cores/node", "clock", "memory/node", "os"],
        rows, title="Bare-metal clusters",
    ), file=out)
    return 0


def _resolved_jobs_or_none(args, out) -> "int | None":
    """Validate the jobs policy up front so a bad ``--jobs``/``REPRO_JOBS``
    produces a one-line error instead of a traceback mid-run."""
    from repro.sweep.runner import resolve_jobs

    try:
        return resolve_jobs(getattr(args, "jobs", None))
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return None


@contextmanager
def _traced(trace: "str | None", label: str):
    """Observe the block under a live bundle labelled ``label`` when
    ``trace`` names an output file; yields the bundle, or ``None``."""
    if trace is None:
        yield None
        return
    from repro.obs import observe

    with observe(label=label) as obs:
        yield obs


def _write_trace(path: str, obs, out) -> None:
    """Export ``obs`` as a Chrome trace, then print its summary and
    where it went (with the merged worker count when there is one)."""
    from repro.obs import summarize_chrome_trace, write_chrome_trace

    document = write_chrome_trace(path, obs)
    workers = document["otherData"].get("workers", [])
    merged = f", {len(workers)} worker process(es) merged" if workers else ""
    print(file=out)
    print(summarize_chrome_trace(document), file=out)
    print(file=out)
    print(
        f"trace written to {path} "
        f"({len(document['traceEvents'])} events{merged}; open in "
        "chrome://tracing or ui.perfetto.dev)",
        file=out,
    )


def _cmd_run(args, out) -> int:
    if _resolved_jobs_or_none(args, out) is None:
        return 2
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    app = get_application(args.app)
    tasks = _tasks_for(args.app, args.files, args.inhomogeneous, args.seed)
    kwargs: dict = {"seed": args.seed}
    if args.backend in ("ec2", "azure"):
        kwargs["fault_plan"] = FaultPlan.none()
        if args.instances is not None:
            kwargs["n_instances"] = args.instances
        if args.instance_type is not None:
            kwargs["instance_type"] = args.instance_type
        if args.workers is not None:
            kwargs["workers_per_instance"] = args.workers
        if args.autoscale is not None:
            from repro.autoscale import AutoscalePlan, default_policy
            from repro.cloud.spot import BidStrategy

            kwargs["autoscale"] = AutoscalePlan(
                policy=default_policy(args.autoscale),
                min_instances=args.min_instances,
                max_instances=args.max_instances,
                bid=BidStrategy.mixed(
                    args.spot_fraction, bid_multiplier=args.bid_multiplier
                ),
                billing=args.billing,
            )
    elif args.autoscale is not None:
        print(
            "error: --autoscale requires a cloud backend (ec2 or azure)",
            file=out,
        )
        return 2
    else:
        cluster_name = args.cluster or (
            "cap3-baremetal-windows" if args.backend == "dryadlinq"
            else "cap3-baremetal"
        )
        cluster = get_cluster(cluster_name)
        if args.nodes is not None:
            cluster = cluster.subset(args.nodes)
        kwargs["cluster"] = cluster
    backend = make_backend(args.backend, **kwargs)
    from repro.sweep.cache import default_cache
    from repro.sweep.points import InlinePoint, point_for, run_inline
    from repro.sweep.runner import run_points

    if args.trace or args.sanitize:
        # Tracing needs the span stream of this process and the
        # sanitizer report needs the live backend's event loop, so
        # run in-process and uncached.
        point = InlinePoint(
            app=app, backend=backend, tasks=tasks, label=backend.name
        )
        with _traced(args.trace, f"{args.app}-{args.backend}") as obs:
            r = run_inline(point)
    else:
        cache = None if args.no_cache else default_cache()

        def show_progress(event) -> None:
            print(
                f"[{event.index + 1}/{event.total}] "
                f"{event.label}: {event.status}",
                file=out,
            )

        r = run_points(
            [point_for(app, backend, tasks)],
            jobs=args.jobs,
            cache=cache,
            progress=show_progress,
        )[0]
    rows = [
        ["backend", r.backend],
        ["tasks", str(r.n_tasks)],
        ["cores", str(r.cores)],
        ["makespan", f"{r.makespan_s:,.1f} s"],
        ["T1 (sequential)", f"{r.t1_s:,.1f} s"],
        ["parallel efficiency (Eq.1)",
         f"{parallel_efficiency(r.t1_s, r.makespan_s, r.cores):.3f}"],
        ["avg time/file/core (Eq.2)",
         f"{average_time_per_file_per_core(r.makespan_s, r.cores, r.n_tasks):.2f} s"],
    ]
    if r.billed:
        rows.append(
            ["compute cost (hour units)", f"${r.compute_cost:.2f}"]
        )
        rows.append(
            ["amortized total cost", f"${r.amortized_cost:.2f}"]
        )
    extras = getattr(r, "extras", {}) or {}
    if args.autoscale is not None and extras:
        rows.extend(
            [
                ["scaling events (up/down)",
                 f"{extras.get('autoscale_scale_up_events', 0):.0f} / "
                 f"{extras.get('autoscale_scale_down_events', 0):.0f}"],
                ["peak instances",
                 f"{extras.get('autoscale_peak_instances', 0):.0f}"],
                ["spot preemptions",
                 f"{extras.get('autoscale_preemptions', 0):.0f}"],
                ["spot capacity denied",
                 f"{extras.get('autoscale_spot_unavailable', 0):.0f}"],
            ]
        )
    print(format_table(["metric", "value"], rows,
                       title=f"{args.app} on {args.backend}"), file=out)
    if args.sanitize:
        env = getattr(
            getattr(backend, "_framework", None), "last_environment", None
        )
        if env is not None and hasattr(env, "sanitizer_report"):
            print(file=out)
            print("sanitizer report:", file=out)
            print(env.sanitizer_report().summary(), file=out)
    if args.trace:
        _write_trace(args.trace, obs, out)
    return 0


def _cmd_sweep(args, out) -> int:
    if _resolved_jobs_or_none(args, out) is None:
        return 2
    from repro.sweep.cache import default_cache
    from repro.sweep.points import point_for
    from repro.sweep.runner import run_points

    app = get_application(args.app)
    tasks = _tasks_for(args.app, args.files, False, args.seed)
    shapes = [("L", 8, 2), ("XL", 4, 4), ("HCXL", 2, 8), ("HM4XL", 2, 8)]
    points = [
        point_for(
            app,
            make_backend(
                "ec2",
                instance_type=itype,
                n_instances=n,
                workers_per_instance=w,
                fault_plan=FaultPlan.none(),
                seed=args.seed,
            ),
            tasks,
        )
        for itype, n, w in shapes
    ]
    cache = None if args.no_cache else default_cache()

    def show_progress(event) -> None:
        print(
            f"[{event.index + 1}/{event.total}] "
            f"{event.label}: {event.status}",
            file=out,
        )

    with _traced(args.trace, f"{args.app}-sweep") as obs:
        results = run_points(
            points, jobs=args.jobs, cache=cache, progress=show_progress
        )
    rows = [
        [r.label, f"{r.makespan_s:,.1f} s", f"${r.amortized_cost:.2f}"]
        for r in results
    ]
    print(format_table(
        ["instance type", "makespan", "amortized cost"], rows,
        title=f"{args.app} sweep ({args.files} files)",
    ), file=out)
    if args.trace:
        _write_trace(args.trace, obs, out)
    return 0


def _cmd_serve(args, out) -> int:
    if _resolved_jobs_or_none(args, out) is None:
        return 2
    from repro.serve import render_frontier, serialize_rows, serve_study

    try:
        fleet_sizes = tuple(
            int(piece) for piece in args.fleet.split(",") if piece.strip()
        )
    except ValueError:
        print(f"error: --fleet must be integers, got {args.fleet!r}", file=out)
        return 2
    if not fleet_sizes:
        print("error: --fleet must name at least one fleet size", file=out)
        return 2
    autoscale = None
    if args.autoscale is not None:
        from repro.autoscale import AutoscalePlan, default_policy
        from repro.cloud.spot import BidStrategy

        autoscale = AutoscalePlan(
            policy=default_policy(args.autoscale),
            min_instances=1,
            max_instances=args.max_instances,
            bid=BidStrategy.mixed(args.spot_fraction),
        )
    with _traced(args.trace, "serve-study") as obs:
        rows, results = serve_study(
            fleet_sizes,
            provider=args.provider,
            instance_type=args.instance_type,
            workers_per_instance=args.workers,
            duration_s=args.duration,
            seed=args.seed,
            autoscale=autoscale,
            jobs=args.jobs,
        )
    print(render_frontier(rows), file=out)
    for result in results:
        if result.abandoned or result.duplicates:
            print(
                f"fleet {result.n_instances}: {result.abandoned} abandoned, "
                f"{result.duplicates} duplicate execution(s)",
                file=out,
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(serialize_rows(rows) + "\n")
        print(f"frontier rows written to {args.json}", file=out)
    if args.trace:
        _write_trace(args.trace, obs, out)
    return 0


def _cmd_report(args, out) -> int:
    import json
    from glob import glob

    from repro.obs import series_from_trace, validate_chrome_trace
    from repro.obs.report import write_report

    try:
        with open(args.trace, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        print(f"error: no such trace {args.trace!r}", file=out)
        return 2
    except ValueError as exc:
        print(f"error: {args.trace} is not JSON: {exc}", file=out)
        return 2
    errors = validate_chrome_trace(document)
    if errors:
        print(f"{args.trace}: invalid Chrome trace", file=out)
        for error in errors:
            print(f"  - {error}", file=out)
        return 2
    run = None
    if args.run:
        try:
            with open(args.run, encoding="utf-8") as handle:
                run = json.load(handle)
        except FileNotFoundError:
            print(f"error: no such run result {args.run!r}", file=out)
            return 2
    bench_paths = (
        args.bench if args.bench is not None else sorted(glob("BENCH_*.json"))
    )
    history = []
    for path in bench_paths:
        try:
            with open(path, encoding="utf-8") as handle:
                history.append((os.path.basename(path), json.load(handle)))
        except FileNotFoundError:
            print(f"error: no such bench file {path!r}", file=out)
            return 2
        except ValueError as exc:
            print(f"error: {path} is not JSON: {exc}", file=out)
            return 2
    title = args.title or f"repro report — {os.path.basename(args.trace)}"
    write_report(
        args.output, document, run=run, bench_history=history, title=title
    )
    print(
        f"report written to {args.output} (self-contained HTML; "
        f"trace {args.trace}, {len(history)} bench file(s))",
        file=out,
    )
    if args.timeline_csv:
        series = series_from_trace(document)
        lines = ["series,time_s,value"]
        for name in sorted(series):
            for ts, value in series[name]:
                lines.append(f"{name},{ts:.9g},{value:.9g}")
        with open(args.timeline_csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        print(
            f"timeline CSV written to {args.timeline_csv} "
            f"({len(lines) - 1} samples)",
            file=out,
        )
    return 0


def _cmd_trace(args, out) -> int:
    import json

    from repro.obs import summarize_chrome_trace, validate_chrome_trace

    try:
        with open(args.trace, encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        print(f"error: no such trace {args.trace!r}", file=out)
        return 2
    except ValueError as exc:
        print(f"error: {args.trace} is not JSON: {exc}", file=out)
        return 2
    errors = validate_chrome_trace(document)
    if errors:
        print(f"{args.trace}: invalid Chrome trace", file=out)
        for error in errors:
            print(f"  - {error}", file=out)
        return 2
    print(f"{args.trace}: valid Chrome trace", file=out)
    print(file=out)
    print(summarize_chrome_trace(document), file=out)
    return 0


def _cmd_cost(args, out) -> int:
    from repro.core.cost import cloud_vs_cluster
    from repro.workloads.genome import cap3_task_specs

    app = get_application("cap3")
    tasks = cap3_task_specs(args.files, reads_per_file=args.reads_per_file)
    ec2 = make_backend(
        "ec2", n_instances=16, fault_plan=FaultPlan.none(), perf_jitter=0.0
    ).run(app, tasks)
    azure = make_backend(
        "azure", n_instances=128, fault_plan=FaultPlan.none(), perf_jitter=0.0
    ).run(app, tasks)
    hadoop = make_backend("hadoop", cluster=get_cluster("internal-tco")).run(
        app, tasks
    )
    comparison = cloud_vs_cluster(
        aws_report=ec2.billing,
        azure_report=azure.billing,
        cluster_wall_hours=hadoop.makespan_seconds / 3600.0,
    )
    print(format_table(
        ["", "Amazon Web Services", "Azure"], comparison.table4_rows(),
        title=f"Cost comparison ({args.files} FASTA files)",
    ), file=out)
    print(file=out)
    print(format_table(
        ["internal cluster", "cost"], comparison.cluster_rows(),
    ), file=out)
    return 0


def _cmd_bench(args, out) -> int:
    if args.compare is not None:
        import json

        from repro.obs.report import bench_compare, format_bench_compare

        docs = []
        for path in args.compare:
            try:
                with open(path, encoding="utf-8") as handle:
                    docs.append(json.load(handle))
            except FileNotFoundError:
                print(f"error: no such bench file {path!r}", file=out)
                return 2
            except ValueError as exc:
                print(f"error: {path} is not JSON: {exc}", file=out)
                return 2
        rows = bench_compare(docs[0], docs[1], tolerance=args.gate_tolerance)
        print(
            format_bench_compare(
                rows,
                os.path.basename(args.compare[0]),
                os.path.basename(args.compare[1]),
            ),
            file=out,
        )
        return 0
    if _resolved_jobs_or_none(args, out) is None:
        return 2
    from repro.sweep.bench import main as bench_main

    return bench_main(args, out)


def _cmd_cache(args, out) -> int:
    from repro.sweep.cache import DEFAULT_CACHE_DIRNAME, ResultCache

    root = args.dir or os.environ.get(
        "REPRO_CACHE_DIR"
    ) or DEFAULT_CACHE_DIRNAME
    cache = ResultCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {root}", file=out)
        return 0
    stats = cache.stats()
    print(f"cache at {root}", file=out)
    print(stats.summary(), file=out)
    return 0


def _cmd_figures(args, out) -> int:
    from repro.figures import available_figures, render_figure

    if args.figure is None:
        print("available figures:", ", ".join(available_figures()), file=out)
        return 0
    try:
        print(render_figure(args.figure), file=out)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return 2
    return 0


def _cmd_analyze(args, out) -> int:
    from repro.core.analysis import (
        gantt_text,
        load_balance_index,
        phase_breakdown,
        worker_utilization,
    )
    from repro.core.task import RunResult

    try:
        result = RunResult.from_json(args.trace)
    except FileNotFoundError:
        print(f"error: no such trace {args.trace!r}", file=out)
        return 2
    rows = [
        ["backend", result.backend],
        ["tasks", str(result.n_tasks)],
        ["makespan", f"{result.makespan_seconds:,.1f} s"],
        ["duplicate executions", str(result.duplicate_executions)],
        ["load balance (max/mean)", f"{load_balance_index(result):.3f}"],
    ]
    for phase, fraction in phase_breakdown(result).items():
        rows.append([f"time in {phase}", f"{100 * fraction:.1f}%"])
    utilization = worker_utilization(result)
    if utilization:
        rows.append(
            ["worker utilization",
             f"min {min(utilization.values()):.2f} / "
             f"max {max(utilization.values()):.2f}"]
        )
    print(format_table(["metric", "value"], rows,
                       title=f"trace: {args.trace}"), file=out)
    print(file=out)
    print(gantt_text(result, width=args.gantt_width), file=out)
    return 0


def _cmd_gendata(args, out) -> int:
    if args.app == "cap3":
        from repro.workloads.genome import write_cap3_workload

        specs = write_cap3_workload(
            args.directory,
            n_files=args.files,
            reads_per_file=args.size or 24,
            seed=args.seed,
        )
        extra = ""
    elif args.app == "blast":
        from repro.workloads.protein import write_blast_workload

        specs, db = write_blast_workload(
            args.directory,
            n_files=args.files,
            queries_per_file=args.size or 10,
            seed=args.seed,
        )
        extra = f" (database: {len(db)} sequences, in memory only)"
    else:
        from repro.workloads.pubchem import write_gtm_workload

        specs, sample = write_gtm_workload(
            args.directory,
            n_files=args.files,
            points_per_file=args.size or 500,
            seed=args.seed,
        )
        extra = f" (training sample: {sample.shape[0]} points)"
    total_bytes = sum(s.input_size for s in specs)
    print(
        f"wrote {len(specs)} {args.app} input files "
        f"({total_bytes:,} bytes) under {args.directory}{extra}",
        file=out,
    )
    return 0


def _cmd_chaos(args, out) -> int:
    if _resolved_jobs_or_none(args, out) is None:
        return 2
    from repro.chaos import (
        CAMPAIGN_MITIGATIONS,
        chaos_point,
        chaos_study,
        render_resilience,
        serialize_rows,
    )

    try:
        intensities = tuple(
            float(piece)
            for piece in args.intensities.split(",")
            if piece.strip()
        )
    except ValueError:
        print(
            f"error: --intensities must be numbers, got "
            f"{args.intensities!r}",
            file=out,
        )
        return 2
    mitigations = CAMPAIGN_MITIGATIONS
    if args.mitigations is not None:
        mitigations = tuple(
            piece.strip()
            for piece in args.mitigations.split(",")
            if piece.strip()
        )
        unknown = [m for m in mitigations if m not in CAMPAIGN_MITIGATIONS]
        if unknown or not mitigations:
            print(
                f"error: unknown mitigation(s) {unknown}; "
                f"choose from {list(CAMPAIGN_MITIGATIONS)}",
                file=out,
            )
            return 2
    n_files = args.files
    horizon = args.horizon
    if args.smoke:
        # The PR gate: one seed, the fault-free baseline plus a single
        # defended high-intensity cell — seconds, not minutes.  The
        # shrunk horizon keeps the fault schedule inside the shorter
        # smoke run.
        n_files = min(n_files, 16)
        intensities = (0.0, 1.0)
        mitigations = ("none", "retry+speculation")
        horizon = min(horizon, 90.0)
    cache = None
    if not args.no_cache:
        from repro.sweep import default_cache

        cache = default_cache()
    rows = chaos_study(
        apps=(args.app,),
        intensities=intensities,
        mitigations=mitigations,
        n_files=n_files,
        n_instances=args.instances,
        workers_per_instance=args.workers,
        seed=args.seed,
        horizon_s=horizon,
        jobs=args.jobs,
        cache=cache,
    )
    print(render_resilience(rows), file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(serialize_rows(rows) + "\n")
        print(f"resilience rows written to {args.json}", file=out)
    if args.trace:
        # Trace the campaign's own (highest intensity, retry+speculation)
        # cell, so the trace explains a row of the table.
        from repro.sweep import run_point

        intensity = max(intensities) if intensities else 1.0
        point = chaos_point(
            args.app,
            intensity,
            "retry+speculation",
            n_files=n_files,
            n_instances=args.instances,
            workers_per_instance=args.workers,
            seed=args.seed,
            horizon_s=horizon,
        )
        with _traced(args.trace, f"chaos-{args.app}") as obs:
            traced = run_point(point)
        print(
            f"traced cell: intensity {intensity:.2f}, retry+speculation, "
            f"makespan {traced.makespan_s:,.1f} s",
            file=out,
        )
        _write_trace(args.trace, obs, out)
    return 0


def _cmd_docs(args, out) -> int:
    from repro.lint.docscheck import check_docs

    result = check_docs(
        paths=args.paths or None, execute=not args.no_execute
    )
    print(result.render(), file=out)
    return 0 if result.ok else 1


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return _cmd_catalog(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "cost":
        return _cmd_cost(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    if args.command == "figures":
        return _cmd_figures(args, out)
    if args.command == "analyze":
        return _cmd_analyze(args, out)
    if args.command == "gendata":
        return _cmd_gendata(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "docs":
        return _cmd_docs(args, out)
    if args.command == "lint":
        from repro.lint.cli import cmd_lint

        return cmd_lint(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
