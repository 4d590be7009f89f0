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
  content-addressed store under ``.repro-cache/``: sweep results and
  workload artifacts;
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
* ``figures`` — regenerate one paper figure's tables, exactly as
  ``benchmarks/results/`` records them (:mod:`repro.figures`);
* ``analyze`` — load balance, phase breakdown and a Gantt chart of a
  run result exported via ``RunResult.to_json``;
* ``gendata`` — write a real synthetic Cap3/BLAST/GTM workload to disk;
* ``chaos`` — the deterministic fault-injection campaign: fault
  intensity x mitigation, printed as a resilience report
  (:mod:`repro.chaos`);
* ``docs`` — check the documentation: links resolve, code blocks run;
* ``lint`` — the determinism linter over the simulation sources
  (:mod:`repro.lint`).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from contextlib import nullcontext

from repro.autoscale import AutoscalePlan, default_policy
from repro.chaos import CAMPAIGN_MITIGATIONS, chaos_study
from repro.chaos.campaign import DEFAULT_INTENSITIES
from repro.cloud.instance_types import AZURE_INSTANCE_TYPES, EC2_INSTANCE_TYPES
from repro.cloud.spot import BidStrategy
from repro.cluster import CLUSTERS, get_cluster
from repro.core.application import get_application
from repro.core.backends import make_backend
from repro.core.report import format_table
from repro.obs import observe, summarize_chrome_trace, write_chrome_trace

__all__ = ["build_parser", "main"]


#: Every flag more than one subcommand takes, and the elastic-pool
#: group, declared once: argparse keywords by name.  A subcommand adds
#: its own default and help.
_SHARED = {
    "--app": dict(choices=("cap3", "blast", "gtm"), default="cap3"),
    "--files": dict(type=int),
    "--seed": dict(type=int),
    "--instances": dict(type=int, help="cloud instances"),
    "--instance-type": dict(help="e.g. HCXL or Small"),
    "--workers": dict(type=int, help="workers per instance"),
    "--jobs": dict(type=int, help="worker processes that run points in "
                   "parallel (default: REPRO_JOBS or cpu count)"),
    "--no-cache": dict(action="store_true",
                       help="skip the result cache under .repro-cache/"),
    "--smoke": dict(action="store_true"),
    "--json": dict(metavar="OUT.json",
                   help="also write the rows as canonical JSON"),
    "--trace": dict(metavar="OUT.json", help="capture the run, in every "
                    "worker process, and export one merged Chrome "
                    "trace_event JSON (open in ui.perfetto.dev)"),
    "--autoscale": dict(choices=("target-tracking", "step"),
                        help="run an elastic pool under this scaling policy "
                        "instead of a static fleet (cloud backends only)"),
    "--spot-fraction": dict(
        type=float, default=BidStrategy.spot_fraction,
        help="fraction of the elastic pool bought on the spot market "
        "(0 = all on-demand, 1 = all spot; requires --autoscale)",
    ),
    "--bid-multiplier": dict(
        type=float, default=BidStrategy.bid_multiplier,
        help="spot bid as a multiple of the on-demand price (requires "
        "--autoscale)",
    ),
    "--min-instances": dict(type=int, default=AutoscalePlan.min_instances,
                            help="elastic pool floor (requires --autoscale)"),
    "--max-instances": dict(type=int, default=AutoscalePlan.max_instances,
                            help="elastic pool ceiling (requires --autoscale)"),
    "--billing": dict(
        choices=("hourly", "per-second"), default=AutoscalePlan.billing,
        help="billing mode for the elastic pool's instances (requires "
        "--autoscale)",
    ),
}

#: The elastic-pool flags: each requires ``--autoscale`` unless it is
#: left at its default.  Each is the :class:`AutoscalePlan` field (or,
#: for the bid, :class:`BidStrategy` field) of its name.
_ELASTIC = (
    "--spot-fraction", "--bid-multiplier", "--min-instances",
    "--max-instances", "--billing",
)

#: Flags that carry a study or backend parameter: flag -> keyword of
#: :func:`~repro.chaos.chaos_study`, :func:`~repro.serve.serve_study`
#: (whose signatures hold the ``chaos`` and ``serve`` defaults) or, for
#: ``run``'s cloud deployment shape, ``make_backend``.
_CHAOS_PARAMS = {
    "--files": "n_files", "--instances": "n_instances",
    "--workers": "workers_per_instance", "--seed": "seed",
    "--horizon": "horizon_s",
}
_SERVE_PARAMS = {
    "--seed": "seed", "--duration": "duration_s",
    "--instance-type": "instance_type", "--provider": "provider",
    "--workers": "workers_per_instance",
}
_SHAPE_PARAMS = {
    "--instances": "n_instances", "--instance-type": "instance_type",
    "--workers": "workers_per_instance",
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _joined(values) -> str:
    """A tuple default as its ``--flag a,b,c`` text."""
    return ",".join(format(value, "g") for value in values)


def _study_defaults(study, params: dict) -> dict:
    """Flag -> default, for each ``params`` flag: the default of the
    ``study`` parameter it maps to."""
    signature = inspect.signature(study).parameters
    return {flag: signature[name].default for flag, name in params.items()}


def _study_kwargs(args, params: dict) -> dict:
    """The keyword arguments that ``params``' flags carry."""
    return {name: getattr(args, _dest(flag)) for flag, name in params.items()}


def build_parser() -> argparse.ArgumentParser:
    from repro.lint.cli import add_lint_parser, cmd_lint
    from repro.serve import serve_study
    from repro.serve.study import DEFAULT_FLEET_SIZES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Cloud Computing Paradigms for Pleasingly "
            "Parallel Biomedical Applications' (Gunarathne et al., 2010)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, defaults=None):
        """Add subcommand ``name``; returns its ``add(flag, **own)``,
        which declares a flag from ``_SHARED``, ``defaults`` and its
        ``own`` keywords."""
        subparser = sub.add_parser(name, help=help_text)
        elastic: dict = {}
        subparser.set_defaults(handler=handler, elastic=elastic)

        def add(flag, **own):
            if defaults and flag in defaults:
                own = {"default": defaults[flag], **own}
            action = subparser.add_argument(
                *flag.split(), **{**_SHARED.get(flag, {}), **own}
            )
            if flag in _ELASTIC:
                elastic[flag] = action.default

        return add

    command("catalog", _cmd_catalog, "print instance-type and cluster catalogs")

    run = command("run", _cmd_run, "run a workload on a backend and print "
                  "metrics")
    run("--app")
    run("--backend", choices=("ec2", "azure", "hadoop", "dryadlinq"),
        default="ec2")
    run("--files", default=200)
    run("--instances", help="cloud instances (default: paper setup)")
    run("--instance-type")
    run("--workers")
    run("--nodes", type=int, help="bare-metal nodes")
    run("--cluster", help=f"one of {sorted(CLUSTERS)}")
    run("--seed", default=0)
    run("--inhomogeneous", action="store_true",
        help="inhomogeneous task sizes (Cap3/BLAST)")
    run("--sanitize", action="store_true",
        help="run on the instrumented event loop and print the sanitizer "
        "report (sets REPRO_SANITIZE=1)")
    run("--no-cache")
    run("--trace", help="record the run in-process and uncached, and "
        "export a Chrome trace_event JSON (open in ui.perfetto.dev)")
    run("--autoscale")
    for flag in _ELASTIC:
        run(flag)

    sweep = command("sweep", _cmd_sweep, "run the paper's instance-type "
                    "sweep through the worker pool")
    sweep("--app")
    sweep("--files", default=16)
    sweep("--seed", default=0)
    sweep("--jobs")
    sweep("--no-cache")
    sweep("--trace")

    serve = command(
        "serve", _cmd_serve, "sustained-traffic job service study: "
        "multi-tenant arrival streams, fair-share scheduling, "
        "cost-vs-latency frontier",
        _study_defaults(serve_study, _SERVE_PARAMS),
    )
    serve("--seed")
    serve("--duration", type=float,
          help="simulated seconds the arrival window stays open")
    serve("--fleet", default=_joined(DEFAULT_FLEET_SIZES), metavar="N[,N...]",
          help="comma-separated fleet sizes to study (default %(default)s)")
    serve("--instance-type")
    serve("--provider", choices=("aws", "azure"))
    serve("--workers")
    serve("--jobs")
    serve("--autoscale")
    serve("--spot-fraction")
    serve("--max-instances", default=8)
    serve("--trace")
    serve("--json")

    trace = command("trace", _cmd_trace, "validate and summarize an exported "
                    "Chrome trace")
    trace("trace", help="trace JSON written by 'run --trace' or "
          "'sweep --trace'")

    report = command("report", _cmd_report, "render a self-contained HTML "
                     "report from a trace, a run result and the BENCH_*.json "
                     "history")
    report("trace", help="Chrome trace JSON (from 'run --trace' or "
           "'sweep --trace')")
    report("--run", metavar="RESULT.json",
           help="RunResult JSON exported via RunResult.to_json")
    report("--bench", nargs="*", metavar="BENCH.json",
           help="bench history files, oldest first (default: BENCH_*.json "
           "in the working directory)")
    report("-o --output", default="report.html", help="output HTML path")
    report("--title")
    report("--timeline-csv", metavar="OUT.csv",
           help="also write the trace's timeline counter series as CSV")

    bench = command("bench", _cmd_bench, "run the microbenchmark suite and "
                    "write BENCH JSON")
    bench("--smoke",
          help="tiny sizes: verify wiring in seconds, numbers not publishable")
    bench("--jobs")
    bench("--output", default="BENCH_3.json", help="output JSON path")
    bench("--gate", metavar="BASELINE", help="fail if kernel events/s "
          "regress past --gate-tolerance of this baseline BENCH JSON")
    bench("--gate-tolerance", type=float, default=0.10, metavar="FRACTION",
          help="allowed kernel events/s regression fraction "
          "(default %(default)s)")
    bench("--compare", nargs=2, metavar=("OLD", "NEW"),
          help="compare two BENCH JSON files and print a delta table with "
          "regressions flagged (skips running the suite)")

    cache = command("cache", _cmd_cache, "inspect or clear the sweep result "
                    "cache")
    cache("action", choices=("stats", "clear"))
    cache("--dir", help="cache directory (default: REPRO_CACHE_DIR or "
          ".repro-cache)")

    cost = command("cost", _cmd_cost, "Table 4-style cost comparison for a "
                   "Cap3 workload")
    cost("--files", default=4096)
    cost("--reads-per-file", type=int, default=458)

    figures = command("figures", _cmd_figures, "regenerate one of the "
                      "paper's figures")
    figures("figure", nargs="?", help="figure id (omit to list available ids)")

    analyze = command("analyze", _cmd_analyze, "analyze a trace JSON "
                      "exported via RunResult.to_json")
    analyze("trace", help="path to the trace JSON")
    analyze("--gantt-width", type=int, default=72, help="Gantt chart width")

    gendata = command("gendata", _cmd_gendata, "write a real synthetic "
                      "workload to disk")
    gendata("--app")
    gendata("directory", help="output directory")
    gendata("--files", default=8)
    gendata("--size", type=int, help="reads per file (cap3), queries per "
            "file (blast) or points per file (gtm); app default if omitted")
    gendata("--seed", default=0)

    chaos = command(
        "chaos", _cmd_chaos, "deterministic fault-injection campaign: sweep "
        "fault intensity x mitigation and print the resilience report",
        _study_defaults(chaos_study, _CHAOS_PARAMS),
    )
    for flag in ("--app", "--files", "--instances", "--workers", "--seed"):
        chaos(flag)
    chaos("--intensities", default=_joined(DEFAULT_INTENSITIES),
          metavar="X[,X...]",
          help="comma-separated fault intensities (0 = fault-free)")
    chaos("--mitigations", metavar="M[,M...]", help="comma-separated subset "
          f"of {','.join(CAMPAIGN_MITIGATIONS)} (default: all)")
    chaos("--horizon", type=float,
          help="seconds of the measured window faults are scheduled into")
    chaos("--jobs")
    chaos("--no-cache")
    chaos("--smoke", help="1-seed PR smoke: a tiny grid (fault-free baseline "
          "plus one defended high-intensity cell), seconds of wall time")
    chaos("--json")
    chaos("--trace", help="also play one traced run at the highest requested "
          "intensity (retry+speculation) and export its Chrome trace with "
          "the chaos-track instants")

    docs = command("docs", _cmd_docs, "check documentation: links resolve, "
                   "code blocks run")
    docs("paths", nargs="*",
         help="markdown files to check (default: README.md + docs/*.md)")
    docs("--no-execute", action="store_true",
         help="check links only, skip running python code blocks")

    add_lint_parser(sub).set_defaults(handler=cmd_lint)
    return parser


def _tasks_for(app_name: str, n_files: int, inhomogeneous: bool, seed: int):
    from repro.workloads import (
        blast_task_specs, cap3_task_specs, gtm_task_specs,
    )

    if app_name == "cap3":
        return cap3_task_specs(n_files, inhomogeneous=inhomogeneous, seed=seed)
    if app_name == "blast":
        return blast_task_specs(
            n_files, inhomogeneous_base=inhomogeneous, seed=seed
        )
    return gtm_task_specs(n_files)


def _cmd_catalog(args, out) -> int:
    tables = [
        ("Table 1: EC2 instance types",
         ["EC2 type", "memory", "ECU", "cores", "price"],
         [[t.name, f"{t.machine.memory_gb} GB", t.ec2_compute_units or "-",
           f"{t.machine.cores} x {t.machine.clock_ghz} GHz",
           f"${t.cost_per_hour}/h"] for t in EC2_INSTANCE_TYPES.values()]),
        ("Table 2: Azure instance types",
         ["Azure type", "cores", "memory", "price"],
         [[t.name, t.machine.cores, f"{t.machine.memory_gb} GB",
           f"${t.cost_per_hour}/h"] for t in AZURE_INSTANCE_TYPES.values()]),
        ("Bare-metal clusters",
         ["cluster", "nodes", "cores/node", "clock", "memory/node", "os"],
         [[c.name, c.n_nodes, c.node.machine.cores,
           f"{c.node.machine.clock_ghz} GHz",
           f"{c.node.machine.memory_gb} GB", c.node.machine.os]
          for c in CLUSTERS.values()]),
    ]
    print("\n\n".join(
        format_table(header, rows, title=title)
        for title, header, rows in tables
    ), file=out)
    return 0


def _comma_list(flag: str, text: str, parse=str, what: str = "names"):
    """The non-empty tuple of ``parse``d items of a ``--flag a,b,c``."""
    try:
        values = tuple(
            parse(piece.strip()) for piece in text.split(",") if piece.strip()
        )
    except ValueError:
        raise ValueError(f"{flag} must be {what}, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one value, got {text!r}")
    return values


def _autoscale_plan(args):
    """The elastic-pool plan behind ``--autoscale`` (``run`` and
    ``serve``), or ``None`` without it.  Without ``--autoscale``, an
    elastic flag moved off its default is an error."""
    if args.autoscale is None:
        for flag, default in args.elastic.items():
            if getattr(args, _dest(flag)) != default:
                raise ValueError(f"{flag} requires --autoscale")
        return None
    # Each elastic flag is the plan field of its name; fields the
    # subcommand has no flag for keep the plan's defaults.
    plan = {_dest(flag): getattr(args, _dest(flag)) for flag in args.elastic}
    bid = BidStrategy.mixed(
        plan.pop("spot_fraction"),
        plan.pop("bid_multiplier", BidStrategy.bid_multiplier),
    )
    return AutoscalePlan(
        policy=default_policy(args.autoscale), bid=bid, **plan
    )


def _cache(args):
    """The sweep result cache, or ``None`` under ``--no-cache``."""
    from repro.sweep.cache import default_cache

    return None if args.no_cache else default_cache()


def _run_study(args, out, label: str, study, rows_name="", replay=None):
    """The path behind ``run``, ``sweep``, ``serve`` and ``chaos``: run
    ``study()`` for its ``(rows, report)``, print the report, write the
    rows to ``--json`` and the capture to ``--trace``.  The capture is of
    the study itself, or of ``replay()`` when given.  (A bad ``--jobs``
    or ``REPRO_JOBS`` fails in the study before any point runs.)"""
    traced = args.trace and replay is None
    with (observe(label=label) if traced else nullcontext()) as obs:
        rows, report = study()
    print(report, file=out)
    if getattr(args, "json", None):
        from repro.core.report import serialize_rows

        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(serialize_rows(rows) + "\n")
        print(f"{rows_name} rows written to {args.json}", file=out)
    if args.trace:
        if replay is not None:
            with observe(label=label) as obs:
                replay()
        document = write_chrome_trace(args.trace, obs)
        workers = len(document["otherData"].get("workers", []))
        merged = f", {workers} worker process(es) merged" if workers else ""
        print(file=out)
        print(summarize_chrome_trace(document), file=out)
        print(file=out)
        print(
            f"trace written to {args.trace} "
            f"({len(document['traceEvents'])} events{merged}; open in "
            "chrome://tracing or ui.perfetto.dev)",
            file=out,
        )
    return 0


def _progress_printer(out):
    """A ``run_points`` progress callback printing one line per event."""
    return lambda event: print(
        f"[{event.index + 1}/{event.total}] {event.label}: {event.status}",
        file=out,
    )


def _read_json(path: str, what: str):
    """Load the JSON document at ``path``; a missing or non-JSON file
    raises ``ValueError`` naming it as ``what``."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"no such {what} {path!r}") from None
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


def _load_trace(path: str, out):
    """The valid Chrome trace at ``path``, or ``None`` after printing
    why it is invalid."""
    from repro.obs import validate_chrome_trace

    document = _read_json(path, "trace")
    errors = validate_chrome_trace(document)
    if not errors:
        return document
    print(f"{path}: invalid Chrome trace", file=out)
    for error in errors:
        print(f"  - {error}", file=out)
    return None


def _cmd_run(args, out) -> int:
    from repro.sweep.points import InlinePoint, point_for, run_inline
    from repro.sweep.runner import run_points

    app = get_application(args.app)
    tasks = _tasks_for(args.app, args.files, args.inhomogeneous, args.seed)
    kwargs: dict = {"seed": args.seed}
    autoscale = _autoscale_plan(args)
    if args.backend in ("ec2", "azure"):
        shape = {**_study_kwargs(args, _SHAPE_PARAMS), "autoscale": autoscale}
        # An unset shape flag keeps the paper's deployment.
        kwargs.update({k: v for k, v in shape.items() if v is not None})
    elif autoscale is not None:
        raise ValueError("--autoscale requires a cloud backend (ec2 or azure)")
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

    def study():
        if args.trace or args.sanitize:
            # Tracing needs the span stream of this process and the
            # sanitizer report needs the live backend's event loop, so
            # run in-process and uncached.
            r = run_inline(InlinePoint(
                app=app, backend=backend, tasks=tasks, label=backend.name
            ))
        else:
            # One point: it runs in this process whatever the jobs policy.
            (r,) = run_points(
                [point_for(app, backend, tasks)], jobs=1,
                cache=_cache(args), progress=_progress_printer(out),
            )
        rows = [
            ["backend", r.backend],
            ["tasks", str(r.n_tasks)],
            ["cores", str(r.cores)],
            ["makespan", f"{r.makespan_s:,.1f} s"],
            ["T1 (sequential)", f"{r.t1_s:,.1f} s"],
            ["parallel efficiency (Eq.1)", f"{r.efficiency:.3f}"],
            ["avg time/file/core (Eq.2)", f"{r.per_file_per_core_s:.2f} s"],
        ]
        if r.billed:
            rows += [["compute cost (hour units)", f"${r.compute_cost:.2f}"],
                     ["amortized total cost", f"${r.amortized_cost:.2f}"]]
        extras = r.extras
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
        report = format_table(
            ["metric", "value"], rows, title=f"{args.app} on {args.backend}"
        )
        env = getattr(backend, "last_environment", None)
        if args.sanitize and hasattr(env, "sanitizer_report"):
            report += "\n\nsanitizer report:\n"
            report += env.sanitizer_report().summary()
        return r, report

    # Sanitize this run only: later in-process runs see the old value.
    previous = os.environ.get("REPRO_SANITIZE")
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    try:
        return _run_study(args, out, f"{args.app}-{args.backend}", study)
    finally:
        if previous is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = previous


def _cmd_sweep(args, out) -> int:
    from repro.core.experiment import instance_type_study
    from repro.figures import ec2_16core_backends

    def study():
        results = instance_type_study(
            get_application(args.app),
            ec2_16core_backends(seed=args.seed),
            _tasks_for(args.app, args.files, False, args.seed),
            jobs=args.jobs,
            cache=_cache(args),
            progress=_progress_printer(out),
        )
        return results, format_table(
            ["instance type", "makespan", "amortized cost"],
            [[r.label, f"{r.compute_time_s:,.1f} s",
              f"${r.amortized_cost:.2f}"] for r in results],
            title=f"{args.app} sweep ({args.files} files)",
        )

    return _run_study(args, out, f"{args.app}-sweep", study)


def _cmd_serve(args, out) -> int:
    from repro.serve import render_frontier, serve_study

    fleet_sizes = _comma_list("--fleet", args.fleet, int, "integers")
    autoscale = _autoscale_plan(args)

    def study():
        rows, results = serve_study(
            fleet_sizes, autoscale=autoscale, jobs=args.jobs,
            **_study_kwargs(args, _SERVE_PARAMS),
        )
        return rows, "\n".join([render_frontier(rows)] + [
            f"fleet {r.n_instances}: {r.abandoned} abandoned, "
            f"{r.duplicates} duplicate execution(s)"
            for r in results if r.abandoned or r.duplicates
        ])

    return _run_study(args, out, "serve-study", study, "frontier")


def _cmd_report(args, out) -> int:
    from glob import glob

    from repro.obs import series_from_trace
    from repro.obs.report import write_report
    from repro.obs.timeline import series_csv

    document = _load_trace(args.trace, out)
    if document is None:
        return 2
    run = _read_json(args.run, "run result") if args.run else None
    bench_paths = (
        args.bench if args.bench is not None else sorted(glob("BENCH_*.json"))
    )
    history = [
        (os.path.basename(path), _read_json(path, "bench file"))
        for path in bench_paths
    ]
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
        text = series_csv(series_from_trace(document))
        with open(args.timeline_csv, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"timeline CSV written to {args.timeline_csv} "
            f"({len(text.splitlines()) - 1} samples)",
            file=out,
        )
    return 0


def _cmd_trace(args, out) -> int:
    document = _load_trace(args.trace, out)
    if document is None:
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
    ec2 = make_backend("ec2", n_instances=16, perf_jitter=0.0).run(app, tasks)
    azure = make_backend("azure", n_instances=128, perf_jitter=0.0).run(
        app, tasks
    )
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
        from repro.obs.report import bench_compare, format_bench_compare

        old, new = (_read_json(path, "bench file") for path in args.compare)
        rows = bench_compare(old, new, tolerance=args.gate_tolerance)
        names = [os.path.basename(path) for path in args.compare]
        print(format_bench_compare(rows, *names), file=out)
        return 0
    from repro.sweep.bench import main as bench_main
    from repro.sweep.runner import resolve_jobs

    resolve_jobs(args.jobs)  # before the suite's first timing, not mid-run

    return bench_main(args, out)


def _cmd_cache(args, out) -> int:
    from repro.sweep.cache import ContentStore, cache_root

    root = cache_root(args.dir or None, always=True)
    store = ContentStore(root)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cache entries from {root}", file=out)
        return 0
    entries, size = store.usage()
    print(f"cache at {root}", file=out)
    print(f"entries: {entries}\nsize: {size} bytes", file=out)
    return 0


def _cmd_figures(args, out) -> int:
    from repro.figures import available_figures, render_figure

    if args.figure is None:
        print("available figures:", ", ".join(available_figures()), file=out)
        return 0
    print(render_figure(args.figure), file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    from repro.core.analysis import (
        gantt_text,
        load_balance_index,
        phase_breakdown,
        worker_utilization,
    )
    from repro.core.task import RunResult

    result = RunResult.from_dict(_read_json(args.trace, "trace"))
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
    from repro.workloads import genome, protein, pubchem

    writer, size_name = {
        "cap3": (genome.write_cap3_workload, "reads_per_file"),
        "blast": (protein.write_blast_workload, "queries_per_file"),
        "gtm": (pubchem.write_gtm_workload, "points_per_file"),
    }[args.app]
    # An omitted --size keeps the writer's own default.
    size = {} if args.size is None else {size_name: args.size}
    specs = writer(args.directory, n_files=args.files, seed=args.seed, **size)
    extra = ""
    if args.app == "blast":
        specs, db = specs
        extra = f" (database: {len(db)} sequences, in memory only)"
    elif args.app == "gtm":
        specs, sample = specs
        extra = f" (training sample: {sample.shape[0]} points)"
    total_bytes = sum(s.input_size for s in specs)
    print(
        f"wrote {len(specs)} {args.app} input files "
        f"({total_bytes:,} bytes) under {args.directory}{extra}",
        file=out,
    )
    return 0


def _cmd_chaos(args, out) -> int:
    from repro.chaos import chaos_point, mitigation_settings, render_resilience
    from repro.sweep import run_point

    settings = _study_kwargs(args, _CHAOS_PARAMS)
    grid = {"intensities": _comma_list(
        "--intensities", args.intensities, float, "numbers"
    )}
    if args.mitigations is not None:
        grid["mitigations"] = _comma_list("--mitigations", args.mitigations)
        for mitigation in grid["mitigations"]:  # even under --smoke
            mitigation_settings(mitigation)  # KeyError: an unknown name
    if args.smoke:
        # The PR gate: one seed, the fault-free baseline plus a single
        # defended high-intensity cell — seconds, not minutes.  The
        # shrunk horizon keeps the fault schedule inside the shorter
        # smoke run.
        settings.update(
            n_files=min(args.files, 16), horizon_s=min(args.horizon, 90.0)
        )
        grid = {"intensities": (0.0, 1.0),
                "mitigations": ("none", "retry+speculation")}

    def study():
        rows = chaos_study(
            apps=(args.app,), jobs=args.jobs, cache=_cache(args),
            **grid, **settings,
        )
        return rows, render_resilience(rows)

    def replay():
        # Trace the campaign's own (highest intensity, retry+speculation)
        # cell, so the trace explains a row of the table.
        intensity = max(grid["intensities"])
        traced = run_point(
            chaos_point(args.app, intensity, "retry+speculation", **settings)
        )
        print(
            f"traced cell: intensity {intensity:.2f}, retry+speculation, "
            f"makespan {traced.makespan_s:,.1f} s",
            file=out,
        )

    return _run_study(
        args, out, f"chaos-{args.app}", study, "resilience", replay
    )


def _cmd_docs(args, out) -> int:
    from repro.lint.docscheck import check_docs

    result = check_docs(
        paths=args.paths or None, execute=not args.no_execute
    )
    print(result.render(), file=out)
    return 0 if result.ok else 1


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code.

    A ``ValueError`` or ``KeyError`` raised by bad input (a file count
    below 1, an unknown instance type, an empty ``--fleet``, ...)
    prints ``error: ...`` and exits 2.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except (KeyError, ValueError) as exc:
        # A KeyError's str() is the repr of its key; print the message.
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=out)
        return 2
