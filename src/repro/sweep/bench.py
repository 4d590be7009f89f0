"""``python -m repro bench`` — the repo's microbenchmark suite.

Three groups of measurements, written as one JSON document (default
``BENCH_3.json`` at the current directory):

* **kernel** — DES event-loop throughput in events/second for the three
  hot shapes the fast paths target: a pure timeout chain (heap path), a
  zero-delay succeed chain (same-time lane path) and a two-process
  ping-pong (process switch path);
* **sweeps** — wall-clock for a Figure 3/4-style instance-type sweep per
  application, serial (``jobs=1``), parallel (``jobs=N`` through the
  persistent :class:`~repro.sweep.pool.SweepPool`) and warm-cache
  (second run against a fresh temporary cache), plus the derived
  speedups, per-point chunk layout and a build/run phase split;
* **workloads** — on-disk dataset generation per application: a cold
  build through the workload artifact store versus a warm attach of the
  already-materialized artifact.

The one-time pool spawn cost is measured once, up front, and reported
under ``phases.pool_spawn_s`` rather than being smeared into every
parallel sweep — that matches how the pool is actually used (spawn
once, reuse for every subsequent call).  ``jobs_effective`` records
``min(jobs, cpu_count)`` so single-core hosts cannot masquerade as
parallel speedup measurements.

``--smoke`` shrinks every size so the suite finishes in seconds — CI
runs that variant to catch wiring regressions, not to publish numbers.

This module measures *real* wall-clock time by design; it lives outside
the simulation packages, where the determinism linter's RPR001 rule
does not apply, and every read is annotated anyway.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.obs.context import current as _current_obs
from repro.sim.engine import Environment
from repro.sweep.cache import ResultCache
from repro.sweep.points import point_for
from repro.sweep.pool import SweepPool
from repro.sweep.runner import _chunk_pending, resolve_jobs, run_points

__all__ = ["check_kernel_regression", "main", "run_bench"]

DEFAULT_OUTPUT = "BENCH_3.json"
SCHEMA = "repro-bench-v3"


def _clock() -> float:
    return time.perf_counter()  # repro: noqa[RPR001] real benchmark timer


def _best_of(fn, repeats: int) -> float:
    """Best (minimum) wall-clock of ``repeats`` calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = _clock()
        fn()
        best = min(best, _clock() - start)
    return best


# -- kernel microbenchmarks ------------------------------------------------

def _timeout_chain(n: int) -> None:
    env = Environment()

    def proc(env):
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()


def _zero_delay_chain(n: int) -> None:
    env = Environment()

    def proc(env):
        for _ in range(n):
            event = env.event()
            event.succeed()
            yield event

    env.process(proc(env))
    env.run()


def _ping_pong(n: int) -> None:
    env = Environment()
    box = {"event": env.event()}

    def ping(env):
        for _ in range(n):
            waited = box["event"]
            box["event"] = env.event()
            waited.succeed()
            yield env.timeout(1.0)

    def pong(env):
        for _ in range(n):
            yield box["event"]

    env.process(ping(env))
    env.process(pong(env))
    env.run()


def _kernel_bench(smoke: bool) -> dict:
    n = 2_000 if smoke else 50_000
    repeats = 2 if smoke else 5
    shapes = {
        # events fired per run: chains fire ~2 events per iteration
        # (the scheduled event + the process resume slot).
        "timeout_chain": (_timeout_chain, 2 * n),
        "zero_delay_chain": (_zero_delay_chain, 2 * n),
        "ping_pong": (_ping_pong, 4 * n),
    }
    out = {}
    metrics = _current_obs().metrics
    for name, (fn, events) in shapes.items():
        seconds = _best_of(lambda: fn(n), repeats)
        rate = events / seconds if seconds > 0 else None
        out[name] = {
            "iterations": n,
            "events": events,
            "best_s": seconds,
            "events_per_s": rate,
        }
        if rate is not None:
            metrics.gauge(f"bench.kernel.{name}.events_per_s").set(rate)
    return out


# -- sweep benchmarks ------------------------------------------------------

def _sweep_points(app_name: str, n_files: int):
    from repro.core.application import get_application
    from repro.core.backends import make_backend
    from repro.figures import EC2_16CORE_SHAPES

    app = get_application(app_name)
    if app_name == "cap3":
        from repro.workloads.genome import cap3_task_specs

        tasks = cap3_task_specs(n_files, reads_per_file=200)
    elif app_name == "blast":
        from repro.workloads.protein import blast_task_specs

        tasks = blast_task_specs(n_files, inhomogeneous_base=False, seed=3)
    else:
        from repro.workloads.pubchem import gtm_task_specs

        tasks = gtm_task_specs(n_files)
    backends = [
        make_backend(
            "ec2",
            instance_type=itype,
            n_instances=n,
            workers_per_instance=w,
            seed=17,
        )
        for itype, n, w in EC2_16CORE_SHAPES
    ]
    return [point_for(app, backend, tasks) for backend in backends]


def _timed_best(fn, repeats: int):
    """(last result, best wall-clock) over ``repeats`` calls."""
    result, best = None, float("inf")
    for _ in range(repeats):
        start = _clock()
        result = fn()
        best = min(best, _clock() - start)
    return result, best


def _sweep_bench(
    app_name: str,
    n_files: int,
    jobs: int,
    pool: "SweepPool | None",
    repeats: int,
) -> dict:
    start = _clock()  # repro: noqa[RPR001] real benchmark timer
    points = _sweep_points(app_name, n_files)
    build_s = _clock() - start

    serial, serial_s = _timed_best(
        lambda: run_points(points, jobs=1, cache=None), repeats
    )
    parallel, parallel_s = _timed_best(
        lambda: run_points(points, jobs=jobs, cache=None, pool=pool), repeats
    )
    if [r.to_dict() for r in serial] != [r.to_dict() for r in parallel]:
        raise AssertionError(
            f"{app_name}: parallel sweep diverged from serial sweep"
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = ResultCache(tmp)
        start = _clock()
        run_points(points, jobs=1, cache=cache)
        cold_s = _clock() - start
        start = _clock()
        warm = run_points(points, jobs=1, cache=cache)
        warm_s = _clock() - start
        stats = cache.stats()
        if stats.hits != len(points):
            raise AssertionError(
                f"{app_name}: warm run hit {stats.hits}/{len(points)} points"
            )
    if [r.to_dict() for r in warm] != [r.to_dict() for r in serial]:
        raise AssertionError(
            f"{app_name}: cached sweep diverged from serial sweep"
        )

    chunk_sizes = (
        [len(chunk) for chunk in _chunk_pending(points, min(jobs, len(points)))]
        if jobs > 1
        else []
    )
    return {
        "n_files": n_files,
        "n_points": len(points),
        "jobs": jobs,
        "chunk_sizes": chunk_sizes,
        "build_points_s": build_s,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "cache_cold_s": cold_s,
        "cache_warm_s": warm_s,
        "parallel_speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "warm_cache_speedup": cold_s / warm_s if warm_s > 0 else None,
    }


# -- workload generation benchmarks ----------------------------------------

def _workload_bench(app_name: str, n_files: int) -> dict:
    """Cold store build vs warm attach for one app's on-disk dataset."""
    from repro.workloads.genome import write_cap3_workload
    from repro.workloads.protein import write_blast_workload
    from repro.workloads.pubchem import write_gtm_workload
    from repro.workloads.store import WorkloadArtifactStore

    with tempfile.TemporaryDirectory(prefix="repro-bench-workload-") as tmp:
        tmp_path = Path(tmp)
        store = WorkloadArtifactStore(tmp_path / "store")

        def write(dest: Path) -> None:
            if app_name == "cap3":
                write_cap3_workload(dest, n_files, seed=3, store=store)
            elif app_name == "blast":
                write_blast_workload(dest, n_files, seed=3, store=store)
            else:
                write_gtm_workload(dest, n_files, seed=3, store=store)

        start = _clock()
        write(tmp_path / "cold")
        build_s = _clock() - start
        start = _clock()
        write(tmp_path / "warm")
        attach_s = _clock() - start
        if store.builds != 1 or store.hits != 1:
            raise AssertionError(
                f"{app_name}: expected 1 build + 1 hit, got "
                f"{store.builds} builds / {store.hits} hits"
            )
        return {
            "n_files": n_files,
            "build_s": build_s,
            "attach_s": attach_s,
            "attach_speedup": build_s / attach_s if attach_s > 0 else None,
            "store_builds": store.builds,
            "store_hits": store.hits,
        }


def _spawn_bench(pool: SweepPool) -> float:
    """One-time cost to cold-start the pool: spawn + module warm-up."""
    start = _clock()
    pool.submit_chunk([]).result()
    return _clock() - start


def run_bench(
    smoke: bool = False, jobs: "int | None" = None, apps=("cap3", "blast", "gtm")
) -> dict:
    """Run the full suite and return the report dict."""
    jobs = resolve_jobs(jobs)
    cpus = os.cpu_count() or 1
    n_files = 16 if smoke else 200
    workload_files = 8 if smoke else 64
    report = {
        "schema": SCHEMA,
        "smoke": smoke,
        "jobs": jobs,
        "jobs_effective": min(jobs, cpus),
        "cpu_count": cpus,
        "kernel": _kernel_bench(smoke),
    }
    pool = SweepPool(jobs) if jobs > 1 else None
    try:
        spawn_s = _spawn_bench(pool) if pool is not None else None
        report["phases"] = {"pool_spawn_s": spawn_s}
        repeats = 2 if smoke else 5
        report["sweeps"] = {
            app: _sweep_bench(app, n_files, jobs, pool, repeats)
            for app in apps
        }
        report["pool"] = pool.stats() if pool is not None else None
    finally:
        if pool is not None:
            pool.close()
    report["workloads"] = {
        app: _workload_bench(app, workload_files) for app in apps
    }
    return report


def check_kernel_regression(
    report: dict, baseline: dict, tolerance: float = 0.10
) -> list:
    """Compare kernel events/s against a baseline report.

    Returns a list of human-readable failures (empty means the gate
    passes).  Shapes present in only one report are skipped — the gate
    guards against regressions in what both runs measured, not against
    schema drift.
    """
    failures = []
    for name, spec in baseline.get("kernel", {}).items():
        base_rate = spec.get("events_per_s")
        rate = report.get("kernel", {}).get(name, {}).get("events_per_s")
        if not base_rate or not rate:
            continue
        floor = base_rate * (1.0 - tolerance)
        if rate < floor:
            failures.append(
                f"kernel {name}: {rate:,.0f} events/s is below the "
                f"{tolerance:.0%} floor ({floor:,.0f}) of the baseline "
                f"{base_rate:,.0f}"
            )
    return failures


def main(args, out) -> int:
    """Handler for ``python -m repro bench``."""
    report = run_bench(smoke=args.smoke, jobs=args.jobs)
    path = Path(args.output)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    kernel = report["kernel"]
    rows = [
        f"  kernel {name}: {spec['events_per_s']:,.0f} events/s"
        for name, spec in kernel.items()
    ]
    spawn_s = report["phases"]["pool_spawn_s"]
    if spawn_s is not None:
        rows.append(f"  pool spawn (one-time): {spawn_s:.3f}s")
    for app, sweep in report["sweeps"].items():
        rows.append(
            f"  sweep {app}: serial {sweep['serial_s']:.3f}s, "
            f"parallel(x{sweep['jobs']}) {sweep['parallel_s']:.3f}s "
            f"({sweep['parallel_speedup']:.2f}x), "
            f"warm cache {sweep['cache_warm_s']:.4f}s "
            f"({sweep['warm_cache_speedup']:.1f}x)"
        )
    for app, workload in report["workloads"].items():
        rows.append(
            f"  workload {app}: build {workload['build_s']:.3f}s, "
            f"attach {workload['attach_s']:.3f}s "
            f"({workload['attach_speedup']:.1f}x)"
        )
    print("benchmark report:", file=out)
    for row in rows:
        print(row, file=out)
    if report["jobs_effective"] < report["jobs"]:
        print(
            f"note: jobs={report['jobs']} requested but only "
            f"{report['cpu_count']} CPU(s) available "
            f"(jobs_effective={report['jobs_effective']}); parallel "
            "timings measure dispatch overhead, not speedup.",
            file=out,
        )
    print(f"written to {path}", file=out)
    if args.gate is not None:
        gate_path = Path(args.gate)
        if not gate_path.exists():
            print(f"error: gate baseline {gate_path} not found", file=out)
            return 2
        baseline = json.loads(gate_path.read_text(encoding="utf-8"))
        failures = check_kernel_regression(
            report, baseline, tolerance=args.gate_tolerance
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION {failure}", file=out)
            return 1
        print(
            f"kernel gate: within {args.gate_tolerance:.0%} of "
            f"{gate_path}",
            file=out,
        )
    return 0
