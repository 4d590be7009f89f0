"""Per-layer measurement from outside the program.

Two instruments, both driven by the benchmark's own files:

* :class:`SpanRecorder` wraps ``repro``'s public entry points (the
  attribute each caller actually looks up: the class attribute for
  methods, every module-global binding for functions) and records one
  in-memory span per call — name, start, end, parent span, workload and
  pass — plus the counts the layer exposes at that boundary.
* :func:`profile_pass` runs one pass under ``cProfile`` on the main
  thread *and* every thread started during the pass, then attributes
  self time to ``repro.<package>`` layers.  Time spent in stdlib or
  numpy code is charged to the nearest ``repro`` caller (so numpy under
  a kernel counts toward that kernel); time with no ``repro`` ancestor
  is unattributed.  Lock waits and sleeps are excluded: they overlap
  the worker threads' compute.

Profiling inflates pure-Python code several times more than native
code, so profiled shares are rescaled onto the untraced pass wall time
and read as "where the time goes", never as a gain.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import pstats
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HARNESS_DIR = str(Path(__file__).resolve().parent)

# Finest layer first: the first matching module prefix wins.
LAYER_PREFIXES = (
    ("repro.sim", "sim"),
    ("repro.cloud.queue", "cloud.queue"),
    ("repro.cloud", "cloud"),
    ("repro.classiccloud.localstore", "local"),
    ("repro.classiccloud.local", "local"),
    ("repro.classiccloud", "classiccloud"),
    ("repro.hadoop", "hadoop"),
    ("repro.dryad", "dryad"),
    ("repro.apps.perfmodels", "perfmodel"),
    ("repro.apps", "kernel"),
    ("repro.sweep", "sweep"),
    ("repro.chaos", "chaos"),
    ("repro.autoscale", "autoscale"),
    ("repro.serve", "serve"),
    ("repro.obs.export", "obs.export"),
    ("repro.obs", "obs"),
    ("repro.workloads", "workloads"),
    ("repro", "repro.other"),
)

# Blocking primitives: their time overlaps another thread's work.
WAIT_FUNCTIONS = {
    ("~", 0, "<method 'acquire' of '_thread.lock' objects>"),
    ("~", 0, "<built-in method time.sleep>"),
}


def module_of(filename: str) -> "str | None":
    """``repro.x.y`` for a file under ``src/repro``, else None."""
    parts = Path(filename).parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":
            tail = [p for p in parts[i + 1:]]
            if not tail:
                return None
            tail[-1] = tail[-1].removesuffix(".py")
            if tail[-1] == "__init__":
                tail.pop()
            return ".".join(["repro", *tail])
    return None


def layer_of(filename: str) -> "str | None":
    module = module_of(filename)
    if module is None:
        return None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans and boundary counts for one traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_label = "setup"
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()
        self._queues: list = []
        self._envs: dict[int, object] = {}

    # -- recording --------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_exit=None, on_entry=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            if on_entry is not None:
                on_entry(args, kwargs)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append({
                    "id": span_id, "name": name, "parent": parent,
                    "start": start - recorder._t0, "end": end - recorder._t0,
                    "thread": threading.current_thread().name,
                    "workload": recorder.workload,
                    "pass": recorder.pass_label,
                })
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def durations(self, name: str, pass_label: str) -> list[float]:
        return [
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["pass"] == pass_label
        ]

    # -- instrumentation --------------------------------------------------
    @contextmanager
    def instrument(self):
        """Patch every entry point for the duration of the block."""
        patches = self._patch_list()
        undo = []
        try:
            for owner, attr, wrapped in patches:
                undo.extend(_install(owner, attr, wrapped))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def reset_pass(self, label: str) -> None:
        """Start a new pass: per-pass object registries start empty."""
        self.pass_label = label
        self._queues = []
        self._envs = {}

    def finish_pass(self) -> None:
        """Fold per-object counters of the pass into ``counts``."""
        label = self.pass_label
        self.add(f"{label}:cloud.queue.requests",
                 sum(q.stats.requests for q in self._queues))
        self.add(f"{label}:sim.events",
                 sum(env.events_scheduled for env in self._envs.values()))
        self._queues = []
        self._envs = {}

    def _patch_list(self) -> list:
        from repro.apps import gtm
        from repro.apps.executables import (
            BlastExecutable,
            Cap3Executable,
            GtmInterpolationExecutable,
        )
        from repro.autoscale import study as autoscale_study
        from repro.chaos import campaign
        from repro.classiccloud.local import LocalClassicCloud
        from repro.classiccloud.localstore import LocalBlobStore
        from repro.cloud.queue import MessageQueue
        from repro.core import experiment
        from repro.obs import export
        from repro.obs.context import Observability
        from repro.serve import service
        from repro.sim.engine import Environment
        from repro.sweep import cache, runner
        from repro.workloads import genome, protein, pubchem

        rec = self

        def count(name):
            return lambda args, kwargs: rec.add(f"{rec.pass_label}:{name}")

        def env_run_exit(args, kwargs, result):
            env = args[0]
            # Held for the pass, so an id is never reused; an env run
            # several times is counted once.
            rec._envs[id(env)] = env

        def queue_init_exit(args, kwargs, result):
            rec._queues.append(args[0])

        def points_entry(args, kwargs):
            rec.add(f"{rec.pass_label}:sweep.points", len(args[0]))

        def serve_exit(args, kwargs, result):
            p = rec.pass_label
            rec.add(f"{p}:serve.jobs_submitted", result.submitted)
            rec.add(f"{p}:serve.jobs_admitted", result.admitted)
            rec.add(f"{p}:serve.jobs_completed", result.completed)
            rec.add(f"{p}:serve.jobs_shed", result.shed)
            rec.add(f"{p}:serve.jobs_abandoned", result.abandoned)
            rec.add(f"{p}:serve.duplicates", result.duplicates)

        def adopt_entry(args, kwargs):
            rec.add(f"{rec.pass_label}:obs.spans", len(args[1].get("spans", ())))

        def trace_exit(args, kwargs, document):
            p = rec.pass_label
            rec.add(f"{p}:obs.trace_events", len(document["traceEvents"]))
            rec.add(f"{p}:obs.trace_bytes", Path(args[0]).stat().st_size)

        def blob_put_entry(args, kwargs):
            rec.add(f"{rec.pass_label}:local.store_bytes",
                    Path(args[2]).stat().st_size)

        def blob_get_exit(args, kwargs, result):
            rec.add(f"{rec.pass_label}:local.store_bytes",
                    Path(result).stat().st_size)

        def init_wrapper(cls, on_exit):
            original = cls.__init__

            def __init__(self, *args, **kwargs):
                original(self, *args, **kwargs)
                on_exit((self, *args), kwargs, None)

            __init__.__wrapped__ = original
            return __init__

        w = self.wrap
        return [
            (Environment, "run", w("sim.Environment.run", Environment.run,
                                   on_exit=env_run_exit)),
            (MessageQueue, "__init__",
             init_wrapper(MessageQueue, queue_init_exit)),
            (experiment, "instance_type_study",
             w("study.instance_type_study", experiment.instance_type_study)),
            (experiment, "scalability_study",
             w("study.scalability_study", experiment.scalability_study)),
            (campaign, "chaos_study",
             w("study.chaos_study", campaign.chaos_study)),
            (autoscale_study, "autoscale_study",
             w("study.autoscale_study", autoscale_study.autoscale_study)),
            (runner, "run_points", w("sweep.run_points", runner.run_points,
                                     on_entry=points_entry)),
            (cache.ResultCache, "put",
             w("sweep.ResultCache.put", cache.ResultCache.put,
               on_entry=count("sweep.cache.puts"))),
            (service, "run_serve", w("serve.run_serve", service.run_serve,
                                     on_exit=serve_exit)),
            (Observability, "adopt_worker",
             w("obs.adopt_worker", Observability.adopt_worker,
               on_entry=adopt_entry)),
            (export, "write_chrome_trace",
             w("obs.write_chrome_trace", export.write_chrome_trace,
               on_exit=trace_exit)),
            (LocalClassicCloud, "run",
             w("local.LocalClassicCloud.run", LocalClassicCloud.run)),
            (Cap3Executable, "run",
             w("kernel.cap3", Cap3Executable.run)),
            (BlastExecutable, "run",
             w("kernel.blast", BlastExecutable.run)),
            (GtmInterpolationExecutable, "run",
             w("kernel.gtm", GtmInterpolationExecutable.run)),
            (LocalBlobStore, "put", w("local.LocalBlobStore.put",
                                      LocalBlobStore.put,
                                      on_entry=blob_put_entry)),
            (LocalBlobStore, "get", w("local.LocalBlobStore.get",
                                      LocalBlobStore.get,
                                      on_exit=blob_get_exit)),
            (genome, "write_cap3_workload",
             w("workloads.write_cap3_workload", genome.write_cap3_workload)),
            (protein, "write_blast_workload",
             w("workloads.write_blast_workload",
               protein.write_blast_workload)),
            (pubchem, "write_gtm_workload",
             w("workloads.write_gtm_workload", pubchem.write_gtm_workload)),
            (gtm, "train_gtm", w("apps.train_gtm", gtm.train_gtm)),
        ]


def _install(owner, attr: str, wrapped) -> list:
    """Install ``wrapped`` where callers look ``owner.attr`` up.

    A method lives on its class; a function is also bound by name in
    every module that imported it, so each such binding is replaced.
    Returns (owner, attr, original) triples to undo the patch.
    """
    original = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return [(owner, attr, original)]
    undo = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if value is original:
                setattr(module, name, wrapped)
                undo.append((module, name, original))
    return undo


# ---------------------------------------------------------------------------
# Profiling across threads
# ---------------------------------------------------------------------------


def profile_pass(run):
    """Run ``run()`` under cProfile on every thread; returns
    ``(result, pstats.Stats)``."""
    profilers: list[cProfile.Profile] = []
    lock = threading.Lock()

    def start_in_thread(*_):
        # threading.setprofile installs this as the new thread's profile
        # hook; swap it for a private cProfile profiler on first call.
        profiler = cProfile.Profile()
        with lock:
            profilers.append(profiler)
        profiler.enable()

    main = cProfile.Profile()
    threading.setprofile(start_in_thread)
    main.enable()
    try:
        result = run()
    finally:
        main.disable()
        threading.setprofile(None)
    stats = pstats.Stats(main)
    for profiler in profilers:
        profiler.disable()
        stats.add(profiler)
    return result, stats


def attribute(stats: pstats.Stats) -> "tuple[dict[str, float], float, dict]":
    """Self time per layer (profiled seconds), wait time, and call
    counts per profiled function key."""
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    cache: dict = {}

    def direct_layer(func) -> "str | None":
        filename = func[0]
        if filename.startswith(HARNESS_DIR):
            return "unattributed"
        return layer_of(filename)

    def dist(func, visiting: frozenset) -> dict:
        if func in cache:
            return cache[func]
        layer = direct_layer(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = table.get(func, (0, 0, 0, 0, {}))[4]
            weights = {
                c: (edge[3] if edge[3] > 0 else edge[2])
                for c, edge in callers.items()
                if c not in visiting
            }
            total = sum(weights.values())
            if not weights or total <= 0:
                result = {"unattributed": 1.0}
            else:
                result = {}
                for caller, weight in weights.items():
                    for name, share in dist(caller, visiting | {func}).items():
                        result[name] = result.get(name, 0.0) + share * weight / total
        cache[func] = result
        return result

    layers: dict[str, float] = {}
    wait = 0.0
    for func, (_, _, tottime, _, _) in table.items():
        if func in WAIT_FUNCTIONS:
            wait += tottime
            continue
        for name, share in dist(func, frozenset()).items():
            layers[name] = layers.get(name, 0.0) + tottime * share
    calls = {func: row[1] for func, row in table.items()}
    return layers, wait, calls


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

#: Rounds of passes behind each overhead ratio.
RATIO_ROUNDS = 3

#: Profiled layers reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "sim", "cloud.queue", "classiccloud", "hadoop", "dryad", "perfmodel",
    "sweep", "chaos", "autoscale", "serve", "kernel", "local",
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


def _unique_bytes(root: Path) -> int:
    """Bytes of the regular files under ``root``, hard links once."""
    seen, total = set(), 0
    for path in root.rglob("*"):
        if path.is_file() and not path.is_symlink():
            st = path.stat()
            if (st.st_dev, st.st_ino) not in seen:
                seen.add((st.st_dev, st.st_ino))
                total += st.st_size
    return total


def traced_run(workload: str, seed: int, work: Path, checker, import_s: float,
               out_dir: Path) -> dict:
    """Set-up, a warm-up pass, ``RATIO_ROUNDS`` rounds of (untraced, other
    observability bundle, spans) passes, and a profiled pass.  Returns
    every per-layer metric; writes ``spans.json`` and ``layers.json``
    under ``out_dir``."""
    import suite
    from repro.obs import observe
    from run import Clock, fresh_dir, timed_pass, warm_up

    rec = SpanRecorder(workload)
    root = fresh_dir(work / "setup")
    setup = Clock()
    with rec.instrument(), setup.step():
        rec.reset_pass("setup")
        prepared = suite.SETUPS[workload](seed, root)
        rec.finish_pass()
    bytes_written = _unique_bytes(root)

    # The other observability bundle, on the same inputs: serve-trace is
    # live by design, so its other pass uses the null bundle.
    if prepared.null_pass is not None:
        other, other_is_live = prepared.null_pass, False
    else:
        def other(step):
            with observe():
                return prepared.run_pass(step)

        other_is_live = True

    # Timings below are scaled to the reference speed (see run.Clock),
    # and each ratio is one of medians over rounds that alternate the
    # passes compared, so the ratios compare code, not the host's mood.
    warm_up(prepared, checker)
    untraced, others, traced = [], [], []
    for i in range(1, RATIO_ROUNDS + 1):
        clock, outputs = timed_pass(prepared)
        untraced.append(clock)
        checker.check(outputs, f"untraced pass {i}")
        clock, outputs = timed_pass(prepared, other)
        others.append(clock.scaled)
        checker.check(outputs, f"other-bundle pass {i}",
                      subset=not other_is_live)
        with rec.instrument():
            # Counts and span durations below come from the first.
            rec.reset_pass("traced" if i == 1 else f"traced-{i}")
            clock, outputs = timed_pass(prepared)
            rec.finish_pass()
        traced.append(clock.scaled)
        checker.check(outputs, f"spans pass {i}")
    wall = statistics.median(c.scaled for c in untraced)
    raw_wall = statistics.median(c.raw for c in untraced)
    traced_wall = statistics.median(traced)
    other_wall = statistics.median(others)
    live_wall, null_wall = (
        (other_wall, wall) if other_is_live else (wall, other_wall))

    # No probes inside the profiler: it would charge them to the pass.
    clock, (outputs, stats) = timed_pass(
        prepared,
        lambda step: profile_pass(lambda: prepared.run_pass(step)),
        probing=False,
    )
    profiled_wall = clock.raw
    checker.check(outputs, "profiled pass")
    profiled, wait_s, calls = attribute(stats)

    # Rescale profiled self time onto the untraced pass.
    scale = wall / max(sum(profiled.values()), 1e-12)
    self_s = {layer: seconds * scale for layer, seconds in profiled.items()}

    c = rec.counts
    kernels = {k: rec.durations(f"kernel.{k}", "traced")
               for k in ("cap3", "blast", "gtm")}
    task_ms = [1000.0 * d for ds in kernels.values() for d in ds]
    kernel_s = {k: sum(ds) for k, ds in kernels.items()}
    inputs = prepared.inputs
    sim_run_s = sum(rec.durations("sim.Environment.run", "traced"))
    sim_events = c.get("traced:sim.events", 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    metrics = {
        "import_s": import_s,
        "setup_s": setup.scaled,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "traced_wall_s": traced_wall,
        "profiled_wall_s": profiled_wall,
        "bench.trace_overhead_ratio": traced_wall / wall,
        "bench.profile_overhead_ratio": profiled_wall / raw_wall,
        "bench.profiled_wait_s": wait_s,
        "unattributed_s": self_s.get("unattributed", 0.0)
        + self_s.get("repro.other", 0.0),
        "sim.events": sim_events,
        "sim.run_s": sim_run_s,
        "sim.events_per_s": rate(sim_events, sim_run_s),
        "cloud.self_s": self_s.get("cloud", 0.0)
        + self_s.get("cloud.queue", 0.0),
        "cloud.queue.requests": c.get("traced:cloud.queue.requests", 0),
        "perfmodel.calls": sum(
            n for func, n in calls.items()
            if func[2] == "task_runtime_seconds"
            and layer_of(func[0]) == "perfmodel"
        ),
        "sweep.points": c.get("traced:sweep.points", 0),
        "sweep.cache.puts": c.get("traced:sweep.cache.puts", 0),
        "sweep.cache.bytes": (
            _unique_bytes(prepared.scratch)
            if workload == "figures-cold" else 0
        ),
        "serve.jobs_submitted": c.get("traced:serve.jobs_submitted", 0),
        "serve.jobs_admitted": c.get("traced:serve.jobs_admitted", 0),
        "serve.jobs_completed": c.get("traced:serve.jobs_completed", 0),
        "serve.jobs_shed": c.get("traced:serve.jobs_shed", 0),
        "serve.jobs_abandoned": c.get("traced:serve.jobs_abandoned", 0),
        "serve.duplicates": c.get("traced:serve.duplicates", 0),
        "obs.record_s": self_s.get("obs", 0.0),
        "obs.export_s": sum(rec.durations("obs.write_chrome_trace", "traced")),
        "obs.spans": c.get("traced:obs.spans", 0),
        "obs.trace_events": c.get("traced:obs.trace_events", 0),
        "obs.trace_bytes": c.get("traced:obs.trace_bytes", 0),
        "obs.overhead_ratio": live_wall / null_wall,
        "kernel.cap3.s": kernel_s["cap3"],
        "kernel.blast.s": kernel_s["blast"],
        "kernel.gtm.s": kernel_s["gtm"],
        "kernel.cap3.reads_per_s": rate(
            inputs.get("kernel.cap3.reads", 0), kernel_s["cap3"]),
        "kernel.blast.queries_per_s": rate(
            inputs.get("kernel.blast.queries", 0), kernel_s["blast"]),
        "kernel.gtm.points_per_s": rate(
            inputs.get("kernel.gtm.points", 0), kernel_s["gtm"]),
        "kernel.task_ms_p50": _percentile(task_ms, 0.50),
        "kernel.task_ms_p95": _percentile(task_ms, 0.95),
        "kernel.task_samples": len(task_ms),
        "local.overhead_s": (
            sum(rec.durations("local.LocalClassicCloud.run", "traced"))
            - sum(kernel_s.values())
        ),
        "local.store_bytes": c.get("traced:local.store_bytes", 0),
        "workloads.self_s": sum(
            d for name in ("write_cap3_workload", "write_blast_workload",
                           "write_gtm_workload")
            for d in rec.durations(f"workloads.{name}", "setup")
        ),
        "workloads.bytes_written": bytes_written,
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics["obs.export.self_s"] = self_s.get("obs.export", 0.0)
    for name, value in inputs.items():
        metrics[f"inputs.{name}"] = value

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "spans.json").write_text(
        json.dumps(rec.spans, indent=0) + "\n", encoding="utf-8")
    (out_dir / "layers.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "metrics": metrics},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        print(f"# {name:<{width}}  {metrics[name]:.6g}")
    print(f"# spans and layers written to {out_dir}")
    return metrics
