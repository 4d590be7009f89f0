#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with nothing attached and reports the
end-to-end metrics; ``--trace 1`` makes a separate traced run that splits
the wall time across the ``repro.*`` layers.  Either way the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: Seed whose outputs are pinned in digests.json.  Seed 7919 is held
#: out of tuning: gain claims are re-checked on it.
DEFAULT_SEED = 1

#: Inherited settings that would change what a run does: a DES token in
#: REPRO_SANITIZE forces every point inline and bypasses the cache.
ISOLATED_ENV = ("REPRO_SANITIZE", "REPRO_NO_CACHE", "REPRO_JOBS",
                "REPRO_CACHE_DIR")
#: A single-threaded baseline: native math libraries get one thread.
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")

MIN_PASSES = 3
MIN_SETUPS = 5
MAX_SETUPS = 200
#: Share of --seconds spent repeating set-up, once MIN_SETUPS are done.
SETUP_SHARE = 0.1

#: Iterations of the speed probe's loop (about 1.4 ms on the machine below).
PROBE_LOOPS = 20_000
#: The probe's time on the reference machine (2 vCPUs at 2.1 GHz, Python
#: 3.11) when no neighbour competes for its cores.  Scaled times are in
#: seconds at that speed.
REFERENCE_PROBE_S = 0.0014

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "import_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "obs.record_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "obs.overhead_ratio": "ratio",
    "sim.events": "count",
    "cloud.queue.requests": "count",
    "perfmodel.calls": "count",
    "sweep.points": "count",
    "sweep.cache.puts": "count",
    "sweep.cache.bytes": "bytes",
    "serve.jobs_submitted": "count",
    "serve.jobs_completed": "count",
    "serve.jobs_shed": "count",
    "serve.duplicates": "count",
    "obs.spans": "count",
    "obs.trace_events": "count",
    "obs.trace_bytes": "bytes",
    "kernel.task_samples": "count",
    "local.store_bytes": "bytes",
    "workloads.bytes_written": "bytes",
}


def single_malloc_arena() -> None:
    """One glibc malloc arena for every thread.

    Otherwise a worker thread gets a fresh arena or shares one depending
    on timing, and peak RSS of ``kernels-local`` lands 5 MB apart
    between identical runs.  A no-op where glibc is absent.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_arena_max = -8  # from glibc's malloc.h
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(m_arena_max, 1)


def environment_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def fresh_dir(path: Path) -> Path:
    """An empty private directory (refuses to reuse a non-empty one)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    if any(path.iterdir()):
        raise RuntimeError(f"private directory {path} is not empty")
    return path


def isolate(run_dir: Path) -> None:
    """Private temp, cache and artifact locations; no inherited knobs."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    tmp = fresh_dir(run_dir / "tmp")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    # Anything that still falls back to the default cache policy lands
    # in this run's private directory, never in the checkout's.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "default-cache")
    sys.dont_write_bytecode = True


def digest(value: bytes) -> str:
    return hashlib.sha256(value).hexdigest()


def probe() -> float:
    """The machine's current speed: the median time of three runs of a
    fixed pure-Python loop that shares no code with ``repro``."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times a pass step by step.

    On a shared host the speed of the CPU swings by up to 1.8x for
    seconds at a time, as neighbours come and go.  Each step is therefore
    bracketed by :func:`probe` and its wall time scaled by
    ``REFERENCE_PROBE_S / probe time``: ``scaled`` is the pass's time at
    the reference speed, ``raw`` its plain wall time.  With
    ``probing=False`` nothing runs between steps and ``scaled == raw``.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.raw = 0.0
        self.scaled = 0.0
        self.steps = 0

    @contextmanager
    def step(self):
        before = probe() if self.probing else REFERENCE_PROBE_S
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        after = probe() if self.probing else REFERENCE_PROBE_S
        self.raw += wall
        self.scaled += wall * 2 * REFERENCE_PROBE_S / (before + after)
        self.steps += 1


class Checker:
    """Correctness of every pass: identical to the run's first pass,
    equal to the pinned digests at the default seed, and the workload's
    own invariants.  Each bad output counts as one failed operation."""

    def __init__(self, workload: str, pinned: "dict[str, str] | None"):
        self.workload = workload
        self.pinned = pinned
        self.first: "dict[str, str] | None" = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def check(self, outputs: "dict[str, bytes]", label: str,
              subset: bool = False) -> None:
        import suite

        digests = {
            name: digest(suite.comparable(name, value))
            for name, value in outputs.items()
        }
        bad: dict[str, str] = {}
        for name, message in suite.output_errors(self.workload, outputs):
            bad[name] = message
        if self.first is None:
            self.first = digests
        else:
            expected = set(self.first)
            if not subset and set(digests) != expected:
                bad["<items>"] = (
                    f"items differ from the first pass: "
                    f"{sorted(set(digests) ^ expected)}"
                )
            for name, value in digests.items():
                if self.first.get(name) != value:
                    bad.setdefault(name, "differs from the first pass")
        if self.pinned is not None:
            for name, value in self.pinned.items():
                if name in digests and digests[name] != value:
                    bad.setdefault(name, "differs from the pinned digest")
                elif name not in digests and not subset:
                    bad.setdefault(name, "pinned output missing")
        self.attempted += len(digests)
        self.failed += len(bad)
        self.errors.extend(f"{label}: {n}: {m}" for n, m in sorted(bad.items()))

    @property
    def correct(self) -> bool:
        return self.failed == 0


def load_pinned(workload: str, seed: int) -> "dict[str, str] | None":
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())[workload]


def run_setups(workload: str, seed: int, seconds: float, work: Path):
    """Repeat set-up from empty directories, one step each; returns
    (clocks, prepared)."""
    import suite

    setup = suite.SETUPS[workload]
    clocks: list[Clock] = []
    prepared, root = None, None
    started = time.perf_counter()
    while len(clocks) < MIN_SETUPS or (
        time.perf_counter() - started < SETUP_SHARE * seconds
        and len(clocks) < MAX_SETUPS
    ):
        previous = root
        root = fresh_dir(work / f"setup-{len(clocks) % 2}")
        prepared = None
        gc.collect()
        clock = Clock()
        with clock.step():
            prepared = setup(seed, root)
        clocks.append(clock)
        if previous is not None and previous != root:
            shutil.rmtree(previous, ignore_errors=True)
    return clocks, prepared


def timed_pass(prepared, run=None, probing: bool = True
               ) -> "tuple[Clock, dict[str, bytes]]":
    """One pass from an empty scratch directory, timed step by step."""
    if prepared.scratch is not None:
        shutil.rmtree(prepared.scratch, ignore_errors=True)
    # Every pass starts from a collected heap, so one pass's garbage is
    # not charged to the next.
    gc.collect()
    clock = Clock(probing)
    outputs = (run or prepared.run_pass)(clock.step)
    return clock, outputs


def warm_up(prepared, checker: Checker) -> None:
    """One checked, untimed pass: lazy imports and first-use tables are
    paid here, not by the first timed pass."""
    _, outputs = timed_pass(prepared, probing=False)
    checker.check(outputs, "warm-up pass")


def summary(label: str, values: "list[float]") -> str:
    return (f"{label} min/median/max {min(values):.4f}/"
            f"{statistics.median(values):.4f}/{max(values):.4f} s")


def measure(workload: str, seed: int, seconds: float, work: Path,
            checker: Checker) -> dict:
    """The untraced run: end-to-end metrics."""
    setups, prepared = run_setups(workload, seed, seconds, work)
    started = time.perf_counter()
    warm_up(prepared, checker)
    passes: list[Clock] = []
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - started
        + statistics.median(p.raw for p in passes) <= seconds
    ):
        try:
            clock, outputs = timed_pass(prepared)
        except Exception as exc:  # a crash is one failed operation
            checker.fail(f"pass {len(passes) + 1}: {exc!r}")
            if not passes and checker.failed >= MIN_PASSES:
                raise
            continue
        passes.append(clock)
        checker.check(outputs, f"pass {len(passes)}")
    print(f"# {workload}: {len(passes)} passes of {passes[0].steps} steps, "
          + summary("scaled", [p.scaled for p in passes]) + ", "
          + summary("raw", [p.raw for p in passes]))
    print(f"# {len(setups)} set-ups, "
          + summary("scaled", [c.scaled for c in setups]) + ", "
          + summary("raw", [c.raw for c in setups]))
    return {
        "wall_s": statistics.median(p.scaled for p in passes),
        "setup_s": statistics.median(c.scaled for c in setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    import suite

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true",
        help="record this run's outputs as the pinned digests "
             "(default seed only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # Before anything loads numpy: its BLAS reads these once, at import.
    for name in SINGLE_THREAD_ENV:
        os.environ[name] = "1"
    single_malloc_arena()
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if args.pin and args.seed != DEFAULT_SEED:
        print(f"error: --pin needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    run_dir = fresh_dir(OUT / f"run-{os.getpid()}")
    try:
        isolate(run_dir)
        sys.path.insert(0, str(CHECKOUT / "src"))
        t0 = time.perf_counter()
        try:
            import repro  # noqa: F401
        except ImportError as exc:
            print(f"error: cannot import repro from {CHECKOUT / 'src'}: "
                  f"{exc}", file=sys.stderr)
            return 2
        import_s = time.perf_counter() - t0
        if not Path(repro.__file__).resolve().is_relative_to(CHECKOUT / "src"):
            print(f"error: repro was imported from {repro.__file__}, not "
                  f"from this checkout", file=sys.stderr)
            return 2
        print("# env: " + json.dumps(environment_info(), sort_keys=True))
        checker = Checker(
            args.workload,
            None if args.pin else load_pinned(args.workload, args.seed),
        )
        work = run_dir / "work"
        if args.trace:
            import layers

            metrics = layers.traced_run(
                args.workload, args.seed, work, checker, import_s,
                OUT / args.workload,
            )
            metrics = {name: metrics[name] for name in PER_LAYER}
            units = PER_LAYER
        else:
            metrics = measure(args.workload, args.seed, args.seconds, work,
                              checker)
            units = END_TO_END
        if args.pin:
            pin(args.workload, checker)
        for error in checker.errors:
            print(f"# FAILED {error}")
        result = {
            "correct": checker.correct,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def pin(workload: str, checker: Checker) -> None:
    import suite

    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pinned[workload] = {
        name: value for name, value in sorted(checker.first.items())
        if name not in suite.UNPINNED
    }
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
