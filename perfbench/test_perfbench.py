"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Workload sizes are shrunk through the module constants so that each
smoke pass takes about a second; the harness logic is the real one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402


@pytest.fixture
def smoke(monkeypatch):
    """Smoke-sized workloads, and the process state restored afterwards."""
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(run, "MIN_SETUPS", 2)
    monkeypatch.setattr(run, "MAX_SETUPS", 2)
    monkeypatch.setattr(layers, "RATIO_ROUNDS", 1)
    monkeypatch.setattr(suite, "FIGURE_STUDIES", ("fig9", "fig12_13"))
    monkeypatch.setattr(suite, "SERVE_WINDOW_S", 90.0)
    monkeypatch.setattr(suite, "CAP3_FILES", 3)
    monkeypatch.setattr(suite, "BLAST_FILES", 1)
    monkeypatch.setattr(suite, "GTM_FILES", 2)
    monkeypatch.setattr(suite, "GTM_GROUPS", 2)
    environ = dict(os.environ)
    tempdir = tempfile.tempdir
    bytecode = sys.dont_write_bytecode
    yield
    os.environ.clear()
    os.environ.update(environ)
    tempfile.tempdir = tempdir
    sys.dont_write_bytecode = bytecode


def bench(capsys, workload: str, trace: int, seed: int = 5) -> dict:
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_smoke_pass_reports_every_end_to_end_metric(smoke, capsys, workload):
    result = bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(smoke, capsys, workload):
    result = bench(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == run.PER_LAYER
    out = run.OUT / workload
    spans = json.loads((out / "spans.json").read_text())
    assert spans and {s["workload"] for s in spans} == {workload}
    detail = json.loads((out / "layers.json").read_text())["metrics"]
    for name in ("unattributed_s", "bench.trace_overhead_ratio",
                 "traced_wall_s", "wall_s", "sim.self_s", "kernel.gtm.s",
                 "obs.export_s", "workloads.self_s", "local.overhead_s"):
        assert name in detail


def test_named_counts_repeat_exactly(smoke, capsys):
    counts = ("sim.events", "serve.jobs_submitted", "serve.jobs_completed",
              "serve.jobs_shed", "obs.trace_events", "obs.spans",
              "cloud.queue.requests", "perfmodel.calls")
    first = bench(capsys, "serve-trace", trace=1)["metrics"]
    second = bench(capsys, "serve-trace", trace=1)["metrics"]
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    assert first["sim.events"]["value"] > 0
    assert first["serve.jobs_submitted"]["value"] > 0


def test_kernel_input_counts_repeat_exactly(smoke, tmp_path):
    a = suite.setup_kernels(3, tmp_path / "a").inputs
    b = suite.setup_kernels(3, tmp_path / "b").inputs
    assert a == b and a["kernel.cap3.files"] == 3


def test_private_directories_start_empty(smoke, capsys, monkeypatch):
    seen = []
    real = suite.SETUPS["serve-trace"]

    def spy(seed, root):
        seen.append(sorted(root.iterdir()))
        assert "REPRO_SANITIZE" not in os.environ
        assert Path(os.environ["REPRO_CACHE_DIR"]).is_relative_to(run.OUT)
        assert Path(tempfile.gettempdir()).is_relative_to(run.OUT)
        return real(seed, root)

    monkeypatch.setitem(suite.SETUPS, "serve-trace", spy)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    repo_cache = HERE.parent / ".repro-cache"
    before = sorted(repo_cache.rglob("*")) if repo_cache.exists() else None
    assert bench(capsys, "serve-trace", trace=0)["correct"]
    assert seen and all(listing == [] for listing in seen)
    after = sorted(repo_cache.rglob("*")) if repo_cache.exists() else None
    assert before == after


def test_corrupted_output_is_a_failed_operation(tmp_path):
    prepared = suite.setup_kernels(2, tmp_path)
    good = prepared.run_pass()
    checker = run.Checker("kernels-local", pinned=None)
    checker.check(good, "pass 1")
    bad = dict(good)
    key = next(k for k in bad if k.startswith("out/gtm/"))
    bad[key] = bad[key][:-1] + b"\x00"
    checker.check(bad, "pass 2")
    assert checker.failed == 1 and not checker.correct
    assert key in checker.errors[0]


def test_pinned_digest_mismatch_is_a_failed_operation():
    outputs = {"fig9": b"[]"}
    pinned = {"fig9": run.digest(b"[1]")}
    checker = run.Checker("figures-cold", pinned=pinned)
    checker.check(outputs, "pass 1")
    assert checker.failed == 1


def test_unbalanced_serve_books_fail():
    rows = [{"fleet": 1, "submitted": 10, "admitted": 9, "shed": 0,
             "completed": 9, "abandoned": 0, "duplicates": 0}]
    checker = run.Checker("serve-trace", pinned=None)
    checker.check({"accounting": json.dumps(rows).encode()}, "pass 1")
    assert checker.failed == 1


def test_missing_kernel_output_fails(tmp_path):
    prepared = suite.setup_kernels(2, tmp_path)
    outputs = prepared.run_pass()
    book = json.loads(outputs["cap3.outputs"])
    book["missing"] = ["out/cap3/00000.fa"]
    outputs["cap3.outputs"] = json.dumps(book).encode()
    checker = run.Checker("kernels-local", pinned=None)
    checker.check(outputs, "pass 1")
    assert checker.failed == 1


def test_pinned_digests_cover_every_workload():
    pinned = json.loads(run.DIGESTS.read_text())
    assert set(pinned) == set(suite.WORKLOADS)
    assert all(pinned[w] for w in suite.WORKLOADS)


def test_clock_scales_each_step_by_the_probe(monkeypatch):
    speeds = iter([2.0, 2.0, 1.0, 1.0])  # probe time / reference time
    monkeypatch.setattr(
        run, "probe", lambda: next(speeds) * run.REFERENCE_PROBE_S)
    clock = run.Clock()
    for _ in range(2):
        with clock.step():
            time.sleep(0.05)
    assert clock.steps == 2
    # The first step ran at half speed and counts half its wall time.
    assert 0.074 < clock.scaled < clock.raw and clock.raw >= 0.1
    plain = run.Clock(probing=False)
    with plain.step():
        time.sleep(0.01)
    assert plain.scaled == plain.raw


def test_layer_attribution_by_module():
    src = str(HERE.parent / "src" / "repro")
    assert layers.layer_of(f"{src}/sim/engine.py") == "sim"
    assert layers.layer_of(f"{src}/cloud/queue.py") == "cloud.queue"
    assert layers.layer_of(f"{src}/classiccloud/localstore.py") == "local"
    assert layers.layer_of(f"{src}/classiccloud/framework.py") == "classiccloud"
    assert layers.layer_of(f"{src}/apps/perfmodels.py") == "perfmodel"
    assert layers.layer_of(f"{src}/apps/cap3.py") == "kernel"
    assert layers.layer_of("/usr/lib/python3/json/encoder.py") is None


def test_profiler_sees_worker_threads():
    import threading

    def spin():
        return sum(i * i for i in range(200_000))

    def work():
        thread = threading.Thread(target=spin)
        thread.start()
        thread.join()

    _, stats = layers.profile_pass(work)
    assert any(func[2] == "spin" for func in stats.stats)


def test_missing_program_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-trace",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
