"""A run imports only what it runs.

The layers of ``docs/ARCHITECTURE.md`` are checked statically by RPR107
(``repro.lint.project_checks.LAYERS``); these tests check the import
closure itself, each in a fresh interpreter so nothing an earlier test
imported can hide an edge.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code: str, **env_vars: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), **env_vars)
    if "REPRO_SANITIZE" not in env_vars:
        env.pop("REPRO_SANITIZE", None)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["repro", "repro.core.api"])
def test_run_path_loads_no_tool_module(module):
    loaded = fresh_python(
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m == 'repro.lint'\n"
        "    or m.startswith(('repro.lint.', 'repro.obs.report'))))\n"
    )
    assert loaded.split() == []


def test_threads_token_monitors_a_local_run_in_a_fresh_interpreter(
    tmp_path,
):
    # The ambient path: no sanitizer installed and repro.lint not yet
    # loaded, so only the REPRO_SANITIZE read can turn monitoring on.
    report = fresh_python(
        "import sys\n"
        "from repro.apps.executables import Cap3Executable\n"
        "from repro.classiccloud.local import LocalClassicCloud\n"
        "from repro.classiccloud.localstore import LocalBlobStore\n"
        "from repro.workloads.genome import write_cap3_workload\n"
        "assert 'repro.lint.threadsan' not in sys.modules\n"
        f"store = LocalBlobStore({str(tmp_path / 'store')!r})\n"
        f"tasks = write_cap3_workload({str(tmp_path)!r}, n_files=2,\n"
        "                             reads_per_file=4)\n"
        "LocalClassicCloud(n_workers=2).run(Cap3Executable(), tasks)\n"
        "from repro.lint import threadsan\n"
        "assert isinstance(store._lock, threadsan.MonitoredLock)\n"
        "report = threadsan.active().report()\n"
        "print(report.locks_tracked, report.writes_observed,\n"
        "      len(report.issues))\n",
        REPRO_SANITIZE="threads",
    )
    locks, writes, issues = map(int, report.split())
    # The blob store's lock, the queue's and the run's.
    assert locks == 3
    assert writes > 0
    assert issues == 0
