"""Shared test configuration: load the repro sanitizer pytest plugin.

The plugin adds ``--repro-sanitize`` (run every simulated backend on the
instrumented event loop) and the ``sanitized_env`` fixture.  The
``eager_polling`` fixture is the differential oracle for parked idle
polling, and ``eager_hadoop`` the one for sleeping Hadoop map slots.
"""

import pytest

pytest_plugins = ["repro.lint.pytest_plugin"]


@pytest.fixture
def eager_polling(monkeypatch):
    """Test-only oracle: idle poll cycles never park, so every one runs
    on the event heap as its own scheduled step.  Parked replay must
    reproduce this mode's outputs exactly."""
    from repro.cloud.queue import _PollEntry

    monkeypatch.setattr(_PollEntry, "_may_park", lambda self: False)


@pytest.fixture
def eager_hadoop(monkeypatch):
    """Test-only oracle: an idle Hadoop map slot never sleeps; it polls
    the JobTracker once per simulated second, each poll its own step on
    the event heap.  Sleeping slots must reproduce this mode exactly."""
    from repro.hadoop.job import _HadoopRun

    monkeypatch.setattr(
        _HadoopRun, "_idle", lambda self, index: self.env.timeout(1.0)
    )
