"""Shared test configuration: load the repro sanitizer pytest plugin.

The plugin adds ``--repro-sanitize`` (run every simulated backend on the
instrumented event loop) and the ``sanitized_env`` fixture.  The
``eager_polling`` fixture is the differential oracle for parked idle
polling.
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
