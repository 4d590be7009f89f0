"""Pytest integration for the runtime sanitizers.

Registered from ``tests/conftest.py``.  Entry points:

* ``pytest --repro-sanitize`` adds ``sim`` to ``REPRO_SANITIZE`` for the
  whole session, so every simulated backend that builds its event loop through
  :func:`repro.sim.engine.make_environment` runs on a
  :class:`~repro.lint.sanitizer.SanitizedEnvironment`;
* ``pytest --repro-sanitize-threads`` installs a fresh
  :class:`~repro.lint.threadsan.ThreadSanitizer` around every test (and
  adds ``threads`` to ``REPRO_SANITIZE`` for worker subprocesses); a test
  whose threaded runtimes produce lock-order inversions or
  unsynchronized cross-thread writes fails at teardown with the
  findings formatted by :mod:`repro.lint.report`;
* the ``sanitized_env`` fixture hands a test an instrumented
  environment and fails the test at teardown if the sanitizer caught a
  kernel-contract violation or a queue leak.
"""

from __future__ import annotations

import os

import pytest

from repro.lint import threadsan
from repro.lint.sanitizer import SanitizedEnvironment
from repro.sim.engine import sanitize_requested

__all__ = ["sanitized_env"]

_OPTION = "--repro-sanitize"
_THREADS_OPTION = "--repro-sanitize-threads"


def pytest_addoption(parser) -> None:
    group = parser.getgroup("repro")
    group.addoption(
        _OPTION,
        action="store_true",
        default=False,
        help="run simulated backends under the determinism sanitizer "
        "(adds sim to REPRO_SANITIZE)",
    )
    group.addoption(
        _THREADS_OPTION,
        action="store_true",
        default=False,
        help="run threaded runtimes under the thread sanitizer; tests "
        "fail on lock-order inversions or unsynchronized writes "
        "(adds threads to REPRO_SANITIZE)",
    )


def _add_token(kind: str) -> None:
    kinds = sanitize_requested() | {kind}
    os.environ["REPRO_SANITIZE"] = ",".join(sorted(kinds))


def pytest_configure(config) -> None:
    try:
        sanitize_requested()
    except ValueError as exc:  # a bad token is a usage error, not a crash
        raise pytest.UsageError(str(exc)) from None
    if config.getoption(_OPTION):
        _add_token("sim")
    if config.getoption(_THREADS_OPTION):
        _add_token("threads")


def pytest_report_header(config) -> str:
    kinds = sanitize_requested()
    return (
        f"repro sanitizer: {'on' if 'sim' in kinds else 'off'} "
        f"(threads: {'on' if 'threads' in kinds else 'off'})"
    )


@pytest.fixture(autouse=True)
def _thread_sanitizer(request):
    """Per-test ThreadSanitizer when ``--repro-sanitize-threads`` is on.

    A fresh sanitizer per test keeps acquisition-order graphs and
    object states from leaking across tests; findings fail the test at
    teardown.  Without the option this fixture is inert.
    """
    if not request.config.getoption(_THREADS_OPTION):
        yield None
        return
    sanitizer = threadsan.install(threadsan.ThreadSanitizer())
    yield sanitizer
    threadsan.uninstall()
    report = sanitizer.report()
    if report.issues:
        pytest.fail(
            "thread sanitizer caught issues:\n" + report.summary(),
            pytrace=False,
        )


@pytest.fixture
def sanitized_env():
    """A strict SanitizedEnvironment; leaks fail the test at teardown."""
    env = SanitizedEnvironment(strict=True)
    yield env
    report = env.sanitizer_report()
    if report.issues:
        pytest.fail(
            "sanitizer caught issues:\n" + report.summary(), pytrace=False
        )
