"""RPR107 clean: a backend imports lower layers at module level and
opts into a tool inside the function that uses it."""

import threading

from repro.cloud.queue import MessageQueue
from repro.sim.engine import make_environment


def make():
    return MessageQueue(make_environment(), "tasks")


def sanitizer():
    from repro.lint.threadsan import ThreadSanitizer

    return ThreadSanitizer(), threading.Lock()
