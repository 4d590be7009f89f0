"""RPR107 trigger: a backend imports a tool at module level.

The file sits under ``repro/classiccloud/`` so the linter names it
``repro.classiccloud.rpr107_trigger``, a module of the backends layer.
"""

from repro.cloud.queue import MessageQueue
from repro.lint.threadsan import ThreadSanitizer


def make(env):
    return MessageQueue(env, "tasks"), ThreadSanitizer()
