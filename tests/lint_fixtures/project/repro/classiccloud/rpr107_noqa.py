"""RPR107 noqa: the upward import carries a justification."""

from repro.lint.threadsan import ThreadSanitizer  # repro: noqa[RPR107] demo


def make():
    return ThreadSanitizer()
