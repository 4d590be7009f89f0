"""Fixture: a justified wall-clock instant in sim scope (RPR007 noqa)."""


def report_progress(tracer, done):
    tracer.instant(  # repro: noqa[RPR007] host-side progress marker
        "progress", track="host", done=done
    )
