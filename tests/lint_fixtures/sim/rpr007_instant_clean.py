"""Fixture: sim-scope instants stamped with Environment.now (RPR007 clean)."""


def dispatch(tracer, env, task, extra):
    tracer.instant(
        "serve.dispatch", track="scheduler", ts=env.now, task_id=task.task_id
    )
    # A ** mapping may carry ts, so the rule does not guess.
    tracer.instant("serve.shed", track="service", **extra)
