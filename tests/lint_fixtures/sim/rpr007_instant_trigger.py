"""Fixture: tracer instant without ts= in sim scope (RPR007)."""


def dispatch(tracer, env, task):
    tracer.instant("serve.dispatch", track="scheduler", task_id=task.task_id)
    return env.now
