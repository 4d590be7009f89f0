"""RPR104 trigger: a lambda shipped through SweepPool.submit."""

from repro.sweep.pool import SweepPool


def fan_out(configs):
    pool = SweepPool(2)
    futures = [pool.submit(lambda c: c.run(), config) for config in configs]
    return [future.result() for future in futures]
