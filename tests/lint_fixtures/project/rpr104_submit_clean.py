"""RPR104 clean: shared_pool(...).submit ships a module-level function."""

from repro.sweep.pool import shared_pool


def run_one(config, capture):
    return config, capture


def fan_out(configs):
    pool = shared_pool(2)
    futures = [pool.submit(run_one, config, False) for config in configs]
    return [future.result() for future in futures]
