"""Persistent engine worker pool: one pool serves every run() call,
discarded only when a worker crash or deadline reap breaks it.

The per-round rebuild the pool replaced was pure overhead — tasks are
pure functions of their spec, so the only reason to discard a pool is
that it may hold a corpse after a crash.  The one state a worker keeps,
its model cache, is scoped to one run().
"""

from __future__ import annotations

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments.engine import (
    ExperimentEngine,
    TaskSpec,
    random_cdf_task,
    task_kind,
)
from repro.faults import WorkerChaos


@task_kind("pool-cache-probe")
def _cache_probe(*, run: int, cell: int, seed=0):
    """Cache a stand-in trained model for this cell, then report what
    this worker's model cache holds."""
    common._MODEL_CACHE[("probe", run, cell)] = object()
    return {
        "pid": os.getpid(),
        "size": len(common._MODEL_CACHE),
        "runs": sorted({key[1] for key in common._MODEL_CACHE
                        if key[0] == "probe"}),
    }


#: state a forked pool worker inherits from the test (fork copies it)
_INHERITED: dict = {}


def _fork_probe():
    """In a new pool's worker: was the discarded pool's shutdown lock
    free when this worker forked?  Then collect garbage, which frees the
    worker's copies of discarded executors (their weakref callback takes
    that lock)."""
    free = _INHERITED["lock"].acquire(timeout=2.0)
    gc.collect()
    return free


def _cdf(seed, n=3):
    return random_cdf_task(
        workload="WC", dataset="D1", n_samples=n, seed=seed
    )


def test_pool_is_reused_across_rounds_and_runs():
    eng = ExperimentEngine(jobs=2)
    eng.run([_cdf(seed=s) for s in range(3)])
    pool = eng._pool_holder.get("pool")
    assert pool is not None
    eng.run([_cdf(seed=s) for s in (7, 8)])
    assert eng._pool_holder.get("pool") is pool
    assert eng.stats.pool_rebuilds == 0
    eng.close()


def test_inline_engine_never_spawns_a_pool():
    eng = ExperimentEngine(jobs=1)
    eng.run([TaskSpec("random-cdf", {
        "workload": "WC", "dataset": "D1", "n_samples": 3, "seed": 0,
    })])
    assert eng._pool_holder.get("pool") is None


@pytest.mark.faults
def test_chaos_break_discards_and_rebuilds():
    tasks = [_cdf(seed=s) for s in range(4)]
    clean = ExperimentEngine(jobs=1).run(tasks)
    eng = ExperimentEngine(
        jobs=2, chaos=WorkerChaos(seed=7, kill_rate=1.0), task_retries=2
    )
    survived = eng.run(tasks)
    assert eng.stats.pool_rebuilds >= 1
    for a, b in zip(clean, survived):
        np.testing.assert_array_equal(a["durations"], b["durations"])
        assert a["n_failed"] == b["n_failed"]
    # The post-crash pool is healthy and persists into the next run.
    pool = eng._pool_holder.get("pool")
    assert pool is not None
    eng.close()


def test_close_is_idempotent_and_context_managed():
    with ExperimentEngine(jobs=2) as eng:
        eng.run([_cdf(seed=s) for s in (0, 1)])
        assert eng._pool_holder.get("pool") is not None
    assert eng._pool_holder.get("pool") is None
    eng.close()
    eng.close()


def test_finalizer_shuts_pool_when_engine_is_collected():
    eng = ExperimentEngine(jobs=2)
    eng.run([_cdf(seed=s) for s in (0, 1)])
    holder = eng._pool_holder
    assert holder.get("pool") is not None
    del eng
    gc.collect()
    assert holder.get("pool") is None


def test_worker_model_cache_lives_one_run():
    with ExperimentEngine(jobs=2) as eng:
        pids = set()
        for run in range(6):
            probes = eng.run([
                TaskSpec("pool-cache-probe", {"run": run, "cell": cell})
                for cell in range(4)
            ])
            for probe in probes:
                assert probe["pid"] != os.getpid()
                assert probe["runs"] == [run]
                assert probe["size"] <= 4
            pids.update(probe["pid"] for probe in probes)
        assert eng.stats.pool_rebuilds == 0
    assert len(pids) <= 2


def test_inline_engine_keeps_the_parent_model_cache():
    key = ("probe", -1, 0)
    common._MODEL_CACHE[key] = marker = object()
    try:
        ExperimentEngine(jobs=1).run([
            TaskSpec("pool-cache-probe", {"run": 0, "cell": cell})
            for cell in range(2)
        ])
        assert common._MODEL_CACHE[key] is marker
    finally:
        for k in [k for k in common._MODEL_CACHE if k[0] == "probe"]:
            del common._MODEL_CACHE[k]


def test_new_pool_forks_after_discarded_managers_finish():
    """A pool discarded without waiting still has its manager thread
    running; while that thread holds the pool's shutdown lock (here a
    helper thread holds it for a moment), a new pool, even another
    engine's, must not fork.  Otherwise its workers inherit the lock
    held and hang in garbage collection."""
    old = ExperimentEngine(jobs=2)
    pool = old._ensure_pool()
    busy = pool.submit(time.sleep, 0.5)
    while not busy.running():
        time.sleep(0.01)
    _INHERITED["lock"] = lock = pool._shutdown_lock
    del pool
    old.close()  # the manager waits on the sleeping worker, then the lock
    held, release = threading.Event(), threading.Event()

    def hold():
        with lock:
            held.set()
            release.wait(1.0)

    helper = threading.Thread(target=hold)
    helper.start()
    held.wait()
    new = ExperimentEngine(jobs=2)
    try:
        fresh = new._ensure_pool()
        probes = [fresh.submit(_fork_probe) for _ in range(2)]
        assert [f.result(timeout=30) for f in probes] == [True, True]
    finally:
        release.set()
        helper.join()
        ExperimentEngine._kill_workers(new._pool_holder["pool"])
        new.close()
