"""Multi-core execution plane primitives: shard planning and BLAS
pinning.

These are the process-free contracts — everything here runs in one
process.  The cross-process behaviour (worker stepping, bit-identity,
crash handling) lives in ``test_sharded_population.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.parallel import (
    blas_env,
    effective_blas_threads,
    limit_blas_threads,
    shard_plan,
)
from repro.parallel.pinning import _BLAS_ENV_VARS, _blas_pools, usable_cpus


class TestShardPlan:
    def test_even_split(self):
        assert shard_plan(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_earlier_shards(self):
        assert shard_plan(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard_is_everything(self):
        assert shard_plan(5, 1) == [(0, 5)]

    def test_shards_clamped_to_members(self):
        plan = shard_plan(3, 8)
        assert plan == [(0, 1), (1, 2), (2, 3)]

    def test_covers_range_contiguously(self):
        for n in (1, 2, 7, 64):
            for shards in (1, 2, 3, 5, n, n + 3):
                plan = shard_plan(n, shards)
                assert plan[0][0] == 0
                assert plan[-1][1] == n
                for (_, hi), (lo, _) in zip(plan, plan[1:]):
                    assert hi == lo
                assert all(hi > lo for lo, hi in plan)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            shard_plan(0, 2)
        with pytest.raises(ValueError):
            shard_plan(4, 0)


@pytest.fixture
def blas_restored():
    """Give every loaded BLAS pool its thread count back after a test
    that pins this process."""
    _, pools = _blas_pools()
    counts = [get() for get, _ in pools]
    yield
    for (_, set_threads), count in zip(pools, counts):
        set_threads(count)


class TestPinning:
    def test_blas_env_covers_all_knobs(self):
        env = blas_env(3)
        assert set(env) == set(_BLAS_ENV_VARS)
        assert all(v == "3" for v in env.values())

    @pytest.mark.usefixtures("blas_restored")
    def test_limit_reports_mechanism(self, monkeypatch):
        for var in _BLAS_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        how = limit_blas_threads(1)
        assert how in ("threadpoolctl", "openblas", "env")
        import os

        assert all(os.environ[v] == "1" for v in _BLAS_ENV_VARS)

    def test_effective_threads_positive(self):
        threads = effective_blas_threads()
        assert isinstance(threads, int)
        assert threads >= 1

    @pytest.mark.usefixtures("blas_restored")
    def test_non_positive_budget_clamps_to_one(self):
        assert blas_env(0)["OMP_NUM_THREADS"] == "1"
        assert limit_blas_threads(0) in ("threadpoolctl", "openblas", "env")

    def test_getters_report_the_pools_not_the_environment(
        self, unpinned_python
    ):
        """numpy reads the variables once, when it loads: set later they
        change nothing, and the getters say so."""
        out = unpinned_python("""
import json, os
import numpy
from repro.parallel.pinning import (
    _BLAS_ENV_VARS, effective_blas_threads, limit_blas_threads)

before = effective_blas_threads()
os.environ["OPENBLAS_NUM_THREADS"] = "1"
late_env = effective_blas_threads()
how = limit_blas_threads(1)
for var in _BLAS_ENV_VARS:
    del os.environ[var]
print(json.dumps({"before": before, "late_env": late_env, "how": how,
                  "after": effective_blas_threads()}))
""")
        assert out["how"] in ("threadpoolctl", "openblas")
        assert out["late_env"] == out["before"]
        assert out["after"] == 1
        if len(os.sched_getaffinity(0)) > 1:
            assert out["before"] > 1

    def test_engine_pool_workers_run_one_blas_thread(self, unpinned_python):
        out = unpinned_python("""
import json
from repro.experiments.engine import ExperimentEngine, TaskSpec, task_kind
from repro.parallel.pinning import effective_blas_threads

@task_kind("blas-threads-probe")
def probe(*, seed):
    return effective_blas_threads()

with ExperimentEngine(jobs=2) as engine:
    workers = engine.run(
        [TaskSpec("blas-threads-probe", {"seed": s}) for s in range(2)])
print(json.dumps({"parent": effective_blas_threads(), "workers": workers}))
""")
        assert out["workers"] == [1, 1]
        if len(os.sched_getaffinity(0)) > 1:
            assert out["parent"] > 1


class TestUsableCpus:
    def test_divides_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert usable_cpus() == 3
        assert usable_cpus(2) == 1
        assert usable_cpus(5) == 1
