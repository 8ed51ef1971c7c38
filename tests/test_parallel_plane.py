"""Multi-core execution plane primitives: shard planning and BLAS
pinning.

These are the process-free contracts — everything here runs in one
process.  The cross-process behaviour (worker stepping, bit-identity,
crash handling) lives in ``test_sharded_population.py``.
"""

from __future__ import annotations

import pytest

from repro.parallel import (
    blas_env,
    effective_blas_threads,
    limit_blas_threads,
    shard_plan,
)
from repro.parallel.pinning import _BLAS_ENV_VARS


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


class TestPinning:
    def test_blas_env_covers_all_knobs(self):
        env = blas_env(3)
        assert set(env) == set(_BLAS_ENV_VARS)
        assert all(v == "3" for v in env.values())

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

    def test_non_positive_budget_clamps_to_one(self):
        assert blas_env(0)["OMP_NUM_THREADS"] == "1"
        assert limit_blas_threads(0) in ("threadpoolctl", "openblas", "env")
