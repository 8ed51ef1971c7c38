"""Unit tests for the parallel experiment engine and its result cache.

The heavy science kinds (``online-session``) are exercised by
``tests/test_engine_determinism.py``; here the cheap ``random-cdf`` kind
and a test-local kind keep everything fast.
"""

import hashlib
import pickle

import numpy as np
import pytest

import repro.experiments.engine as engine_module
from repro.experiments.engine import (
    CACHE_VERSION,
    ExperimentEngine,
    ResultCache,
    TaskSpec,
    random_cdf_task,
    session_task,
    task_kind,
)
from repro.telemetry import RunContext


@task_kind("test-echo")
def _echo(*, value, seed=0):
    """A trivially cheap kind for engine-mechanics tests."""
    return {"value": value, "seed": seed}


def _cdf(seed, n=4):
    return random_cdf_task(workload="WC", dataset="D1", n_samples=n,
                           seed=seed)


class TestTaskSpec:
    def test_canonical_key_ignores_param_order(self):
        a = TaskSpec("k", {"x": 1, "y": 2})
        b = TaskSpec("k", {"y": 2, "x": 1})
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_separates_params_and_kinds(self):
        assert (TaskSpec("k", {"x": 1}).canonical_key()
                != TaskSpec("k", {"x": 2}).canonical_key())
        assert (TaskSpec("k1", {"x": 1}).canonical_key()
                != TaskSpec("k2", {"x": 1}).canonical_key())

    def test_canonical_unboxes_numpy_scalars(self):
        a = TaskSpec("k", {"x": np.int64(3)})
        b = TaskSpec("k", {"x": 3})
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            TaskSpec("k", {"x": object()}).canonical_key()

    def test_cache_payload_expands_cluster_spec(self):
        t = session_task(workload="WC", dataset="D1", tuner="DeepCAT",
                         seed=0, scale="quick")
        payload = t.cache_payload()
        # full hardware fields, not just the name, enter the hash
        assert "nodes" in payload or "cores" in payload
        assert t.canonical_key() != payload


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = _cdf(seed=3)
        assert ResultCache.is_miss(cache.load(task))
        result = {"durations": np.arange(4.0), "n_failed": 1}
        cache.store(task, result)
        loaded = cache.load(task)
        assert not ResultCache.is_miss(loaded)
        np.testing.assert_array_equal(loaded["durations"],
                                      result["durations"])
        assert loaded["n_failed"] == 1
        assert len(cache) == 1

    def test_cached_none_is_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = _cdf(seed=0)
        cache.store(task, None)
        assert not ResultCache.is_miss(cache.load(task))
        assert cache.load(task) is None

    def test_salt_change_invalidates(self, tmp_path):
        task = _cdf(seed=3)
        ResultCache(tmp_path, salt=CACHE_VERSION).store(task, 42)
        assert ResultCache.is_miss(
            ResultCache(tmp_path, salt=CACHE_VERSION + "-other").load(task)
        )

    def test_param_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_cdf(seed=3), 42)
        assert ResultCache.is_miss(cache.load(_cdf(seed=4)))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = _cdf(seed=3)
        path = cache.store(task, 42)
        path.write_bytes(b"not a pickle")
        assert ResultCache.is_miss(cache.load(task))

    def test_payload_mismatch_is_a_miss(self, tmp_path):
        # A well-formed entry (valid checksum) whose payload differs is
        # a plain miss — a hash collision, not corruption.
        cache = ResultCache(tmp_path)
        task = _cdf(seed=3)
        path = cache.store(task, 42)
        body = pickle.dumps({"payload": "tampered", "result": 42})
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        path.write_bytes(engine_module._CACHE_MAGIC + digest + b"\n" + body)
        assert ResultCache.is_miss(cache.load(task))
        assert cache.corrupt_entries == 0


class TestExperimentEngine:
    def test_results_in_submission_order(self):
        eng = ExperimentEngine()
        tasks = [TaskSpec("test-echo", {"value": v}) for v in (3, 1, 2)]
        assert [r["value"] for r in eng.run(tasks)] == [3, 1, 2]

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown task kind"):
            ExperimentEngine().run([TaskSpec("no-such-kind", {})])

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_explicit_seed_untouched(self):
        [r] = ExperimentEngine().run(
            [TaskSpec("test-echo", {"value": 1, "seed": 123})]
        )
        assert r["seed"] == 123

    def test_cache_hits_on_second_run(self, tmp_path):
        eng = ExperimentEngine(cache=ResultCache(tmp_path))
        tasks = [_cdf(seed=s) for s in (0, 1)]
        first = eng.run(tasks)
        assert eng.stats.cache_hits == 0
        assert eng.stats.executed == 2
        second = eng.run(tasks)
        assert eng.stats.cache_hits == 2
        assert eng.stats.executed == 2  # nothing recomputed
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a["durations"], b["durations"])
            assert a["n_failed"] == b["n_failed"]

    def test_cache_shared_across_engines(self, tmp_path):
        task = _cdf(seed=5)
        ExperimentEngine(cache=ResultCache(tmp_path)).run([task])
        eng2 = ExperimentEngine(cache=ResultCache(tmp_path))
        eng2.run([task])
        assert eng2.stats.cache_hits == 1
        assert eng2.stats.executed == 0

    def test_parallel_matches_inline(self, tmp_path):
        tasks = [_cdf(seed=s, n=3) for s in range(4)]
        inline = ExperimentEngine(jobs=1).run(tasks)
        parallel = ExperimentEngine(jobs=2).run(tasks)
        for a, b in zip(inline, parallel):
            np.testing.assert_array_equal(a["durations"], b["durations"])
            assert a["n_failed"] == b["n_failed"]
            assert a["default_duration"] == b["default_duration"]

    def test_telemetry_counters(self, tmp_path):
        ctx = RunContext.recording()
        eng = ExperimentEngine(cache=ResultCache(tmp_path), telemetry=ctx)
        tasks = [_cdf(seed=s) for s in (0, 1)]
        eng.run(tasks)
        eng.run(tasks)
        miss = ctx.metrics.counter("engine.cache_misses_total")
        hit = ctx.metrics.counter("engine.cache_hits_total")
        assert miss.value == 2.0
        assert hit.value == 2.0
        totals = ctx.tracer.totals()
        assert "engine.run" in totals
        assert totals["engine.task"]["count"] == 4

    def test_stats_summary_mentions_cache(self):
        eng = ExperimentEngine()
        eng.run([TaskSpec("test-echo", {"value": 1})])
        s = eng.stats.summary()
        assert "1 task(s)" in s and "cache hit" in s
