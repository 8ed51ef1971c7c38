"""Crash-safe engine supervision: retries, quarantine, pool rebuilds,
per-task deadlines, and cache integrity.

Every kind here is registered at module scope so forked pool workers
inherit it; flaky kinds trigger their failures off marker files (state
*outside* the task parameters), keeping each task's **result** a pure
function of its params — which is what makes retries bit-identical.
"""

import json
import os
import pickle
import signal
import time

import pytest

import repro.experiments.engine as engine_module
from repro.experiments.engine import (
    EngineTaskError,
    ExperimentEngine,
    ResultCache,
    TaskFailure,
    TaskSpec,
    render_failure_report,
    task_kind,
)
from repro.telemetry import RunContext


@task_kind("sup-ok")
def _sup_ok(*, value, seed=0):
    return {"value": value, "seed": seed}


@task_kind("sup-flaky")
def _sup_flaky(*, marker, value, seed=0):
    """Raises RuntimeError until ``marker`` exists, then succeeds.

    The marker lives outside the params, so the eventual *result* is
    still a pure function of ``(value, seed)``.
    """
    if not os.path.exists(marker):
        open(marker, "wb").close()
        raise RuntimeError("transient fault (first attempt)")
    return {"value": value * 2, "seed": seed}


@task_kind("sup-boom")
def _sup_boom(*, seed=0):
    raise RuntimeError("permanent fault")


@task_kind("sup-bad-params")
def _sup_bad_params(*, seed=0):
    raise ValueError("deterministically wrong parameters")


@task_kind("sup-sleep")
def _sup_sleep(*, duration, seed=0):
    time.sleep(duration)
    return {"slept": duration}


@task_kind("sup-selfkill")
def _sup_selfkill(*, marker, value, seed=0):
    """SIGKILLs its own worker once (simulated OOM kill), then succeeds."""
    if not os.path.exists(marker):
        open(marker, "wb").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": value + 100, "seed": seed}


class TestInlineRetry:
    def test_transient_failure_retried_to_success(self, tmp_path):
        eng = ExperimentEngine(task_retries=2)
        marker = str(tmp_path / "flaky.marker")
        [r] = eng.run([TaskSpec("sup-flaky",
                      {"marker": marker, "value": 3, "seed": 0})])
        assert r == {"value": 6, "seed": 0}
        assert eng.stats.task_failures == 1
        assert eng.stats.task_retries == 1
        assert eng.stats.quarantined_tasks == 0

    @pytest.mark.determinism
    def test_retried_result_bit_identical_to_clean(self, tmp_path):
        clean_marker = tmp_path / "clean.marker"
        clean_marker.touch()  # never fails
        [clean] = ExperimentEngine().run(
            [TaskSpec("sup-flaky",
                      {"marker": str(clean_marker), "value": 7, "seed": 4})]
        )
        [retried] = ExperimentEngine(task_retries=1).run(
            [TaskSpec("sup-flaky",
                      {"marker": str(tmp_path / "dirty.marker"),
                       "value": 7, "seed": 4})]
        )
        assert retried == clean

    def test_non_transient_exception_skips_retries(self):
        eng = ExperimentEngine(task_retries=5, failure_mode="lenient")
        eng.run([TaskSpec("sup-bad-params", {})])
        assert eng.stats.task_failures == 1  # exactly one attempt
        assert eng.stats.task_retries == 0
        assert eng.stats.quarantined_tasks == 1
        assert eng.failures[0].exc_type == "ValueError"


class TestStrictLenient:
    def test_strict_raises_after_grid_completes(self, tmp_path):
        cache = ResultCache(tmp_path)
        eng = ExperimentEngine(cache=cache, task_retries=1)
        tasks = [
            TaskSpec("sup-ok", {"value": 1, "seed": 0}),
            TaskSpec("sup-boom", {}),
            TaskSpec("sup-ok", {"value": 2, "seed": 0}),
        ]
        with pytest.raises(EngineTaskError) as exc_info:
            eng.run(tasks)
        err = exc_info.value
        [failure] = err.failures
        assert failure.kind == "sup-boom"
        assert failure.attempts == 2  # 1 try + 1 retry
        assert failure.exc_type == "RuntimeError"
        # The healthy cells completed and were cached before the raise.
        assert len(cache) == 2
        assert err.report["quarantined"][0]["exc_type"] == "RuntimeError"

    def test_strict_rerun_is_incremental(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [TaskSpec("sup-ok", {"value": 1, "seed": 0}), TaskSpec("sup-boom", {})]
        with pytest.raises(EngineTaskError):
            ExperimentEngine(cache=cache, task_retries=0).run(tasks)
        eng2 = ExperimentEngine(cache=cache, task_retries=0)
        with pytest.raises(EngineTaskError):
            eng2.run(tasks)
        assert eng2.stats.cache_hits == 1  # the good cell never recomputed

    def test_lenient_returns_partial_results(self):
        eng = ExperimentEngine(failure_mode="lenient", task_retries=0)
        results = eng.run([
            TaskSpec("sup-ok", {"value": 9, "seed": 0}),
            TaskSpec("sup-boom", {}),
        ])
        assert results[0] == {"value": 9, "seed": 0}
        assert results[1] is None

    def test_remote_traceback_propagated_and_printed_once(self, capsys):
        eng = ExperimentEngine(failure_mode="lenient", task_retries=2)
        eng.run([TaskSpec("sup-boom", {})])
        [failure] = eng.failures
        assert "RuntimeError: permanent fault" in failure.traceback
        assert "_sup_boom" in failure.traceback
        err = capsys.readouterr().err
        # One summary line per attempt, the full traceback exactly once.
        assert err.count("RuntimeError: permanent fault") == 1 + 3
        assert err.count("Traceback (most recent call last)") == 1

    def test_invalid_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure_mode"):
            ExperimentEngine(failure_mode="yolo")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="task_retries"):
            ExperimentEngine(task_retries=-1)


class TestPoolSupervision:
    def test_worker_crash_rebuilds_pool_and_retries(self, tmp_path):
        eng = ExperimentEngine(jobs=2, task_retries=2)
        marker = str(tmp_path / "kill.marker")
        tasks = [
            TaskSpec("sup-selfkill", {"marker": marker, "value": 1, "seed": 0}),
            TaskSpec("sup-ok", {"value": 2, "seed": 0}),
            TaskSpec("sup-ok", {"value": 3, "seed": 0}),
        ]
        results = eng.run(tasks)
        assert results[0] == {"value": 101, "seed": 0}
        assert [r["value"] for r in results[1:]] == [2, 3]
        assert eng.stats.pool_rebuilds >= 1
        assert eng.stats.task_failures >= 1
        assert eng.stats.quarantined_tasks == 0

    def test_crash_failure_is_marked_worker_crash(self, tmp_path):
        # The self-kill runs alone: a crash charges every task that had
        # started when the pool broke, so a sibling in the same run()
        # could be quarantined with it.  The deadline, far above the
        # task's run time, sends a lone task to the pool instead of
        # running it inline in this process.
        eng = ExperimentEngine(jobs=2, task_retries=0, task_timeout=120.0,
                               failure_mode="lenient")
        # No marker pre-created and retries=0: the one charged crash
        # quarantines the task.
        [crashed] = eng.run([
            TaskSpec("sup-selfkill",
                     {"marker": str(tmp_path / "m"), "value": 1, "seed": 0}),
        ])
        assert crashed is None
        [failure] = eng.failures
        assert failure.worker_crash is True
        assert failure.exc_type == "WorkerCrash"
        assert eng.stats.quarantined_tasks == 1
        # An unrelated task still completes on the same engine.
        [ok] = eng.run([TaskSpec("sup-ok", {"value": 2, "seed": 0})])
        assert ok == {"value": 2, "seed": 0}
        assert eng.failures == [failure]

    def test_deadline_reaps_hung_worker(self):
        eng = ExperimentEngine(jobs=2, task_timeout=0.75, task_retries=0,
                               failure_mode="lenient")
        t0 = time.monotonic()
        [result] = eng.run([TaskSpec("sup-sleep", {"duration": 60.0})])
        assert time.monotonic() - t0 < 30.0  # reaped, not slept out
        assert result is None
        assert eng.stats.task_timeouts == 1
        [failure] = eng.failures
        assert failure.timed_out is True
        assert failure.worker_crash is True
        assert "deadline" in failure.message

    def test_ewma_deadline_needs_a_completed_kind_first(self):
        eng = ExperimentEngine()
        assert eng._deadline_for("sup-sleep") is None
        eng._note_duration("sup-sleep", 0.1)
        # Floored at 30s so quick kinds are not reaped by jitter.
        assert eng._deadline_for("sup-sleep") == 30.0
        eng._note_duration("sup-sleep", 100.0)
        ewma = eng._kind_ewma["sup-sleep"]
        assert ewma == pytest.approx(0.7 * 0.1 + 0.3 * 100.0)
        assert eng._deadline_for("sup-sleep") == pytest.approx(8.0 * ewma)

    def test_chaos_requires_multiple_jobs(self):
        from repro.faults import WorkerChaos

        with pytest.raises(ValueError, match="jobs >= 2"):
            ExperimentEngine(chaos=WorkerChaos(seed=0, kill_rate=1.0))


class TestFailureReport:
    def test_report_ranks_by_attempts(self):
        eng = ExperimentEngine(failure_mode="lenient", task_retries=1)
        eng.run([
            TaskSpec("sup-bad-params", {}),  # 1 attempt (non-transient)
            TaskSpec("sup-boom", {}),        # 2 attempts (retried once)
        ])
        report = eng.failure_report()
        assert report["schema"] == "engine-failure-report-v1"
        assert report["healthy"] is False
        kinds = [r["kind"] for r in report["quarantined"]]
        assert kinds == ["sup-boom", "sup-bad-params"]
        assert report["counters"]["quarantined_tasks"] == 2
        assert report["counters"]["task_retries"] == 1
        json.dumps(report)  # must be JSON-serializable as-is

    def test_render_failure_report(self):
        eng = ExperimentEngine(failure_mode="lenient", task_retries=0)
        eng.run([TaskSpec("sup-boom", {})])
        text = render_failure_report(eng.failure_report())
        assert "engine failure report" in text
        assert "sup-boom" in text
        assert "RuntimeError: permanent fault" in text
        empty = render_failure_report(ExperimentEngine().failure_report())
        assert "no quarantined tasks" in empty

    def test_summary_mentions_failures(self):
        eng = ExperimentEngine(failure_mode="lenient", task_retries=0)
        eng.run([TaskSpec("sup-boom", {})])
        s = eng.stats.summary()
        assert "1 failure(s)" in s and "1 quarantined" in s

    def test_failure_events_emitted(self):
        ctx = RunContext.recording()
        eng = ExperimentEngine(telemetry=ctx, failure_mode="lenient",
                               task_retries=1)
        eng.run([TaskSpec("sup-boom", {})])
        failures = ctx.metrics.counter(
            "engine.task_failures_total",
            labels={"kind": "sup-boom", "exc": "RuntimeError"},
        )
        assert failures.value == 2.0
        retries = ctx.metrics.counter("engine.task_retries_total",
                                      labels={"kind": "sup-boom"})
        assert retries.value == 1.0
        quarantined = ctx.metrics.counter("engine.quarantined_tasks_total",
                                          labels={"kind": "sup-boom"})
        assert quarantined.value == 1.0


class TestTaskFailureRecord:
    def test_summary_strings(self):
        base = dict(kind="k", index=3, key="{}", exc_type="RuntimeError",
                    message="boom", traceback="", attempts=2)
        assert "RuntimeError: boom" in TaskFailure(**base).summary()
        crash = TaskFailure(**{**base, "worker_crash": True})
        assert "worker died" in crash.summary()
        timeout = TaskFailure(**{**base, "worker_crash": True,
                                 "timed_out": True})
        assert "deadline expired" in timeout.summary()

    def test_as_dict_round_trips_json(self):
        failure = TaskFailure(kind="k", index=0, key="{}",
                              exc_type="E", message="m", traceback="t",
                              attempts=1, pid=42)
        doc = json.loads(json.dumps(failure.as_dict()))
        assert doc["pid"] == 42 and doc["worker_crash"] is False


class TestCacheIntegrity:
    def _cdf(self, seed):
        from repro.experiments.engine import random_cdf_task

        return random_cdf_task(workload="WC", dataset="D1", n_samples=4,
                               seed=seed)

    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._cdf(seed=3)
        ExperimentEngine(cache=cache).run([task])
        path = cache._path(cache.key_for(task))
        path.write_bytes(b"\x00garbage, neither magic nor pickle\xff")
        eng = ExperimentEngine(cache=ResultCache(tmp_path))
        eng.run([task])
        assert eng.stats.cache_corrupt == 1
        assert eng.cache.corrupt_entries == 1
        quarantined = list((tmp_path / ".quarantine").iterdir())
        assert len(quarantined) == 1
        # The recomputed entry was rewritten in place and now loads.
        assert not ResultCache.is_miss(ResultCache(tmp_path).load(task))

    def test_torn_checksummed_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._cdf(seed=5)
        path = cache.store(task, {"x": 1})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])  # torn write
        assert ResultCache.is_miss(cache.load(task))
        assert cache.corrupt_entries == 1
        assert (tmp_path / ".quarantine").is_dir()

    def test_legacy_plain_pickle_entry_still_loads(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = self._cdf(seed=7)
        path = cache.store(task, 42)
        path.write_bytes(pickle.dumps({
            "salt": cache.salt, "kind": task.kind,
            "payload": task.cache_payload(), "result": 42,
        }))  # pre-checksum on-disk format
        assert cache.load(task) == 42
        assert cache.corrupt_entries == 0

    def test_quarantine_not_counted_by_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = self._cdf(seed=1), self._cdf(seed=2)
        cache.store(a, 1)
        path = cache.store(b, 2)
        path.write_bytes(b"junk")
        assert ResultCache.is_miss(cache.load(b))
        assert len(cache) == 1  # quarantined file no longer counted

    def test_store_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(self._cdf(seed=1), 42)
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []

    def test_magic_prefix_present(self, tmp_path):
        path = ResultCache(tmp_path).store(self._cdf(seed=1), 42)
        assert path.read_bytes().startswith(engine_module._CACHE_MAGIC)
