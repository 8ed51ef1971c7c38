"""Event bus: per-worker streams, merged timeline, engine forwarding."""

import json

import pytest

from repro.experiments.engine import ExperimentEngine, TaskSpec, task_kind
from repro.telemetry import (
    BusWriter,
    MetricsRegistry,
    RunContext,
    merge_timeline,
)
from repro.telemetry.bus import TIMELINE_NAME
from repro.utils.jsonl import read_jsonl


def records_of(path):
    return read_jsonl(path)[0]


@task_kind("bus-probe")
def _bus_probe(*, seed: int, telemetry=None):
    """Tiny deterministic task: emits metrics, events, and one forced
    q-overestimation alert through the injected worker context."""
    if telemetry is not None:
        telemetry.count("probe.runs_total", help="probe executions")
        telemetry.observe("probe.seed", float(seed), help="seed histogram")
        for i in range(5):
            telemetry.diagnostics.observe_step(
                step=i, reward=0.0, success=True, q_pred=5.0
            )
        for alert in telemetry.diagnostics.drain_alerts():
            telemetry.event("alert", **alert.as_event_fields())
        telemetry.event("probe-step", seed=seed)
    return seed * 2


class TestBusWriter:
    def test_envelope_and_monotone_seq(self, tmp_path):
        w = BusWriter(tmp_path, "task-0000")
        w.event("online-step", step=0, reward=0.5)
        w.event("alert", name="reward-plateau", severity="warning")
        w.close()
        records = records_of(tmp_path / "task-0000.jsonl")
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["source"] == "task-0000" for r in records)
        assert records[0]["kind"] == "online-step"
        assert records[0]["reward"] == 0.5
        assert records[0]["ts"] <= records[1]["ts"]

    def test_lenient_reader_skips_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"kind": "a", "ts": 1.0}) + "\n" + '{"kind": "b", ',
            encoding="utf-8",
        )
        assert read_jsonl(path) == ([{"kind": "a", "ts": 1.0}], [2])

    def test_lenient_reader_missing_file(self, tmp_path):
        assert records_of(tmp_path / "none.jsonl") == []


class TestMergeTimeline:
    def test_orders_by_ts_then_source_then_seq(self, tmp_path):
        (tmp_path / "b.jsonl").write_text(
            json.dumps({"kind": "x", "ts": 2.0, "source": "b", "seq": 0})
            + "\n"
            + json.dumps({"kind": "y", "ts": 2.0, "source": "b", "seq": 1})
            + "\n",
            encoding="utf-8",
        )
        (tmp_path / "a.jsonl").write_text(
            json.dumps({"kind": "z", "ts": 2.0, "source": "a", "seq": 0})
            + "\n"
            + json.dumps({"kind": "w", "ts": 1.0, "source": "a", "seq": 1})
            + "\n",
            encoding="utf-8",
        )
        out = merge_timeline(tmp_path)
        assert out.name == TIMELINE_NAME
        merged = records_of(out)
        assert [r["kind"] for r in merged] == ["w", "z", "x", "y"]

    def test_tie_break_is_total(self, tmp_path):
        """Records with identical (ts, source, seq) keys — e.g. a clock
        that never advances and records missing their envelope — must
        keep a stable, deterministic order: file read order."""
        (tmp_path / "a.jsonl").write_text(
            json.dumps({"kind": "first", "ts": 1.0})
            + "\n"
            + json.dumps({"kind": "second", "ts": 1.0})
            + "\n",
            encoding="utf-8",
        )
        merged = records_of(merge_timeline(tmp_path))
        assert [r["kind"] for r in merged] == ["first", "second"]
        # idempotent: re-merging yields the same total order
        remerged = records_of(merge_timeline(tmp_path))
        assert [r["kind"] for r in remerged] == ["first", "second"]

    def test_trace_id_rides_bus_envelope(self, tmp_path):
        w = BusWriter(tmp_path, "task-0000", trace_id="grid42")
        w.event("online-step", step=0)
        w.close()
        plain = BusWriter(tmp_path, "task-0001")
        plain.event("online-step", step=0)
        plain.close()
        tagged = records_of(tmp_path / "task-0000.jsonl")[0]
        bare = records_of(tmp_path / "task-0001.jsonl")[0]
        assert tagged["trace_id"] == "grid42"
        assert "trace_id" not in bare

    def test_remerge_excludes_previous_timeline(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(
            json.dumps({"kind": "x", "ts": 1.0, "source": "a", "seq": 0})
            + "\n",
            encoding="utf-8",
        )
        merge_timeline(tmp_path)
        merged = records_of(merge_timeline(tmp_path))
        assert len(merged) == 1  # not doubled by reading timeline.jsonl


class TestEngineBusForwarding:
    def _tasks(self, n):
        return [
            TaskSpec(kind="bus-probe", params={"seed": i}) for i in range(n)
        ]

    def test_jobs4_merged_timeline_ordered_and_lossless(self, tmp_path):
        bus = tmp_path / "bus"
        ctx = RunContext(metrics=MetricsRegistry())
        engine = ExperimentEngine(jobs=4, telemetry=ctx, bus_dir=bus)
        results = engine.run(self._tasks(8))
        assert results == [i * 2 for i in range(8)]

        # One stream per worker task, plus the merged timeline.
        streams = sorted(p.name for p in bus.glob("task-*.jsonl"))
        assert streams == [f"task-{i:04d}.jsonl" for i in range(8)]
        timeline = records_of(bus / TIMELINE_NAME)

        # Ordered: the merge key is non-decreasing over the file.
        keys = [(r["ts"], r["source"], r["seq"]) for r in timeline]
        assert keys == sorted(keys)

        # Lossless: every source's seq values form a gap-free range and
        # the timeline holds exactly the union of the streams.
        per_source = {}
        for r in timeline:
            per_source.setdefault(r["source"], []).append(r["seq"])
        assert set(per_source) == {f"task-{i:04d}" for i in range(8)}
        for seqs in per_source.values():
            assert sorted(seqs) == list(range(len(seqs)))
        total = sum(
            len(records_of(bus / name)) for name in streams
        )
        assert len(timeline) == total

        # Each worker forwarded its heartbeats and its forced alert.
        kinds = [r["kind"] for r in timeline]
        assert kinds.count("worker-heartbeat") == 16  # start + end per task
        assert kinds.count("metrics-snapshot") == 8
        alerts = [r for r in timeline if r["kind"] == "alert"]
        assert len(alerts) == 8
        assert {a["name"] for a in alerts} == {"q-overestimation"}

        # Cross-process metrics state()/merge(): the parent registry
        # aggregated every worker's counters and pooled histograms.
        dump = ctx.metrics.to_json()
        runs = dump["probe.runs_total"]["series"][0]["value"]
        assert runs == 8
        assert dump["probe.seed"]["series"][0]["count"] == 8

    def test_inline_bus_matches_parallel_semantics(self, tmp_path):
        bus = tmp_path / "bus"
        ctx = RunContext(metrics=MetricsRegistry())
        engine = ExperimentEngine(jobs=1, telemetry=ctx, bus_dir=bus)
        results = engine.run(self._tasks(2))
        assert results == [0, 2]
        timeline = records_of(bus / TIMELINE_NAME)
        assert [r["kind"] for r in timeline].count("alert") == 2
        runs = ctx.metrics.to_json()["probe.runs_total"]["series"][0]["value"]
        assert runs == 2

    def test_bus_off_keeps_legacy_path(self, tmp_path):
        engine = ExperimentEngine(jobs=1)
        assert engine.run(self._tasks(2)) == [0, 2]
        assert not (tmp_path / TIMELINE_NAME).exists()


@pytest.mark.determinism
class TestBusDeterminism:
    def test_bus_mode_never_changes_results(self, tmp_path):
        from repro.experiments.common import clear_model_cache

        spec = TaskSpec(kind="online-session", params={
            "workload": "TS", "dataset": "D1", "tuner": "DeepCAT",
            "seed": 0, "offline_iterations": 40, "ottertune_samples": 10,
            "online_steps": 3, "fault_profile": "none",
            "resilience": False,
        })
        clear_model_cache()
        plain = ExperimentEngine(jobs=1).run([spec])[0]
        clear_model_cache()
        bussed = ExperimentEngine(
            jobs=1, bus_dir=tmp_path / "bus"
        ).run([spec])[0]
        assert len(plain.steps) == len(bussed.steps)
        for a, b in zip(plain.steps, bussed.steps):
            assert a.duration_s == b.duration_s
            assert a.reward == b.reward
            assert a.config == b.config
        # ... and the bus captured the session's step events.
        timeline = records_of(tmp_path / "bus" / TIMELINE_NAME)
        kinds = [r["kind"] for r in timeline]
        assert kinds.count("online-step") == 3
        assert kinds.count("metrics-snapshot") == 1
