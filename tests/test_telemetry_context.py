"""Tests for RunContext plumbing and the run manifest."""

import copy
import json
import pickle

from repro.telemetry import (
    NULL_CONTEXT,
    RunContext,
    RunManifest,
    ensure_context,
)
from repro.telemetry.manifest import describe_hyper_params, git_sha
from repro.telemetry.metrics import NullRegistry
from repro.telemetry.tracing import NullTracer
from repro.utils.logging import JsonlLogger, NullLogger


class TestManifest:
    def test_serialization_roundtrip(self, tmp_path):
        m = RunManifest(kind="offline-train", seed=7, workload="TS",
                        dataset="D1")
        m.record_hyper_params({"batch_size": 16, "gamma": 0.99})
        m.record_cluster({"nodes": 3, "cores": 8})
        m.record_stage("offline-train", iterations=100)
        m.record_wall_clock({"offline.train": {"count": 1, "total_s": 2.5}})
        path = tmp_path / "run.manifest.json"
        m.save(path)

        loaded = RunManifest.load(path)
        assert loaded.kind == "offline-train"
        assert loaded.seed == 7
        assert loaded.workload == "TS"
        assert loaded.run_id == m.run_id
        assert loaded.hyper_parameters["batch_size"] == 16
        assert loaded.cluster["nodes"] == 3
        assert loaded.stages == [
            {"stage": "offline-train", "iterations": 100}
        ]
        assert loaded.wall_clock["offline.train"]["total_s"] == 2.5
        assert loaded.finished_at is not None

    def test_to_dict_fields(self):
        d = RunManifest(seed=3).to_dict()
        for key in ("run_id", "kind", "seed", "git_sha", "python",
                    "platform", "created_at", "hyper_parameters",
                    "wall_clock", "stages"):
            assert key in d
        json.dumps(d)  # must be JSON-safe

    def test_git_sha_in_repo(self):
        sha = git_sha()
        # Running from the repo checkout this is a 40-hex SHA; tolerate
        # None for sdist/venv installs without git.
        if sha is not None:
            assert len(sha) == 40

    def test_describe_hyper_params_handles_shapes(self):
        import numpy as np

        from repro.agents.base import AgentHyperParams

        hp = describe_hyper_params(AgentHyperParams(batch_size=16))
        assert hp["batch_size"] == 16
        assert isinstance(hp["hidden"], list)
        assert describe_hyper_params(None) == {}
        assert describe_hyper_params({"a": np.float64(1.5)}) == {"a": 1.5}
        assert describe_hyper_params(7) == {"value": 7}


class TestRunContext:
    def test_null_context_is_all_null(self):
        assert isinstance(NULL_CONTEXT.tracer, NullTracer)
        assert isinstance(NULL_CONTEXT.metrics, NullRegistry)
        assert isinstance(NULL_CONTEXT.logger, NullLogger)
        assert NULL_CONTEXT.manifest is None
        # All delegates are harmless no-ops.
        with NULL_CONTEXT.span("x"):
            NULL_CONTEXT.count("c")
            NULL_CONTEXT.observe("h", 1.0)
            NULL_CONTEXT.gauge_set("g", 1.0)
            NULL_CONTEXT.event("e", a=1)
        assert NULL_CONTEXT.save() == []

    def test_recording_context_is_live(self):
        ctx = RunContext.recording(seed=5, kind="test")
        with ctx.span("op"):
            ctx.count("hits", tuner="DeepCAT")
            ctx.observe("lat", 0.5)
            ctx.gauge_set("size", 3)
        assert ctx.tracer.roots[0].name == "op"
        assert "hits" in ctx.metrics.names()
        assert ctx.manifest.seed == 5

    def test_save_writes_all_artifacts(self, tmp_path):
        ctx = RunContext.recording(
            trace=tmp_path / "run.jsonl",
            metrics=tmp_path / "run.prom",
            manifest=tmp_path / "run.manifest.json",
            seed=1,
        )
        with ctx.span("op"):
            ctx.count("hits")
        written = ctx.save()
        assert sorted(p.name for p in written) == [
            "run.chrome.json", "run.jsonl", "run.manifest.json", "run.prom",
        ]
        assert "hits 1" in (tmp_path / "run.prom").read_text()
        trace = (tmp_path / "run.jsonl").read_text()
        assert json.loads(trace.splitlines()[0])["name"] == "op"
        chrome = json.loads((tmp_path / "run.chrome.json").read_text())
        assert chrome["traceEvents"][0]["name"] == "op"
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["seed"] == 1
        assert "op" in manifest["wall_clock"]

    def test_metrics_json_extension_selects_json(self, tmp_path):
        ctx = RunContext.recording(metrics=tmp_path / "m.json")
        ctx.count("hits")
        ctx.save()
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["hits"]["series"][0]["value"] == 1.0

    def test_finish_merges_tracer_totals_into_manifest(self):
        ctx = RunContext.recording(seed=0)
        with ctx.span("online.tune"):
            pass
        ctx.finish()
        assert "online.tune" in ctx.manifest.wall_clock
        assert ctx.manifest.finished_at is not None

    def test_context_manager_saves_and_closes_logger(self, tmp_path):
        events = tmp_path / "events.jsonl"
        logger = JsonlLogger(events)
        with RunContext.recording(
            trace=tmp_path / "t.jsonl", logger=logger
        ) as ctx:
            ctx.event("online-step", step=0)
            with ctx.span("x"):
                pass
        assert (tmp_path / "t.jsonl").exists()
        assert json.loads(events.read_text())["kind"] == "online-step"

    def test_copy_and_deepcopy_alias_the_context(self):
        ctx = RunContext.recording()
        assert copy.copy(ctx) is ctx
        assert copy.deepcopy(ctx) is ctx
        # ...including when embedded in a copied object graph.
        holder = {"telemetry": ctx, "data": [1, 2]}
        clone = copy.deepcopy(holder)
        assert clone["telemetry"] is ctx
        assert clone["data"] is not holder["data"]

    def test_pickles_as_the_null_context(self):
        # Telemetry is not run state: a pickled object graph (a
        # checkpoint, a shard's members) carries the null context.
        assert pickle.loads(pickle.dumps(RunContext.recording())) is (
            NULL_CONTEXT
        )
        holder = {"telemetry": RunContext.recording(), "data": [1, 2]}
        clone = pickle.loads(pickle.dumps(holder))
        assert clone["telemetry"] is NULL_CONTEXT
        assert clone["data"] == [1, 2]


class TestEnsureContext:
    def test_none_none_yields_shared_null(self):
        assert ensure_context(None) is NULL_CONTEXT

    def test_context_passes_through(self):
        ctx = RunContext.recording()
        assert ensure_context(ctx) is ctx
