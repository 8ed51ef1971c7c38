"""Tests for structured logging and timeline rendering."""

import io
import json

import numpy as np
import pytest

from repro.agents.base import AgentHyperParams
from repro.cluster.hardware import CLUSTER_A
from repro.core.deepcat import DeepCAT
from repro.core.offline import OfflineTrainer
from repro.factory import make_env
from repro.sim.engine import SparkSimulator
from repro.sim.timeline import render_timeline
from repro.telemetry import RunContext
from repro.utils.logging import ConsoleLogger, JsonlLogger, NullLogger
from repro.workloads.registry import get_workload

FAST_HP = AgentHyperParams(batch_size=16, warmup_steps=8, hidden=(16, 16))


class TestLoggers:
    def test_null_logger_swallows(self):
        NullLogger().event("anything", x=1)

    def test_console_logger_throttles_offline_steps(self):
        buf = io.StringIO()
        logger = ConsoleLogger(stream=buf, every=10)
        for i in range(30):
            logger.event("offline-step", iteration=i, reward=0.1)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 3  # every 10th

    def test_console_logger_passes_other_events(self):
        buf = io.StringIO()
        logger = ConsoleLogger(stream=buf, every=100)
        logger.event("online-step", step=0, duration_s=12.5)
        out = buf.getvalue()
        assert "online-step" in out and "duration_s=12.5" in out

    def test_console_invalid_every(self):
        with pytest.raises(ValueError):
            ConsoleLogger(every=0)

    def test_jsonl_logger_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlLogger(path) as logger:
            logger.event("online-step", step=0, reward=0.3)
            logger.event("online-step", step=1, reward=0.5)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == 2
        assert records[1]["kind"] == "online-step"
        assert records[1]["reward"] == 0.5
        assert "ts" in records[0]

    def test_offline_trainer_emits_events(self, tmp_path):
        path = tmp_path / "train.jsonl"
        env = make_env("TS", "D1", seed=0)
        tuner = DeepCAT.from_env(env, seed=0, hp=FAST_HP)
        logger = JsonlLogger(path)
        OfflineTrainer(
            tuner.agent, tuner.buffer, telemetry=RunContext(logger=logger)
        ).train(env, 12)
        logger.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        steps = [r for r in records if r["kind"] == "offline-step"]
        assert len(steps) == 12
        assert steps[-1]["iteration"] == 11
        # The simulator now reports its stage timings through the same
        # logger (sim-stage events), interleaved with the step events.
        assert any(r["kind"] == "sim-stage" for r in records)


class TestTimeline:
    def test_render_successful_run(self, space):
        sim = SparkSimulator(
            get_workload("TS"), "D1", CLUSTER_A,
            np.random.default_rng(0), noise_sigma=0.0,
        )
        result = sim.evaluate(space.defaults())
        out = render_timeline(result)
        assert "partition-map" in out and "sort-reduce" in out
        assert "bound" in out
        assert "executors" in out.splitlines()[0]

    def test_kmeans_shows_cache_misses(self, space):
        sim = SparkSimulator(
            get_workload("KM"), "D1", CLUSTER_A,
            np.random.default_rng(0), noise_sigma=0.0,
        )
        out = render_timeline(sim.evaluate(space.defaults()))
        assert "cache miss" in out

    def test_failed_run_message(self, space):
        sim = SparkSimulator(
            get_workload("TS"), "D1", CLUSTER_A,
            np.random.default_rng(0), noise_sigma=0.0,
        )
        cfg = space.defaults()
        cfg.update({
            "spark.executor.memory": 8192,
            "spark.executor.memoryOverhead": 2048,
            "yarn.scheduler.maximum-allocation-mb": 6144,
        })
        out = render_timeline(sim.evaluate(cfg))
        assert out.startswith("job failed")

    def test_width_validation(self, space):
        sim = SparkSimulator(
            get_workload("TS"), "D1", CLUSTER_A,
            np.random.default_rng(0), noise_sigma=0.0,
        )
        result = sim.evaluate(space.defaults())
        with pytest.raises(ValueError):
            render_timeline(result, width=2)
