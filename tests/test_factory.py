"""Tests for the top-level factory and package exports."""

import numpy as np
import pytest

import repro
from repro.cluster.hardware import CLUSTER_B
from repro.factory import EXPECTED_SPEEDUPS, make_env


class TestMakeEnv:
    def test_defaults(self):
        env = make_env("TS")
        assert env.simulator.dataset.label == "D1"
        assert env.cluster.name == "cluster-a"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            make_env("NOPE")

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_env("TS", "D9")

    def test_cluster_b(self):
        env = make_env("WC", cluster=CLUSTER_B)
        assert env.cluster is CLUSTER_B

    def test_generator_seed_accepted(self):
        rng = np.random.default_rng(5)
        env = make_env("TS", seed=rng)
        assert env.default_duration > 0

    def test_expected_speedup_override(self):
        env = make_env("TS", expected_speedup=2.5)
        assert env.reward_fn.expected_speedup == 2.5

    def test_extended_workload_fallback_speedup(self):
        env = make_env("AGG")
        assert env.reward_fn.expected_speedup == 2.0  # not in the table

    def test_expected_speedups_cover_paper_workloads(self):
        assert set(EXPECTED_SPEEDUPS) == {"WC", "TS", "PR", "KM"}


class TestTopLevelExports:
    def test_public_api_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quick_workflow(self):
        env = repro.make_env("WC", "D1", seed=0)
        tuner = repro.DeepCAT.from_env(env, seed=0)
        assert tuner.agent.action_dim == 32
