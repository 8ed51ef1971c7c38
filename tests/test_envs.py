"""Tests for the reward function and the tuning environment."""

import pickle

import numpy as np
import pytest

from repro.envs.reward import RewardFunction
from repro.factory import EXPECTED_SPEEDUPS, make_env
from repro.sim.faults import FAILURE_PERF_FACTOR


class TestRewardFunction:
    def test_eq1_shape(self):
        r = RewardFunction(default_perf=100.0, expected_speedup=2.0)
        # perf_e = 50
        assert r.perf_e == 50.0
        assert r(50.0) == pytest.approx(0.0)
        assert r(25.0) == pytest.approx(0.5)
        assert r(100.0) == pytest.approx(-1.0)

    def test_reward_monotone_decreasing_in_time(self):
        r = RewardFunction(100.0, 2.0)
        assert r(30.0) > r(40.0) > r(90.0)

    def test_failure_charged_at_penalty(self):
        r = RewardFunction(100.0, 2.0)
        assert r(10.0, success=False) == r(
            FAILURE_PERF_FACTOR * 100.0, success=True
        )

    def test_perf_from_reward_inverse(self):
        r = RewardFunction(100.0, 2.5)
        for perf in [20.0, 40.0, 77.0]:
            assert r.perf_from_reward(r(perf)) == pytest.approx(perf)

    def test_invalid(self):
        with pytest.raises(ValueError):
            RewardFunction(0.0, 2.0)
        with pytest.raises(ValueError):
            RewardFunction(10.0, 0.0)
        with pytest.raises(ValueError):
            RewardFunction(10.0, 2.0)(0.0)


class TestTuningEnv:
    def test_dimensions(self):
        env = make_env("TS", "D1", seed=0)
        assert env.state_dim == 9
        assert env.action_dim == 32
        assert env.state.shape == (9,)

    def test_expected_speedups_used(self):
        env = make_env("KM", "D1", seed=0)
        assert env.reward_fn.expected_speedup == EXPECTED_SPEEDUPS["KM"]

    def test_step_outcome_fields(self):
        env = make_env("TS", "D1", seed=0)
        out = env.step(env.space.default_vector())
        assert out.success
        assert out.duration_s > 0
        assert out.state.shape == (9,)
        assert out.next_state.shape == (9,)
        assert set(out.config) == set(env.space.names)
        # default config at perf ~= default duration: reward well below 0
        assert out.reward < 0

    def test_action_clipped(self):
        env = make_env("TS", "D1", seed=0)
        out = env.step(np.full(32, 5.0))
        assert np.all(out.action <= 1.0)

    def test_accounting(self):
        env = make_env("TS", "D1", seed=0)
        env.step(env.space.default_vector())
        env.step(env.space.default_vector())
        assert env.steps_taken == 2
        assert env.total_evaluation_seconds > 0

    def test_reset_restores_idle_state(self):
        env = make_env("TS", "D1", seed=0)
        good = env.space.default_vector()
        env.step(good)
        s = env.reset()
        assert np.all(s < 0.3)

    def test_good_config_positive_reward(self):
        env = make_env("KM", "D1", seed=0)
        cfg = env.space.defaults()
        cfg.update(
            {
                "spark.executor.cores": 5,
                "spark.executor.memory": 6144,
                "spark.executor.memoryOverhead": 512,
                "spark.executor.instances": 6,
                "spark.memory.storageFraction": 0.6,
                "spark.serializer": "kryo",
                "yarn.nodemanager.resource.memory-mb": 14336,
                "yarn.nodemanager.resource.cpu-vcores": 16,
                "yarn.scheduler.maximum-allocation-mb": 14336,
                "yarn.scheduler.maximum-allocation-vcores": 16,
            }
        )
        out = env.step(env.space.encode(cfg))
        assert out.success
        assert out.reward > 0

    def test_failure_reward_strongly_negative(self):
        env = make_env("TS", "D1", seed=0)
        cfg = env.space.defaults()
        cfg["spark.executor.memory"] = 8192
        cfg["spark.executor.memoryOverhead"] = 2048
        cfg["yarn.scheduler.maximum-allocation-mb"] = 6144
        out = env.step(env.space.encode(cfg))
        assert not out.success
        assert out.reward < -1.0

    def test_pickle_does_not_grow_with_steps(self):
        """Every checkpoint member pickles its environment, which holds
        seeded state but no record of the runs it evaluated."""
        env = make_env("KM", "D1", seed=0, fault_profile="flaky")
        rng = np.random.default_rng(0)
        env.step(rng.uniform(size=env.action_dim))
        after_one = len(pickle.dumps(env))
        for _ in range(99):
            env.step(rng.uniform(size=env.action_dim))
        assert len(pickle.dumps(env)) < after_one + 512

    def test_deterministic_given_seed(self):
        a = make_env("TS", "D1", seed=5)
        b = make_env("TS", "D1", seed=5)
        va = a.step(a.space.default_vector())
        vb = b.step(b.space.default_vector())
        assert va.duration_s == vb.duration_s
        np.testing.assert_array_equal(va.next_state, vb.next_state)
