"""Random search baseline.

The simplest search-based tuner: evaluate uniform random configurations
and keep the best.  The paper omits search-based methods from its plots
(they "need a large number of time-consuming configuration evaluation"),
but they are the natural sanity floor for any learned tuner.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import OnlineSession, TuningStepRecord
from repro.envs.tuning_env import TuningEnv

__all__ = ["RandomSearchTuner"]


class RandomSearchTuner:
    """Uniform random sampling of the configuration cube."""

    def __init__(self, seed: int | np.random.Generator = 0):
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )

    def tune_online(
        self,
        env: TuningEnv,
        steps: int = 5,
        time_budget_s: float | None = None,
    ) -> OnlineSession:
        if steps <= 0:
            raise ValueError("steps must be positive")
        session = OnlineSession(
            tuner="RandomSearch",
            workload=env.simulator.workload.code,
            dataset=env.simulator.dataset.label,
            default_duration_s=env.default_duration,
        )
        if time_budget_s is None:
            # Every action is independent of the outcomes, so draw them
            # all at once and run the simulator's batched fast path.
            # Bit-identical to the sequential loop: sample_vectors fills
            # row-major off the same stream as per-step sample_vector
            # calls, and step_batch reproduces step's RNG schedule.
            t0 = time.perf_counter()
            actions = env.space.sample_vectors(self._rng, steps)
            recommendation_s = (time.perf_counter() - t0) / steps
            for step, outcome in enumerate(env.step_batch(actions)):
                session.add(
                    TuningStepRecord(
                        step=step,
                        duration_s=outcome.duration_s,
                        recommendation_s=recommendation_s,
                        reward=outcome.reward,
                        success=outcome.success,
                        config=outcome.config,
                        action=outcome.action,
                    )
                )
            return session
        for step in range(steps):
            t0 = time.perf_counter()
            action = env.space.sample_vector(self._rng)
            recommendation_s = time.perf_counter() - t0
            outcome = env.step(action)
            session.add(
                TuningStepRecord(
                    step=step,
                    duration_s=outcome.duration_s,
                    recommendation_s=recommendation_s,
                    reward=outcome.reward,
                    success=outcome.success,
                    config=outcome.config,
                    action=outcome.action,
                )
            )
            if session.total_tuning_seconds >= time_budget_s:
                break
        return session
