"""BestConfig-style search baseline (Zhu et al., SoCC 2017).

Divide-and-diverge sampling plus recursive bound-and-search: the space is
covered with a Latin-hypercube sample; the best point found bounds a
shrinking hyper-rectangle that is re-sampled each round.  Restarts from
scratch for every tuning request — the paper's stated reason search-based
approaches are unsuited to online tuning.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import OnlineSession, TuningStepRecord
from repro.envs.tuning_env import TuningEnv

__all__ = ["BestConfigTuner"]


class BestConfigTuner:
    """Divide-and-diverge sampling + recursive bound-and-search."""

    def __init__(
        self,
        seed: int | np.random.Generator = 0,
        rounds_per_shrink: int = 5,
        shrink_factor: float = 0.5,
    ):
        if not 0.0 < shrink_factor < 1.0:
            raise ValueError("shrink_factor must be in (0,1)")
        if rounds_per_shrink <= 0:
            raise ValueError("rounds_per_shrink must be positive")
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.rounds_per_shrink = rounds_per_shrink
        self.shrink_factor = shrink_factor

    def tune_online(
        self,
        env: TuningEnv,
        steps: int = 5,
        time_budget_s: float | None = None,
    ) -> OnlineSession:
        if steps <= 0:
            raise ValueError("steps must be positive")
        session = OnlineSession(
            tuner="BestConfig",
            workload=env.simulator.workload.code,
            dataset=env.simulator.dataset.label,
            default_duration_s=env.default_duration,
        )
        dim = env.action_dim
        lo = np.zeros(dim)
        hi = np.ones(dim)
        best_action: np.ndarray | None = None
        best_perf = float("inf")
        # Pre-draw a Latin hypercube covering the first search round.
        lhs = env.space.latin_hypercube(self._rng, self.rounds_per_shrink)
        lhs_used = 0

        if time_budget_s is None:
            # The search box only moves at round boundaries, so a whole
            # round of candidates is known upfront — evaluate each round
            # through the simulator's batched fast path.  Bit-identical
            # to the sequential loop: the units consume self._rng in the
            # same order, and step_batch reproduces step's RNG schedule.
            step = 0
            while step < steps:
                n_round = min(self.rounds_per_shrink, steps - step)
                t0 = time.perf_counter()
                units = np.empty((n_round, dim))
                for j in range(n_round):
                    if lhs_used < lhs.shape[0]:
                        units[j] = lhs[lhs_used]
                        lhs_used += 1
                    else:
                        units[j] = self._rng.uniform(0.0, 1.0, size=dim)
                actions = lo + units * (hi - lo)
                recommendation_s = (time.perf_counter() - t0) / n_round
                for j, outcome in enumerate(env.step_batch(actions)):
                    if outcome.success and outcome.duration_s < best_perf:
                        best_perf = outcome.duration_s
                        best_action = outcome.action
                    session.add(
                        TuningStepRecord(
                            step=step + j,
                            duration_s=outcome.duration_s,
                            recommendation_s=recommendation_s,
                            reward=outcome.reward,
                            success=outcome.success,
                            config=outcome.config,
                            action=outcome.action,
                        )
                    )
                step += n_round
                if (
                    step % self.rounds_per_shrink == 0
                    and best_action is not None
                ):
                    width = (hi - lo) * self.shrink_factor / 2.0
                    lo = np.clip(best_action - width, 0.0, 1.0)
                    hi = np.clip(best_action + width, 0.0, 1.0)
                    lhs = lo + env.space.latin_hypercube(
                        self._rng, self.rounds_per_shrink
                    ) * (hi - lo)
                    lhs_used = 0
            return session

        for step in range(steps):
            t0 = time.perf_counter()
            if lhs_used < lhs.shape[0]:
                unit = lhs[lhs_used]
                lhs_used += 1
            else:
                unit = self._rng.uniform(0.0, 1.0, size=dim)
            action = lo + unit * (hi - lo)
            recommendation_s = time.perf_counter() - t0

            outcome = env.step(action)
            if outcome.success and outcome.duration_s < best_perf:
                best_perf = outcome.duration_s
                best_action = outcome.action
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
            # Bound-and-search: after each sampling round, shrink the box
            # around the incumbent and re-diverge.
            if (step + 1) % self.rounds_per_shrink == 0 and best_action is not None:
                width = (hi - lo) * self.shrink_factor / 2.0
                lo = np.clip(best_action - width, 0.0, 1.0)
                hi = np.clip(best_action + width, 0.0, 1.0)
                lhs = lo + env.space.latin_hypercube(
                    self._rng, self.rounds_per_shrink
                ) * (hi - lo)
                lhs_used = 0
            if session.total_tuning_seconds >= time_budget_s:
                break
        return session
