"""Cold-start Bayesian optimization baseline.

The paper's related work (§6) covers search-based BO tuners (CherryPick,
Lynceus, ResTune) that need no offline model: they fit a surrogate on
the target's own observations only, starting from scratch for every
request.  This baseline reuses OtterTune's GP/EI machinery without the
repository and workload mapping, bootstrapping from a small Latin-
hypercube design — the canonical "BO from nothing" the DRL approaches
are argued to beat at small online budgets.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.ottertune.ei import expected_improvement
from repro.baselines.ottertune.gp import GaussianProcessRegressor
from repro.core.result import OnlineSession, TuningStepRecord
from repro.envs.tuning_env import TuningEnv
from repro.sim.faults import FAILURE_PERF_FACTOR

__all__ = ["BayesOptTuner"]


class BayesOptTuner:
    """GP + Expected Improvement over the target's own observations."""

    def __init__(
        self,
        action_dim: int,
        seed: int | np.random.Generator = 0,
        init_design: int = 3,
        n_candidates: int = 500,
        length_scale: float = 1.4,
        noise_variance: float = 2e-2,
    ):
        if action_dim <= 0:
            raise ValueError("action_dim must be positive")
        if init_design < 1 or n_candidates < 1:
            raise ValueError("invalid BO sizes")
        self.action_dim = action_dim
        self.init_design = init_design
        self.n_candidates = n_candidates
        self.length_scale = length_scale
        self.noise_variance = noise_variance
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )

    @classmethod
    def from_env(cls, env: TuningEnv, seed=0, **kwargs) -> "BayesOptTuner":
        return cls(env.action_dim, seed=seed, **kwargs)

    def tune_online(
        self,
        env: TuningEnv,
        steps: int = 5,
        time_budget_s: float | None = None,
    ) -> OnlineSession:
        """Run BO for ``steps`` evaluations (design points included)."""
        if steps <= 0:
            raise ValueError("steps must be positive")
        session = OnlineSession(
            tuner="BayesOpt",
            workload=env.simulator.workload.code,
            dataset=env.simulator.dataset.label,
            default_duration_s=env.default_duration,
        )
        design = env.space.latin_hypercube(
            self._rng, min(self.init_design, steps)
        )
        xs: list[np.ndarray] = []
        ys: list[float] = []

        for step in range(steps):
            t0 = time.perf_counter()
            if step < design.shape[0]:
                action = design[step]
            else:
                gp = GaussianProcessRegressor(
                    length_scale=self.length_scale,
                    noise_variance=self.noise_variance,
                ).fit(np.vstack(xs), np.asarray(ys))
                best_idx = int(np.argmin(ys))
                incumbent = xs[best_idx]
                n_local = self.n_candidates // 2
                candidates = np.vstack(
                    [
                        self._rng.uniform(
                            0, 1,
                            (self.n_candidates - n_local, self.action_dim),
                        ),
                        np.clip(
                            incumbent
                            + self._rng.normal(
                                0.0, 0.1, (n_local, self.action_dim)
                            ),
                            0.0,
                            1.0,
                        ),
                    ]
                )
                mean, std = gp.predict(candidates, return_std=True)
                ei = expected_improvement(mean, std, float(ys[best_idx]))
                action = candidates[int(np.argmax(ei))]
            recommendation_s = time.perf_counter() - t0

            outcome = env.step(action)
            perf = (
                outcome.duration_s
                if outcome.success
                else FAILURE_PERF_FACTOR * env.default_duration
            )
            xs.append(outcome.action)
            ys.append(perf)
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
            if (
                time_budget_s is not None
                and session.total_tuning_seconds >= time_budget_s
            ):
                break
        return session
