"""The OtterTune online tuning loop.

Per online step (this is why OtterTune's recommendation time dominates
the DRL tuners' in Figure 7):

1. map the target workload to the most similar repository workload;
2. fit a fresh GP on the mapped workload's data plus all target
   observations so far (target data overrides mapped data at duplicate
   configurations);
3. rank knobs with Lasso and keep the top-k for candidate generation;
4. maximize Expected Improvement over a candidate pool (random samples
   plus perturbations of the incumbent, non-selected knobs pinned);
5. evaluate the winner on the target cluster.
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines.ottertune.ei import expected_improvement
from repro.baselines.ottertune.gp import GaussianProcessRegressor
from repro.baselines.ottertune.lasso import rank_knobs
from repro.baselines.ottertune.mapping import WorkloadRepository
from repro.core.result import OnlineSession, TuningStepRecord
from repro.envs.tuning_env import TuningEnv
from repro.sim.faults import FAILURE_PERF_FACTOR

__all__ = ["OtterTune"]


class OtterTune:
    """GP + EI tuner with Lasso knob selection and workload mapping."""

    def __init__(
        self,
        action_dim: int,
        seed: int | np.random.Generator = 0,
        n_candidates: int = 600,
        top_knobs: int = 16,
        max_train_points: int = 400,
        length_scale: float = 1.4,
        noise_variance: float = 2e-2,
    ):
        if action_dim <= 0:
            raise ValueError("action_dim must be positive")
        if n_candidates <= 0 or top_knobs <= 0 or max_train_points <= 0:
            raise ValueError("invalid OtterTune sizes")
        self.action_dim = action_dim
        self.n_candidates = n_candidates
        self.top_knobs = min(top_knobs, action_dim)
        self.max_train_points = max_train_points
        self.length_scale = length_scale
        self.noise_variance = noise_variance
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self.repository = WorkloadRepository()

    @classmethod
    def from_env(
        cls, env: TuningEnv, seed: int | np.random.Generator = 0, **kwargs
    ) -> "OtterTune":
        return cls(env.action_dim, seed=seed, **kwargs)

    # ------------------------------------------------------------ offline

    def observe_offline(
        self, workload_id: str, config: np.ndarray, metrics: np.ndarray,
        perf: float,
    ) -> None:
        """Add one offline sample to the repository."""
        self.repository.observe(workload_id, config, metrics, perf)

    def collect_offline(
        self, env: TuningEnv, workload_id: str, samples: int
    ) -> None:
        """Gather ``samples`` random evaluations of ``env`` into the
        repository (the paper feeds OtterTune thousands of these)."""
        if samples <= 0:
            raise ValueError("samples must be positive")
        for _ in range(samples):
            action = env.space.sample_vector(self._rng)
            outcome = env.step(action)
            perf = (
                outcome.duration_s
                if outcome.success
                else FAILURE_PERF_FACTOR * env.default_duration
            )
            self.observe_offline(
                workload_id, outcome.action, outcome.next_state, perf
            )

    # ------------------------------------------------------------- online

    def _training_data(
        self,
        target_x: list[np.ndarray],
        target_m: list[np.ndarray],
        target_y: list[float],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mapped-workload data + target data, capped for GP tractability."""
        mapped = self.repository.map_workload(
            np.vstack(target_x) if target_x else np.zeros((0, self.action_dim)),
            np.vstack(target_m) if target_m else np.zeros((0, 1)),
        )
        xs, ys = [], []
        if mapped is not None:
            x, _, y = self.repository.get(mapped).arrays()
            if x.shape[0] > self.max_train_points:
                # Keep the best-performing half and a random half: EI needs
                # both a good incumbent region and global coverage.
                k = self.max_train_points
                order = np.argsort(y)
                keep_best = order[: k // 2]
                rest = order[k // 2 :]
                keep_rand = self._rng.choice(
                    rest, size=k - k // 2, replace=False
                )
                keep = np.concatenate([keep_best, keep_rand])
                x, y = x[keep], y[keep]
            xs.append(x)
            ys.append(y)
        if target_x:
            xs.append(np.vstack(target_x))
            ys.append(np.asarray(target_y))
        if not xs:
            raise RuntimeError(
                "OtterTune has no data: load offline samples first"
            )
        return np.vstack(xs), np.concatenate(ys)

    def _candidates(
        self, incumbent: np.ndarray | None, knob_order: list[int]
    ) -> np.ndarray:
        """Candidate pool: random cube samples plus incumbent perturbations,
        with non-selected knobs pinned to the incumbent (or 0.5)."""
        base = (
            incumbent
            if incumbent is not None
            else np.full(self.action_dim, 0.5)
        )
        selected = np.zeros(self.action_dim, dtype=bool)
        selected[knob_order[: self.top_knobs]] = True

        n_rand = self.n_candidates // 2
        n_local = self.n_candidates - n_rand
        rand = np.tile(base, (n_rand, 1))
        rand[:, selected] = self._rng.uniform(
            0.0, 1.0, size=(n_rand, int(selected.sum()))
        )
        local = np.tile(base, (n_local, 1))
        local[:, selected] = np.clip(
            base[selected]
            + self._rng.normal(0.0, 0.12, size=(n_local, int(selected.sum()))),
            0.0,
            1.0,
        )
        return np.vstack([rand, local])

    def tune_online(
        self,
        env: TuningEnv,
        steps: int = 5,
        time_budget_s: float | None = None,
    ) -> OnlineSession:
        """Run the online tuning phase on ``env``."""
        if steps <= 0:
            raise ValueError("steps must be positive")
        session = OnlineSession(
            tuner="OtterTune",
            workload=env.simulator.workload.code,
            dataset=env.simulator.dataset.label,
            default_duration_s=env.default_duration,
        )
        target_x: list[np.ndarray] = []
        target_m: list[np.ndarray] = []
        target_y: list[float] = []

        for step in range(steps):
            t0 = time.perf_counter()
            x_train, y_train = self._training_data(target_x, target_m, target_y)
            knob_order = rank_knobs(x_train, y_train)
            gp = GaussianProcessRegressor(
                length_scale=self.length_scale,
                noise_variance=self.noise_variance,
            ).fit(x_train, y_train)
            best_idx = int(np.argmin(y_train))
            incumbent = x_train[best_idx]
            candidates = self._candidates(incumbent, knob_order)
            mean, std = gp.predict(candidates, return_std=True)
            ei = expected_improvement(mean, std, float(y_train[best_idx]))
            action = candidates[int(np.argmax(ei))]
            recommendation_s = time.perf_counter() - t0

            outcome = env.step(action)
            perf = (
                outcome.duration_s
                if outcome.success
                else FAILURE_PERF_FACTOR * env.default_duration
            )
            target_x.append(outcome.action)
            target_m.append(outcome.next_state)
            target_y.append(perf)

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
