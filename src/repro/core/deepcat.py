"""DeepCAT — cost-efficient online configuration auto-tuning (the paper's
primary contribution).

Composition (Figure 1):

* **Agent**: TD3 (twin critics mitigate DDPG's value overestimation).
* **Replay**: RDPER — reward-threshold dual pools with a guaranteed
  high-reward batch fraction β (0.6 per Figure 11).
* **Online**: Twin-Q Optimizer screens every recommendation against
  ``Q_th`` (0.3 per Figure 12) before paying for a real evaluation.

Ablation flags reproduce the paper's §5.1 experiments: ``use_rdper=False``
trains with conventional uniform replay (Figure 4), ``use_twin_q=False``
disables the optimizer during online tuning (Figure 5).
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import AgentHyperParams
from repro.agents.td3 import TD3Agent
from repro.core.offline import OfflineTrainer, OfflineTrainingLog
from repro.core.online import OnlineTuner
from repro.core.result import OnlineSession
from repro.envs.tuning_env import TuningEnv
from repro.replay.rdper import RewardDrivenReplayBuffer
from repro.replay.uniform import UniformReplayBuffer

__all__ = ["DeepCAT"]


class DeepCAT:
    """The DeepCAT tuner.

    Parameters
    ----------
    state_dim, action_dim:
        Environment dimensions (9 load-average features, 32 parameters).
    seed:
        Seed (or generator) for all of the tuner's stochastic parts.
    hp:
        Agent hyper-parameters; defaults follow
        :class:`~repro.agents.base.AgentHyperParams`.
    reward_threshold:
        RDPER's ``R_th`` splitting high- from low-reward transitions.
    beta:
        RDPER's high-reward batch fraction (paper: 0.6).
    q_threshold:
        Twin-Q Optimizer's ``Q_th``.  The paper picks 0.3 on its own
        critics' Q scale; the analogous sweep on this implementation
        (Figure 12 bench) puts the cost/quality sweet spot at 0.4 —
        one notch below the best-config-but-expensive 0.5, exactly
        the selection rule of §5.4.2.
    use_rdper, use_twin_q:
        Ablation switches for Figures 4 and 5.
    buffer_capacity:
        Total replay capacity across both pools.
    """

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        seed: int | np.random.Generator = 0,
        hp: AgentHyperParams | None = None,
        reward_threshold: float = 0.3,
        beta: float = 0.6,
        q_threshold: float = 0.4,
        twinq_noise_sigma: float = 0.1,
        use_rdper: bool = True,
        use_twin_q: bool = True,
        buffer_capacity: int = 20_000,
    ):
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        agent_rng, buffer_rng, online_rng = rng.spawn(3)
        self.hp = hp if hp is not None else AgentHyperParams()
        self.agent = TD3Agent(state_dim, action_dim, agent_rng, self.hp)
        self.use_rdper = use_rdper
        self.use_twin_q = use_twin_q
        self.reward_threshold = reward_threshold
        self.beta = beta
        self.q_threshold = q_threshold
        self.twinq_noise_sigma = twinq_noise_sigma
        if use_rdper:
            self.buffer = RewardDrivenReplayBuffer(
                buffer_capacity,
                state_dim,
                action_dim,
                buffer_rng,
                reward_threshold=reward_threshold,
                beta=beta,
            )
        else:
            self.buffer = UniformReplayBuffer(
                buffer_capacity, state_dim, action_dim, buffer_rng
            )
        self._online_rng = online_rng
        self.offline_log: OfflineTrainingLog | None = None

    # ------------------------------------------------------------ factory

    @classmethod
    def from_env(
        cls, env: TuningEnv, seed: int | np.random.Generator = 0, **kwargs
    ) -> "DeepCAT":
        """Construct a tuner sized for ``env``."""
        return cls(env.state_dim, env.action_dim, seed=seed, **kwargs)

    # ------------------------------------------------------------- stages

    def train_offline(
        self, env: TuningEnv, iterations: int, updates_per_step: int = 1,
        callback=None, telemetry=None,
    ) -> OfflineTrainingLog:
        """Offline training stage: trial-and-error on the standard
        environment.  Trained once; reused for every tuning request.

        ``telemetry`` (a :class:`~repro.telemetry.context.RunContext`)
        records spans, metrics, and run provenance for the stage.
        """
        self._record_provenance(telemetry, env)
        trainer = OfflineTrainer(
            self.agent, self.buffer, updates_per_step=updates_per_step,
            telemetry=telemetry,
        )
        self.offline_log = trainer.train(env, iterations, callback=callback)
        return self.offline_log

    def tune_online(
        self,
        env: TuningEnv,
        steps: int = 5,
        time_budget_s: float | None = None,
        fine_tune_updates: int = 2,
        exploration_sigma: float = 0.3,
        telemetry=None,
        resilience=None,
        session: OnlineSession | None = None,
        start_step: int = 0,
        checkpoint=None,
    ) -> OnlineSession:
        """Online tuning stage for a new request on ``env``.

        ``resilience`` (a :class:`~repro.core.resilience.ResiliencePolicy`)
        enables retry/backoff, the evaluation watchdog, and the safety
        guard.  ``session``/``start_step``/``checkpoint`` resume and
        snapshot crash-recoverable sessions — see
        :meth:`~repro.core.online.OnlineTuner.tune` and
        :class:`~repro.core.persistence.PopulationCheckpointManager`,
        which checkpoints a session as a population of one.
        """
        tuner = self.online_tuner(
            env,
            fine_tune_updates=fine_tune_updates,
            exploration_sigma=exploration_sigma,
            telemetry=telemetry,
        )
        return tuner.tune(
            env,
            steps=steps,
            time_budget_s=time_budget_s,
            session=session,
            start_step=start_step,
            resilience=resilience,
            checkpoint=checkpoint,
        )

    def online_tuner(
        self,
        env: TuningEnv,
        *,
        fine_tune_updates: int = 2,
        exploration_sigma: float = 0.3,
        telemetry=None,
    ) -> OnlineTuner:
        """The :class:`OnlineTuner` serving one request on ``env``.

        Shares this tuner's agent, buffer and online RNG stream, so a
        session is the same whether :meth:`tune_online` or a
        :class:`~repro.core.population.PopulationTuner` runs it.
        """
        self._record_provenance(telemetry, env)
        return OnlineTuner(
            self.agent,
            self.buffer,
            name="DeepCAT" if self.use_twin_q else "DeepCAT-noTwinQ",
            use_twin_q=self.use_twin_q,
            q_threshold=self.q_threshold,
            twinq_noise_sigma=self.twinq_noise_sigma,
            fine_tune_updates=fine_tune_updates,
            exploration_sigma=exploration_sigma,
            rng=self._online_rng,
            telemetry=telemetry,
        )

    def _record_provenance(self, telemetry, env: TuningEnv) -> None:
        """Stamp tuner configuration + cluster spec into the manifest."""
        if telemetry is None or telemetry.manifest is None:
            return
        manifest = telemetry.manifest
        manifest.record_hyper_params(self.hp)
        manifest.record_hyper_params(
            {
                "reward_threshold": self.reward_threshold,
                "beta": self.beta,
                "q_threshold": self.q_threshold,
                "twinq_noise_sigma": self.twinq_noise_sigma,
                "use_rdper": self.use_rdper,
                "use_twin_q": self.use_twin_q,
            }
        )
        manifest.record_cluster(env.cluster)
        if manifest.workload is None:
            manifest.workload = env.runner.workload.code
            manifest.dataset = env.runner.dataset.label
