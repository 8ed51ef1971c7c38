"""DeepCAT — cost-efficient online configuration auto-tuning (the paper's
primary contribution).

Composition (Figure 1):

* **Agent**: TD3 (twin critics mitigate DDPG's value overestimation).
* **Replay**: RDPER — reward-threshold dual pools with a guaranteed
  high-reward batch fraction β (0.6 per Figure 11).
* **Online**: Twin-Q Optimizer screens every recommendation against
  ``Q_th`` (0.3 per Figure 12) before paying for a real evaluation.

Those are DeepCAT's three deltas over CDBTune (DDPG, TD-error PER, no
screen), so both tuners run Figure 1's offline and online stages
through one base, :class:`DRLTuner`; each is a constructor and a name.

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

__all__ = ["DRLTuner", "DeepCAT"]


class DRLTuner:
    """Figure 1's offline and online stages for an actor-critic tuner.

    A subclass's constructor passes :meth:`__init__` its agent and replay
    buffer as factories, and the values of its :attr:`SETTINGS`; the
    class gives its sessions' ``name``.
    """

    #: constructor settings beyond the dimensions, ``seed``, ``hp`` and
    #: ``buffer_capacity``.  The run manifest records them, a model
    #: archive's ``__meta__`` lists them in this order, and
    #: :func:`~repro.core.persistence.load_tuner` passes them back.
    SETTINGS: tuple[str, ...] = ()
    #: whether online recommendations pass the Twin-Q Optimizer (with
    #: ``q_threshold`` and ``twinq_noise_sigma``); it needs twin critics
    use_twin_q = False
    #: the tuner named in its sessions
    name: str

    def __init__(self, seed: int | np.random.Generator,
                 hp: AgentHyperParams | None, agent, buffer, **settings):
        """``agent(rng, hp)`` and ``buffer(rng)`` build the agent and the
        replay from the first two generators spawned from ``seed``; the
        third drives the online stage's exploration and screening."""
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        agent_rng, buffer_rng, online_rng = rng.spawn(3)
        # The attribute order fixes a pickled tuner's bytes, and with
        # them a checkpoint's: keep it.
        self.hp = hp if hp is not None else AgentHyperParams()
        self.agent = agent(agent_rng, self.hp)
        for setting in self.SETTINGS:
            setattr(self, setting, settings[setting])
        self.buffer = buffer(buffer_rng)
        self._online_rng = online_rng
        self.offline_log: OfflineTrainingLog | None = None

    # ------------------------------------------------------------ factory

    @classmethod
    def from_env(
        cls, env: TuningEnv, seed: int | np.random.Generator = 0, **kwargs
    ) -> "DRLTuner":
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
        checkpoint=None,
    ) -> OnlineSession:
        """Online tuning stage for a new request on ``env``.

        ``resilience`` (a :class:`~repro.core.resilience.ResiliencePolicy`)
        enables retry/backoff, the evaluation watchdog, and the safety
        guard.  ``session``/``checkpoint`` resume and snapshot
        crash-recoverable sessions — see
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
        screen = (
            {"use_twin_q": True, "q_threshold": self.q_threshold,
             "twinq_noise_sigma": self.twinq_noise_sigma}
            if self.use_twin_q
            else {}
        )
        return OnlineTuner(
            self.agent,
            self.buffer,
            name=self.name,
            fine_tune_updates=fine_tune_updates,
            exploration_sigma=exploration_sigma,
            rng=self._online_rng,
            telemetry=telemetry,
            **screen,
        )

    def _record_provenance(self, telemetry, env: TuningEnv) -> None:
        """Stamp tuner configuration + cluster spec into the manifest."""
        if telemetry is None or telemetry.manifest is None:
            return
        manifest = telemetry.manifest
        manifest.record_hyper_params(self.hp)
        manifest.record_hyper_params(
            {setting: getattr(self, setting) for setting in self.SETTINGS}
        )
        manifest.record_cluster(env.cluster)
        if manifest.workload is None:
            manifest.workload = env.simulator.workload.code
            manifest.dataset = env.simulator.dataset.label


class DeepCAT(DRLTuner):
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

    SETTINGS = (
        "use_rdper", "use_twin_q", "reward_threshold", "beta",
        "q_threshold", "twinq_noise_sigma",
    )

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
        def buffer(rng):
            if use_rdper:
                return RewardDrivenReplayBuffer(
                    buffer_capacity, state_dim, action_dim, rng,
                    reward_threshold=reward_threshold, beta=beta,
                )
            return UniformReplayBuffer(
                buffer_capacity, state_dim, action_dim, rng
            )

        super().__init__(
            seed, hp,
            lambda rng, hp: TD3Agent(state_dim, action_dim, rng, hp),
            buffer,
            use_rdper=use_rdper, use_twin_q=use_twin_q,
            reward_threshold=reward_threshold, beta=beta,
            q_threshold=q_threshold, twinq_noise_sigma=twinq_noise_sigma,
        )

    @property
    def name(self) -> str:
        return "DeepCAT" if self.use_twin_q else "DeepCAT-noTwinQ"
