"""Twin Delayed DDPG (Fujimoto et al. 2018) — DeepCAT's agent (§3.2).

Three mechanisms over DDPG:

* **clipped double-Q**: two critics, the target uses min(Q1', Q2'),
  offsetting value overestimation;
* **target policy smoothing**: clipped Gaussian noise on the target
  action regularizes the value estimate;
* **delayed policy updates**: the actor (and targets) update every
  ``policy_delay`` critic updates.

The twin critics double as the Twin-Q Optimizer's estimator during
online tuning (:mod:`repro.core.twinq`).
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import (
    AgentHyperParams,
    build_actor,
    build_critic,
    critic_input,
)
from repro.nn.noise import GaussianNoise
from repro.nn.optim import Adam
from repro.nn.target import hard_update, soft_update
from repro.replay.base import ReplayBatch

__all__ = ["TD3Agent"]


class TD3Agent:
    """TD3 with twin critics exposed for Q-based action screening."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        hp: AgentHyperParams | None = None,
    ):
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state/action dims must be positive")
        self.hp = hp if hp is not None else AgentHyperParams()
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._rng = rng

        net_rng, noise_rng, smooth_rng = rng.spawn(3)
        self.actor = build_actor(state_dim, action_dim, self.hp.hidden, net_rng)
        self.actor_target = build_actor(
            state_dim, action_dim, self.hp.hidden, net_rng
        )
        self.critic1 = build_critic(state_dim, action_dim, self.hp.hidden, net_rng)
        self.critic2 = build_critic(state_dim, action_dim, self.hp.hidden, net_rng)
        self.critic1_target = build_critic(
            state_dim, action_dim, self.hp.hidden, net_rng
        )
        self.critic2_target = build_critic(
            state_dim, action_dim, self.hp.hidden, net_rng
        )
        hard_update(self.actor_target, self.actor)
        hard_update(self.critic1_target, self.critic1)
        hard_update(self.critic2_target, self.critic2)

        self.actor_opt = Adam(self.actor.parameters(), lr=self.hp.actor_lr,
                              max_grad_norm=5.0)
        self.critic1_opt = Adam(self.critic1.parameters(),
                                lr=self.hp.critic_lr, max_grad_norm=5.0)
        self.critic2_opt = Adam(self.critic2.parameters(),
                                lr=self.hp.critic_lr, max_grad_norm=5.0)
        self.noise = GaussianNoise(
            action_dim,
            sigma=self.hp.exploration_sigma,
            rng=noise_rng,
            sigma_min=self.hp.exploration_sigma_min,
            decay=self.hp.exploration_decay,
        )
        self._smooth_rng = smooth_rng
        self.updates_done = 0
        from repro.telemetry.context import NULL_CONTEXT

        #: RunContext set by the trainer/tuner; null by default
        self.telemetry = NULL_CONTEXT

    # ------------------------------------------------------------- acting

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        action = self.actor.forward(state[None, :], cache=False)[0]
        if explore:
            action = action + self.noise.sample()
        return np.clip(action, 0.0, 1.0)

    def random_action(self) -> np.ndarray:
        return self._rng.uniform(0.0, 1.0, size=self.action_dim)

    # ------------------------------------------------------------ learning

    def _target_q(self, batch: ReplayBatch) -> np.ndarray:
        """Clipped double-Q target with smoothed target actions."""
        next_actions = self.actor_target.forward(batch.next_states, cache=False)
        smoothing = np.clip(
            self._smooth_rng.normal(
                0.0, self.hp.target_noise_sigma, size=next_actions.shape
            ),
            -self.hp.target_noise_clip,
            self.hp.target_noise_clip,
        )
        next_actions = np.clip(next_actions + smoothing, 0.0, 1.0)
        x = critic_input(batch.next_states, next_actions)
        q1 = self.critic1_target.forward(x, cache=False)
        q2 = self.critic2_target.forward(x, cache=False)
        return batch.rewards + self.hp.gamma * np.minimum(q1, q2)

    def update(self, batch: ReplayBatch) -> dict[str, float]:
        """One TD3 update; the actor moves every ``policy_delay`` calls."""
        m = len(batch)
        y = self._target_q(batch)
        x = critic_input(batch.states, batch.actions)
        weights = batch.weights if batch.weights is not None else 1.0

        self.critic1.zero_grad()
        q1 = self.critic1.forward(x)
        td1 = q1 - y
        self.critic1.backward((2.0 / m) * weights * td1, input_grad=False)
        self.critic1_opt.step()

        self.critic2.zero_grad()
        q2 = self.critic2.forward(x)
        td2 = q2 - y
        self.critic2.backward((2.0 / m) * weights * td2, input_grad=False)
        self.critic2_opt.step()

        critic_loss = float(np.mean(weights * (td1**2 + td2**2)) / 2.0)
        self.updates_done += 1
        diag = {
            "critic_loss": critic_loss,
            "mean_q": float(np.mean(np.minimum(q1, q2))),
            "td_errors": np.minimum(np.abs(td1), np.abs(td2)).ravel(),
            "actor_updated": False,
        }

        if self.updates_done % self.hp.policy_delay == 0:
            self.actor.zero_grad()
            actions = self.actor.forward(batch.states)
            q_pi = self.critic1.forward(critic_input(batch.states, actions))
            # Route dQ/da through critic1 without its parameter
            # gradients; the actor's own input gradient is never read.
            grad_in = self.critic1.backward(
                np.full_like(q_pi, -1.0 / m), params=False
            )
            self.actor.backward(grad_in[:, self.state_dim :], input_grad=False)
            self.actor_opt.step()
            self.critic1.zero_grad()

            soft_update(self.actor_target, self.actor, self.hp.tau)
            soft_update(self.critic1_target, self.critic1, self.hp.tau)
            soft_update(self.critic2_target, self.critic2, self.hp.tau)
            diag["actor_updated"] = True

        self.record_update(diag)
        return diag

    def record_update(self, diag: dict) -> None:
        """Publish one update's telemetry from its ``critic_loss``,
        ``mean_q`` and ``actor_updated`` (a stacked population update
        publishes each member's this way, after the math)."""
        critic_loss = diag["critic_loss"]
        t = self.telemetry
        t.count("agent.updates_total", help="gradient updates", agent="td3")
        if diag["actor_updated"]:
            t.count(
                "agent.actor_updates_total",
                help="delayed policy updates",
                agent="td3",
            )
        t.observe(
            "agent.critic_loss", critic_loss,
            help="per-update critic loss", agent="td3",
        )
        t.observe(
            "agent.mean_q", diag["mean_q"],
            help="batch-mean conservative Q", agent="td3",
        )
        t.diagnostics.observe_update(
            critic_loss=critic_loss,
            mean_q=diag["mean_q"],
            actor_updated=diag["actor_updated"],
        )

    # ------------------------------------------------------------- critics

    def twin_q(self, state: np.ndarray, action: np.ndarray) -> tuple[float, float]:
        """(Q1, Q2) for a single state-action pair — Algorithm 1's inputs."""
        x = critic_input(state[None, :], action[None, :])
        q1 = float(self.critic1.forward(x, cache=False)[0, 0])
        q2 = float(self.critic2.forward(x, cache=False)[0, 0])
        return q1, q2

    def twin_q_batch(
        self, state: np.ndarray, actions: np.ndarray
    ) -> np.ndarray:
        """min(Q1, Q2) for many candidate actions under one state.

        Vectorized variant used by the Twin-Q Optimizer's exploration
        loop: shape (n,) of conservative Q estimates.
        """
        if actions.ndim != 2:
            raise ValueError("actions must be (n, action_dim)")
        states = np.broadcast_to(state, (actions.shape[0], state.shape[0]))
        x = critic_input(states, actions)
        q1 = self.critic1.forward(x, cache=False)
        q2 = self.critic2.forward(x, cache=False)
        return np.minimum(q1, q2).ravel()

    def min_q(self, state: np.ndarray, action: np.ndarray) -> float:
        """The conservative estimate min(Q1, Q2) (Figure 3's indicator)."""
        q1, q2 = self.twin_q(state, action)
        return min(q1, q2)
