"""Deep Deterministic Policy Gradient (Lillicrap et al. 2015).

The CDBTune baseline builds on this agent.  Supports importance-sampling
weights and exposes per-sample TD errors so a TD-error PER buffer can
refresh priorities (the CDBTune configuration of the paper's §5.2).
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

__all__ = ["DDPGAgent"]


class DDPGAgent:
    """Actor-critic with a deterministic policy and target networks."""

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

        net_rng, noise_rng = rng.spawn(2)
        self.actor = build_actor(state_dim, action_dim, self.hp.hidden, net_rng)
        self.critic = build_critic(state_dim, action_dim, self.hp.hidden, net_rng)
        self.actor_target = build_actor(
            state_dim, action_dim, self.hp.hidden, net_rng
        )
        self.critic_target = build_critic(
            state_dim, action_dim, self.hp.hidden, net_rng
        )
        hard_update(self.actor_target, self.actor)
        hard_update(self.critic_target, self.critic)

        self.actor_opt = Adam(self.actor.parameters(), lr=self.hp.actor_lr,
                              max_grad_norm=5.0)
        self.critic_opt = Adam(self.critic.parameters(), lr=self.hp.critic_lr,
                               max_grad_norm=5.0)
        self.noise = GaussianNoise(
            action_dim,
            sigma=self.hp.exploration_sigma,
            rng=noise_rng,
            sigma_min=self.hp.exploration_sigma_min,
            decay=self.hp.exploration_decay,
        )
        self.updates_done = 0
        from repro.telemetry.context import NULL_CONTEXT

        #: RunContext set by the trainer/tuner; null by default
        self.telemetry = NULL_CONTEXT

    # ------------------------------------------------------------- acting

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """Deterministic policy output, plus exploration noise if asked."""
        action = self.actor.forward(state[None, :], cache=False)[0]
        if explore:
            action = action + self.noise.sample()
        return np.clip(action, 0.0, 1.0)

    def random_action(self) -> np.ndarray:
        """Uniform action for warmup steps."""
        return self._rng.uniform(0.0, 1.0, size=self.action_dim)

    # ------------------------------------------------------------ learning

    def _target_q(self, batch: ReplayBatch) -> np.ndarray:
        next_actions = self.actor_target.forward(batch.next_states, cache=False)
        q_next = self.critic_target.forward(
            critic_input(batch.next_states, next_actions), cache=False
        )
        return batch.rewards + self.hp.gamma * q_next

    def update(self, batch: ReplayBatch) -> dict[str, float]:
        """One gradient step on critic and actor.

        Returns diagnostics including per-sample TD errors (key
        ``"td_errors"`` is a numpy array) for PER priority refresh.
        """
        m = len(batch)
        y = self._target_q(batch)

        # --- critic: weighted MSE on the TD target ---
        self.critic.zero_grad()
        q = self.critic.forward(critic_input(batch.states, batch.actions))
        td_errors = q - y
        # q aliases the critic's reusable forward buffer, which the actor
        # pass below overwrites — reduce it now.
        mean_q = float(np.mean(q))
        weights = batch.weights if batch.weights is not None else 1.0
        critic_loss = float(np.mean(weights * td_errors**2))
        self.critic.backward((2.0 / m) * weights * td_errors, input_grad=False)
        self.critic_opt.step()

        # --- actor: ascend dQ/da through the fresh critic ---
        self.actor.zero_grad()
        actions = self.actor.forward(batch.states)
        q_pi = self.critic.forward(critic_input(batch.states, actions))
        # Maximize mean Q => descend on -Q; route the gradient through the
        # critic input back into the actor output.  Neither the critic's
        # parameter gradients nor the actor's input gradient are needed.
        grad_in = self.critic.backward(
            np.full_like(q_pi, -1.0 / m), params=False
        )
        self.actor.backward(grad_in[:, self.state_dim :], input_grad=False)
        self.actor_opt.step()
        # Clear what the critic step left (checkpoints pickle the grads).
        self.critic.zero_grad()

        soft_update(self.actor_target, self.actor, self.hp.tau)
        soft_update(self.critic_target, self.critic, self.hp.tau)
        self.updates_done += 1

        t = self.telemetry
        t.count("agent.updates_total", help="gradient updates", agent="ddpg")
        t.observe(
            "agent.critic_loss", critic_loss,
            help="per-update critic loss", agent="ddpg",
        )
        t.observe(
            "agent.mean_q", mean_q,
            help="batch-mean critic Q", agent="ddpg",
        )
        return {
            "critic_loss": critic_loss,
            "mean_q": mean_q,
            "td_errors": td_errors.ravel(),
        }

    # ------------------------------------------------------------- critics

    def q_value(self, state: np.ndarray, action: np.ndarray) -> float:
        """Q(s, a) from the (single) critic."""
        x = critic_input(state[None, :], action[None, :])
        return float(self.critic.forward(x, cache=False)[0, 0])
