"""Offline training stage (left half of the paper's Figure 1).

The agent interacts with the standard environment by trial and error:
recommend a configuration, evaluate it, store the transition, update the
networks from replayed batches.  Works with any agent/buffer combination
(TD3+RDPER for DeepCAT, DDPG+PER for CDBTune, TD3+uniform for the
Figure 4 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.envs.tuning_env import TuningEnv
from repro.replay.base import Transition
from repro.replay.per import PrioritizedReplayBuffer

__all__ = ["OfflineTrainer", "OfflineTrainingLog"]


@dataclass
class OfflineTrainingLog:
    """Per-iteration traces of the offline stage.

    ``min_q`` holds the conservative critic estimate of each executed
    action *before* the corresponding update — exactly the quantity
    Figure 3 plots against the real reward.
    """

    rewards: list[float] = field(default_factory=list)
    min_q: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    critic_losses: list[float] = field(default_factory=list)
    best_duration_s: float = float("inf")
    best_action: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.rewards)


class OfflineTrainer:
    """Drives agent-environment interaction plus replay updates.

    ``telemetry`` (a :class:`~repro.telemetry.context.RunContext`)
    carries logger, tracer, metrics, and manifest in one object.
    """

    def __init__(
        self,
        agent,
        buffer,
        updates_per_step: int = 1,
        telemetry=None,
    ):
        if updates_per_step < 0:
            raise ValueError("updates_per_step cannot be negative")
        self.agent = agent
        self.buffer = buffer
        self.updates_per_step = updates_per_step
        self.log = OfflineTrainingLog()
        from repro.telemetry.context import ensure_context

        self.telemetry = ensure_context(telemetry)

    def _q_estimate(self, state, action) -> float:
        """Critic's view of ``action`` before learning from it."""
        if hasattr(self.agent, "min_q"):
            return self.agent.min_q(state, action)
        return self.agent.q_value(state, action)

    def _absorb(self, it, outcome, q_est, callback, warmup=False) -> None:
        """Push one outcome into replay, run updates, log, emit telemetry.

        Shared by the sequential loop and the batched LHS warmup so both
        perform identical bookkeeping per evaluation.  ``warmup`` routes
        the ledger charge to the warmup account (random/LHS exploration
        before the agent starts acting).
        """
        t = self.telemetry
        if t.ledger.enabled:
            t.ledger.charge(
                "warmup" if warmup else "evaluation",
                float(outcome.duration_s),
                step=it,
                phase="offline",
                success=bool(outcome.success),
                config=outcome.config,
            )
        self.buffer.push(
            Transition(
                state=outcome.state,
                action=outcome.action,
                reward=outcome.reward,
                next_state=outcome.next_state,
            )
        )

        if self.buffer.can_sample(self.agent.hp.batch_size):
            with t.span("offline.update"):
                for _ in range(self.updates_per_step):
                    batch = self.buffer.sample(self.agent.hp.batch_size)
                    diag = self.agent.update(batch)
                    if isinstance(self.buffer, PrioritizedReplayBuffer):
                        self.buffer.update_priorities(
                            batch.indices, diag["td_errors"]
                        )
                    self.log.critic_losses.append(diag["critic_loss"])

        self.log.rewards.append(outcome.reward)
        self.log.min_q.append(q_est)
        self.log.durations.append(outcome.duration_s)
        if (
            outcome.success
            and outcome.duration_s < self.log.best_duration_s
        ):
            self.log.best_duration_s = outcome.duration_s
            self.log.best_action = outcome.action.copy()
        t.count(
            "offline.steps_total",
            help="offline environment steps (evaluations)",
        )
        if not outcome.success:
            t.count(
                "offline.failed_steps_total",
                help="offline evaluations that failed",
            )
        t.observe(
            "offline.q_estimate",
            float(q_est),
            help="conservative critic Q of executed actions",
        )
        t.observe(
            "offline.evaluation_seconds",
            float(outcome.duration_s),
            help="per-evaluation simulated cost",
        )
        t.gauge_set(
            "replay.size",
            len(self.buffer),
            help="replay pool occupancy",
        )
        # Learning-health detectors (pure observers; q_est is already
        # computed for the offline log, so this adds no model work).
        if t.diagnostics.enabled:
            t.diagnostics.observe_step(
                step=it,
                reward=float(outcome.reward),
                success=bool(outcome.success),
                q_pred=float(q_est),
            )
            # Drain before the step event so heartbeats written on
            # "offline-step" reflect this iteration's alerts.
            for alert in t.diagnostics.drain_alerts():
                t.event("alert", **alert.as_event_fields())
        t.event(
            "offline-step",
            iteration=it,
            reward=float(outcome.reward),
            duration_s=float(outcome.duration_s),
            success=bool(outcome.success),
            best_s=float(self.log.best_duration_s),
        )
        if callback is not None:
            callback(it, self.log)

    def train(
        self,
        env: TuningEnv,
        iterations: int,
        callback: Callable[[int, OfflineTrainingLog], None] | None = None,
        *,
        lhs_warmup: bool = False,
    ) -> OfflineTrainingLog:
        """Run ``iterations`` environment steps with interleaved updates.

        Each iteration is one costly configuration evaluation on the
        target cluster — the unit the paper's Figure 4 x-axis counts.

        ``lhs_warmup=True`` replaces the uniform per-step warmup actions
        with one Latin-hypercube draw evaluated through the simulator's
        batched fast path (space-filling coverage, one vectorized
        evaluation).  Replay pushes, agent updates, logging, and
        telemetry still happen per outcome in order.  Off by default:
        it changes which warmup configurations are explored, so runs are
        only reproducible against other ``lhs_warmup=True`` runs.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        t = self.telemetry
        if hasattr(env, "attach_telemetry"):
            env.attach_telemetry(t)
        if hasattr(self.buffer, "set_telemetry"):
            self.buffer.set_telemetry(t)
        if hasattr(self.agent, "telemetry"):
            self.agent.telemetry = t
        state = env.state
        warmup = self.agent.hp.warmup_steps
        start = 0
        with t.span("offline.train", iterations=iterations):
            if lhs_warmup and len(self.buffer) < warmup:
                n = min(warmup - len(self.buffer), iterations)
                # Same stream random_action() would have consumed.
                vectors = env.space.latin_hypercube(self.agent._rng, n)
                with t.span("offline.warmup-batch", candidates=n):
                    outcomes = env.step_batch(vectors)
                for it, outcome in enumerate(outcomes):
                    with t.span("offline.step", iteration=it):
                        q_est = self._q_estimate(
                            outcome.state, outcome.action
                        )
                        self._absorb(it, outcome, q_est, callback,
                                     warmup=True)
                state = env.state
                start = n
            for it in range(start, iterations):
                with t.span("offline.step", iteration=it):
                    in_warmup = len(self.buffer) < warmup
                    if in_warmup:
                        action = self.agent.random_action()
                    else:
                        action = self.agent.act(state, explore=True)

                    q_est = self._q_estimate(state, action)

                    with t.span("offline.evaluate"):
                        outcome = env.step(action)
                    state = outcome.next_state
                    self._absorb(it, outcome, q_est, callback,
                                 warmup=in_warmup)
        if t.manifest is not None:
            t.manifest.record_hyper_params(self.agent.hp)
            t.manifest.record_stage(
                "offline-train",
                iterations=iterations,
                best_duration_s=self.log.best_duration_s,
                replay_size=len(self.buffer),
            )
        return self.log
