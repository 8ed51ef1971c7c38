"""Batched critic/actor queries across a population of TD3 agents.

:class:`PopulationTD3View` stacks N independent
:class:`~repro.agents.td3.TD3Agent` instances (via
:class:`~repro.nn.population.StackedSequential`) and exposes exactly the
three deterministic queries the online tuning loop issues — greedy
``act``, single-pair ``min_q``, and candidate-fan ``twin_q`` — as one
3-D tensor program each.  Everything stochastic (exploration noise,
candidate draws, fine-tune updates) stays on the scalar agents, whose
parameters are *views* into the stacked storage, so per-agent updates
and batched queries always agree.

Bit-identity per row is inherited from ``StackedSequential`` plus the
facts that ``np.clip``/``np.minimum`` are elementwise and the critic
input concatenation is pure data movement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.population import StackedSequential

__all__ = ["PopulationTD3View"]


class PopulationTD3View:
    """Lockstep deterministic queries over N distinct TD3 agents.

    Row ``i`` of every method equals the corresponding scalar call on
    ``agents[i]`` bit-for-bit.  Returned arrays may alias pooled
    workspaces — consume them before the next call with the same
    candidate count.
    """

    def __init__(self, agents: Sequence):
        agents = list(agents)
        if not agents:
            raise ValueError("population needs at least one agent")
        if len({id(a) for a in agents}) != len(agents):
            raise ValueError("population agents must be distinct objects")
        lead = agents[0]
        for agent in agents:
            for net in ("actor", "critic1", "critic2"):
                if not hasattr(agent, net):
                    raise TypeError(
                        "population agents must expose actor/critic1/"
                        f"critic2 (missing {net!r})"
                    )
            if (
                agent.state_dim != lead.state_dim
                or agent.action_dim != lead.action_dim
            ):
                raise ValueError("population agents must share dimensions")
        self.agents = agents
        self.n = len(agents)
        self.state_dim = lead.state_dim
        self.action_dim = lead.action_dim
        self.actor = StackedSequential([a.actor for a in agents])
        self.critic1 = StackedSequential([a.critic1 for a in agents])
        self.critic2 = StackedSequential([a.critic2 for a in agents])
        # Pooled (n, rows, state+action) critic-input buffers, keyed by
        # candidate count — mirrors the scalar layers' workspace policy.
        self._x: dict[int, np.ndarray] = {}

    def members_finite(self) -> np.ndarray:
        """``True`` per member iff its actor and both critics hold only
        finite parameters — the health probe behind member quarantine."""
        return (
            self.actor.members_finite()
            & self.critic1.members_finite()
            & self.critic2.members_finite()
        )

    def _x_buffer(self, rows: int) -> np.ndarray:
        buf = self._x.get(rows)
        if buf is None:
            buf = self._x[rows] = np.empty(
                (self.n, rows, self.state_dim + self.action_dim),
                dtype=np.float64,
            )
        return buf

    def act(self, states: np.ndarray) -> np.ndarray:
        """Greedy actions, ``(n, action_dim)``.

        Row ``i`` equals ``agents[i].act(states[i], explore=False)``.
        """
        out = self.actor.forward(
            np.asarray(states, dtype=np.float64)[:, None, :]
        )
        return np.clip(out[:, 0, :], 0.0, 1.0)

    def min_q(self, states: np.ndarray, actions: np.ndarray) -> list[float]:
        """Conservative ``min(Q1, Q2)`` per agent for one pair each.

        Element ``i`` equals ``agents[i].min_q(states[i], actions[i])``.
        """
        x = self._x_buffer(1)
        x[:, 0, : self.state_dim] = states
        x[:, 0, self.state_dim :] = actions
        q1 = self.critic1.forward(x)
        q2 = self.critic2.forward(x)
        # Python min over floats, exactly as the scalar ``min_q``.
        return [
            min(float(q1[i, 0, 0]), float(q2[i, 0, 0]))
            for i in range(self.n)
        ]

    def twin_q_rows(
        self, states: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Candidate-fan scores, ``(n, n_candidates)``.

        Row ``i`` equals ``agents[i].twin_q_batch(states[i],
        candidates[i])``.  The returned array aliases a pooled workspace.
        """
        rows = candidates.shape[1]
        x = self._x_buffer(rows)
        x[:, :, : self.state_dim] = np.asarray(states, dtype=np.float64)[
            :, None, :
        ]
        x[:, :, self.state_dim :] = candidates
        q1 = self.critic1.forward(x)
        q2 = self.critic2.forward(x)
        np.minimum(q1, q2, out=q1)
        return q1[:, :, 0]
