"""Batched queries and fine-tune updates across a population of TD3 agents.

:class:`PopulationTD3View` adopts N independent
:class:`~repro.agents.td3.TD3Agent` instances into stacked storage
(:mod:`repro.nn.population`): their six networks, targets included, and
their three Adam optimizers.  Over that storage it runs

* the three deterministic queries the online tuning loop issues —
  greedy ``act``, single-pair ``min_q`` and candidate-fan ``twin_q`` —
  as one 3-D tensor program each over all N members;
* the fine-tune updates, as :meth:`~PopulationTD3View.update_block`
  over a block of consecutive members: one stacked program per TD3
  update instead of one scalar :meth:`TD3Agent.update` per member.

Everything stochastic (exploration noise, candidate draws, replay
samples, target-smoothing noise) is still drawn per member from the
member's own generators.  Each agent's parameters are *views* into the
stacked storage, so a member updated by its own scalar ``update`` (one
that cannot join a block) and the stacked paths always agree.
``update_block`` writes its temporaries into the
:class:`~repro.nn.population.Workspace` it is given, so threads with
workspaces of their own may update disjoint blocks at once.

Bit-identity per row is inherited from :mod:`repro.nn.population`, plus
the facts that ``np.clip``/``np.minimum`` are elementwise, the critic
input concatenation is pure data movement, and each member's losses are
``np.add.reduce`` sums over its own rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.population import StackedAdam, StackedSequential, Workspace
from repro.replay.base import ReplayBatch

__all__ = ["PopulationTD3View"]

_NETS = ("actor", "critic1", "critic2",
         "actor_target", "critic1_target", "critic2_target")
_OPTS = ("actor_opt", "critic1_opt", "critic2_opt")


class _BlockWorkspace:
    """Arrays of a ``(B, batch)`` block update, shared by every block of
    that size in one :class:`Workspace`.  Members sample straight into
    ``x`` (states, actions), ``rewards`` and ``xn`` (next states):
    ``batches[j]`` views row ``j``."""

    def __init__(self, n: int, rows: int, state_dim: int, action_dim: int):
        dim = state_dim + action_dim
        self.x = np.empty((n, rows, dim))
        self.xn = np.empty((n, rows, dim))
        self.rewards = np.empty((n, rows, 1))
        self.noise = np.empty((n, rows, action_dim))
        self.y = np.empty((n, rows, 1))
        self.g = np.empty((n, rows, 1))
        self.q = (np.empty((n, rows, 1)), np.empty((n, rows, 1)))
        self.td = (np.empty((n, rows, 1)), np.empty((n, rows, 1)))
        self.actor_grad = np.full((n, rows, 1), -1.0 / rows)
        self.batches = [
            ReplayBatch(
                states=self.x[j, :, :state_dim],
                actions=self.x[j, :, state_dim:],
                rewards=self.rewards[j],
                next_states=self.xn[j, :, :state_dim],
            )
            for j in range(n)
        ]


class PopulationTD3View:
    """Lockstep queries and block updates over N distinct TD3 agents.

    Row ``i`` of every query equals the corresponding scalar call on
    ``agents[i]`` bit-for-bit, and so does every member's state after
    :meth:`update_block`.  Returned arrays may alias pooled workspaces —
    consume them before the next call with the same candidate count.
    """

    def __init__(self, agents: Sequence):
        agents = list(agents)
        if not agents:
            raise ValueError("population needs at least one agent")
        if len({id(a) for a in agents}) != len(agents):
            raise ValueError("population agents must be distinct objects")
        lead = agents[0]
        for agent in agents:
            for attr in _NETS + _OPTS:
                if not hasattr(agent, attr):
                    raise TypeError(
                        "population agents must expose TD3's networks "
                        f"and optimizers (missing {attr!r})"
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
        for attr in _NETS:
            setattr(self, attr,
                    StackedSequential([getattr(a, attr) for a in agents]))
        for attr in _OPTS:
            net = getattr(self, attr[: -len("_opt")])
            setattr(self, attr,
                    StackedAdam([getattr(a, attr) for a in agents], net))
        # Pooled (n, rows, state+action) critic-input buffers, keyed by
        # candidate count — mirrors the scalar layers' workspace policy.
        self._x: dict[int, np.ndarray] = {}
        #: the temporaries of blocks updated without a workspace of their own
        self.workspace = Workspace()

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

    # ------------------------------------------------------------ learning

    def update_block(
        self, rows: slice, buffers: Sequence, updates: int,
        lane: Workspace | None = None,
    ) -> list[list[dict]]:
        """Run ``updates`` TD3 updates for the members in ``rows``, with
        every temporary in ``lane`` (default: :attr:`workspace`).

        ``buffers[j]`` is member ``rows.start + j``'s replay buffer, one
        that can sample a batch into provided rows.  The members must
        share ``hp`` (so batch size, learning rates and ``policy_delay``)
        and their actor phase (``updates_done % policy_delay``).  For
        update ``k`` each member draws its batch, then its
        target-smoothing noise, as :meth:`TD3Agent.update` does; only
        the order across members differs.  Neither the draws nor the
        updates publish telemetry: the result per member is the list of
        its updates' ``critic_loss``/``mean_q``/``actor_updated``, for
        :meth:`TD3Agent.record_update`.
        """
        agents = self.agents[rows]
        hp = agents[0].hp
        n, batch = len(agents), hp.batch_size
        lane = self.workspace if lane is None else lane
        ws = lane.blocks.get((n, batch))
        if ws is None:
            ws = lane.blocks[(n, batch)] = _BlockWorkspace(
                n, batch, self.state_dim, self.action_dim
            )
        s = self.state_dim
        out: list[list[dict]] = [[] for _ in agents]
        for _ in range(updates):
            for j, (agent, buffer) in enumerate(zip(agents, buffers)):
                buffer.sample(batch, out=ws.batches[j], record=False)
                np.clip(
                    agent._smooth_rng.normal(
                        0.0, hp.target_noise_sigma,
                        size=(batch, self.action_dim),
                    ),
                    -hp.target_noise_clip,
                    hp.target_noise_clip,
                    out=ws.noise[j],
                )
            # Clipped double-Q target with smoothed target actions.
            next_actions = self.actor_target.forward_rows(
                ws.xn[:, :, :s], rows, cache=False, ws=lane
            )
            np.add(next_actions, ws.noise, out=ws.noise)
            np.clip(ws.noise, 0.0, 1.0, out=ws.xn[:, :, s:])
            np.copyto(ws.y, self.critic1_target.forward_rows(
                ws.xn, rows, cache=False, ws=lane))
            np.minimum(ws.y, self.critic2_target.forward_rows(
                ws.xn, rows, cache=False, ws=lane), out=ws.y)
            ws.y *= hp.gamma
            np.add(ws.rewards, ws.y, out=ws.y)

            for net, opt, q, td in (
                (self.critic1, self.critic1_opt, ws.q[0], ws.td[0]),
                (self.critic2, self.critic2_opt, ws.q[1], ws.td[1]),
            ):
                np.copyto(q, net.forward_rows(ws.x, rows, ws=lane))
                np.subtract(q, ws.y, out=td)
                np.multiply(td, 2.0 / batch, out=ws.g)
                net.backward_rows(ws.g, rows, input_grad=False, ws=lane)
                opt.step_rows(rows, ws=lane)

            td1, td2 = ws.td
            np.multiply(td1, td1, out=ws.g)
            np.multiply(td2, td2, out=ws.y)
            ws.g += ws.y
            losses = np.add.reduce(ws.g[:, :, 0], axis=1) / batch
            np.minimum(ws.q[0], ws.q[1], out=ws.g)
            mean_qs = np.add.reduce(ws.g[:, :, 0], axis=1) / batch
            for agent in agents:
                agent.updates_done += 1
            actor_updated = agents[0].updates_done % hp.policy_delay == 0
            for j in range(n):
                out[j].append({
                    "critic_loss": float(losses[j]) / 2.0,
                    "mean_q": float(mean_qs[j]),
                    "actor_updated": actor_updated,
                })
            if not actor_updated:
                continue
            # The states stay in ``x``; the actor's actions replace the
            # sampled ones as the critic's input.
            ws.x[:, :, s:] = self.actor.forward_rows(
                ws.x[:, :, :s], rows, ws=lane
            )
            self.critic1.forward_rows(ws.x, rows, ws=lane)
            grad_in = self.critic1.backward_rows(
                ws.actor_grad, rows, params=False, ws=lane
            )
            self.actor.backward_rows(grad_in[:, :, s:], rows,
                                     input_grad=False, ws=lane)
            self.actor_opt.step_rows(rows, ws=lane)
            self.critic1.zero_grad_rows(rows)
            for target, source in (
                (self.actor_target, self.actor),
                (self.critic1_target, self.critic1),
                (self.critic2_target, self.critic2),
            ):
                target.soft_update_rows(source, rows, hp.tau, ws=lane)
        return out
