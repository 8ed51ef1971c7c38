"""The agent updates skip gradients no caller reads, and the sigmoid no
longer splits on sign with boolean indexing.  Both must leave the
science bit-identical: the updates are checked against a reference that
runs every backward in full through a sign-split sigmoid (the update
code these replaced), the sigmoid against the sign-split formula."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.agents.base import AgentHyperParams, critic_input
from repro.agents.ddpg import DDPGAgent
from repro.agents.td3 import TD3Agent
from repro.nn.layers import Sigmoid, sigmoid
from repro.nn.population import Workspace, _StackedSigmoid
from repro.nn.target import soft_update
from repro.replay.base import ReplayBatch


def _sign_split(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class _SignSplitSigmoid(Sigmoid):
    def forward(self, x, cache=True):
        out = _sign_split(x)
        if cache:
            self._out = out
        return out


def _full_backward(net, grad):
    """Every layer's parameter and input gradients, output to input."""
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    return grad


def _reference_td3_update(agent: TD3Agent, batch: ReplayBatch) -> dict:
    m = len(batch)
    y = agent._target_q(batch)
    x = critic_input(batch.states, batch.actions)
    weights = batch.weights if batch.weights is not None else 1.0

    agent.critic1.zero_grad()
    q1 = agent.critic1.forward(x)
    td1 = q1 - y
    _full_backward(agent.critic1, (2.0 / m) * weights * td1)
    agent.critic1_opt.step()

    agent.critic2.zero_grad()
    q2 = agent.critic2.forward(x)
    td2 = q2 - y
    _full_backward(agent.critic2, (2.0 / m) * weights * td2)
    agent.critic2_opt.step()

    agent.updates_done += 1
    diag = {
        "critic_loss": float(np.mean(weights * (td1**2 + td2**2)) / 2.0),
        "mean_q": float(np.mean(np.minimum(q1, q2))),
        "td_errors": np.minimum(np.abs(td1), np.abs(td2)).ravel(),
        "actor_updated": False,
    }
    if agent.updates_done % agent.hp.policy_delay == 0:
        agent.actor.zero_grad()
        actions = agent.actor.forward(batch.states)
        q_pi = agent.critic1.forward(critic_input(batch.states, actions))
        grad_in = _full_backward(agent.critic1, np.full_like(q_pi, -1.0 / m))
        _full_backward(agent.actor, grad_in[:, agent.state_dim:])
        agent.actor_opt.step()
        agent.critic1.zero_grad()
        soft_update(agent.actor_target, agent.actor, agent.hp.tau)
        soft_update(agent.critic1_target, agent.critic1, agent.hp.tau)
        soft_update(agent.critic2_target, agent.critic2, agent.hp.tau)
        diag["actor_updated"] = True
    return diag


def _reference_ddpg_update(agent: DDPGAgent, batch: ReplayBatch) -> dict:
    m = len(batch)
    y = agent._target_q(batch)
    agent.critic.zero_grad()
    q = agent.critic.forward(critic_input(batch.states, batch.actions))
    td_errors = q - y
    mean_q = float(np.mean(q))
    weights = batch.weights if batch.weights is not None else 1.0
    critic_loss = float(np.mean(weights * td_errors**2))
    _full_backward(agent.critic, (2.0 / m) * weights * td_errors)
    agent.critic_opt.step()

    agent.actor.zero_grad()
    actions = agent.actor.forward(batch.states)
    q_pi = agent.critic.forward(critic_input(batch.states, actions))
    grad_in = _full_backward(agent.critic, np.full_like(q_pi, -1.0 / m))
    _full_backward(agent.actor, grad_in[:, agent.state_dim:])
    agent.actor_opt.step()
    agent.critic.zero_grad()

    soft_update(agent.actor_target, agent.actor, agent.hp.tau)
    soft_update(agent.critic_target, agent.critic, agent.hp.tau)
    agent.updates_done += 1
    return {
        "critic_loss": critic_loss,
        "mean_q": mean_q,
        "td_errors": td_errors.ravel(),
    }


def _reference_copy(agent):
    """A deep copy whose actor nets use the sign-split sigmoid."""
    ref = copy.deepcopy(agent)
    for net in (ref.actor, ref.actor_target):
        net.layers = [
            _SignSplitSigmoid() if isinstance(layer, Sigmoid) else layer
            for layer in net.layers
        ]
    return ref


def _state_bytes(agent) -> list[bytes]:
    """Every parameter, gradient and Adam moment, plus Adam's step."""
    out = []
    for name in sorted(vars(agent)):
        value = getattr(agent, name)
        if hasattr(value, "parameters"):  # a network
            for p in value.parameters():
                out += [p.data.tobytes(), p.grad.tobytes()]
        elif hasattr(value, "_m"):  # an Adam optimizer
            out += [m.tobytes() for m in value._m]
            out += [v.tobytes() for v in value._v]
            out.append(value._t)
    return out


@pytest.mark.parametrize(("cls", "reference"), [
    (TD3Agent, _reference_td3_update),
    (DDPGAgent, _reference_ddpg_update),
])
def test_update_matches_full_backward_reference(cls, reference):
    state_dim, action_dim, m = 7, 5, 64
    hp = AgentHyperParams(hidden=(32, 32), batch_size=m)
    agent = cls(state_dim, action_dim, np.random.default_rng(3), hp)
    ref = _reference_copy(agent)
    rng = np.random.default_rng(4)
    pool = {
        "states": rng.uniform(size=(512, state_dim)),
        "actions": rng.uniform(size=(512, action_dim)),
        "rewards": rng.normal(size=(512, 1)),
        "next_states": rng.uniform(size=(512, state_dim)),
    }
    for _ in range(120):
        idx = rng.integers(0, 512, m)
        batch = ReplayBatch(
            **{k: v[idx] for k, v in pool.items()},
            indices=idx,
            weights=rng.uniform(0.1, 1.0, size=(m, 1)),
        )
        got, want = agent.update(batch), reference(ref, batch)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[key].tobytes() == value.tobytes(), key
            else:
                assert got[key] == value, key
        assert _state_bytes(agent) == _state_bytes(ref)
    assert agent.updates_done == ref.updates_done == 120


_FLOATS = st.floats(allow_nan=False, width=64)


class TestSigmoid:
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2,
                                           max_side=40), elements=_FLOATS))
    @settings(max_examples=200, deadline=None)
    def test_bits_equal_sign_split(self, x):
        out = np.empty_like(x)
        assert sigmoid(x, out) is out
        assert out.tobytes() == _sign_split(x).tobytes()
        assert Sigmoid().forward(x).tobytes() == out.tobytes()

    @given(arrays(np.float64, array_shapes(min_dims=3, max_dims=3,
                                           max_side=12), elements=_FLOATS))
    @settings(max_examples=100, deadline=None)
    def test_stacked_layer_bits_equal_sign_split(self, x):
        got = _StackedSigmoid().forward(x, slice(None), False, Workspace())
        assert got.tobytes() == _sign_split(x).tobytes()

    def test_edge_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([[0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                       709.9, -709.9, 745.2, -745.2, 1e308, -1e308]])
        out = sigmoid(x, np.empty_like(x))
        assert out.tobytes() == _sign_split(x).tobytes()
        np.testing.assert_array_equal(out[0, :4], [0.5, 0.5, 1.0, 0.0])

    def test_nan_in_gives_nan_out(self):
        x = np.array([[np.nan, 1.0], [-2.0, np.nan]])
        out = sigmoid(x, np.empty_like(x))
        np.testing.assert_array_equal(np.isnan(out), np.isnan(x))
        assert out[0, 1] == _sign_split(x)[0, 1]

    def test_output_may_alias_input(self):
        x = np.linspace(-30.0, 30.0, 61).reshape(1, -1)
        want = _sign_split(x)
        assert sigmoid(x, x).tobytes() == want.tobytes()
