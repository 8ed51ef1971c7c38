"""Tests for the TD-error prioritized replay buffer."""

import numpy as np
import pytest

from repro.replay.base import ReplayBatch, RingStorage, Transition
from repro.replay.per import PrioritizedReplayBuffer
from tests.test_replay_sumtree import _ReferenceSumTree


def make_transition(i):
    return Transition(
        state=np.full(3, float(i)),
        action=np.full(2, float(i)),
        reward=float(i),
        next_state=np.full(3, float(i + 1)),
    )


def make_buffer(**kw):
    return PrioritizedReplayBuffer(64, 3, 2, np.random.default_rng(0), **kw)


class TestPrioritizedReplayBuffer:
    def test_new_transitions_get_max_priority(self):
        buf = make_buffer()
        buf.push(make_transition(0))
        buf.update_priorities(np.array([0]), np.array([9.0]))
        buf.push(make_transition(1))
        # the second push must inherit the current max so it gets sampled
        assert buf._tree[1] == buf._tree.max_priority()

    def test_sample_shapes_and_weights(self):
        buf = make_buffer()
        for i in range(20):
            buf.push(make_transition(i))
        batch = buf.sample(8)
        assert batch.states.shape == (8, 3)
        assert batch.weights.shape == (8, 1)
        assert batch.indices.shape == (8,)
        assert np.all(batch.weights > 0) and np.all(batch.weights <= 1.0)

    def test_high_priority_sampled_more(self):
        buf = make_buffer(alpha=1.0)
        for i in range(10):
            buf.push(make_transition(i))
        # give transition 3 overwhelming priority
        prios = np.full(10, 0.01)
        prios[3] = 100.0
        buf.update_priorities(np.arange(10), prios)
        counts = np.zeros(10)
        for _ in range(300):
            for idx in buf.sample(4).indices:
                counts[idx] += 1
        assert counts[3] > counts.sum() * 0.5

    def test_beta_anneals(self):
        buf = make_buffer(beta_is=0.4, beta_is_increment=0.1)
        for i in range(5):
            buf.push(make_transition(i))
        for _ in range(10):
            buf.sample(2)
        assert buf.beta_is == 1.0

    def test_update_priorities_validates(self):
        buf = make_buffer()
        buf.push(make_transition(0))
        with pytest.raises(ValueError):
            buf.update_priorities(np.array([0, 1]), np.array([1.0]))

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            make_buffer().sample(1)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            make_buffer(alpha=1.5)
        with pytest.raises(ValueError):
            make_buffer(beta_is=-0.1)
        with pytest.raises(ValueError):
            make_buffer(epsilon=0.0)

    def test_epsilon_keeps_zero_error_sampleable(self):
        buf = make_buffer()
        for i in range(4):
            buf.push(make_transition(i))
        buf.update_priorities(np.arange(4), np.zeros(4))
        assert buf._tree.total > 0.0
        batch = buf.sample(2)
        assert len(batch) == 2


class _ReferencePER:
    """The per-element buffer the batched sum-tree replaced: one descent
    and one leaf read per sampled index, one scalar update per refresh."""

    def __init__(self, capacity, state_dim, action_dim, rng, alpha=0.6,
                 beta_is=0.4, beta_is_increment=1e-4, epsilon=1e-3):
        self._storage = RingStorage(capacity, state_dim, action_dim)
        self._tree = _ReferenceSumTree(capacity)
        self._rng = rng
        self.alpha = alpha
        self.beta_is = beta_is
        self.beta_is_increment = beta_is_increment
        self.epsilon = epsilon

    def push(self, transition):
        idx = self._storage.push(transition)
        prio = float(self._tree._tree[self._tree.capacity - 1:].max())
        if prio <= 0.0:
            prio = 1.0
        self._tree.update(idx, prio)

    def sample(self, batch_size):
        n = len(self._storage)
        total = self._tree.total
        bounds = np.linspace(0.0, total, batch_size + 1)
        targets = self._rng.uniform(bounds[:-1], bounds[1:])
        indices = np.array(
            [self._tree.find_prefix(v) for v in targets], dtype=np.intp
        )
        indices = np.minimum(indices, n - 1)
        leaves = self._tree._tree[self._tree.capacity - 1:]
        probs = np.array([float(leaves[i]) for i in indices])
        probs = np.maximum(probs / max(total, 1e-12), 1e-12)
        weights = (n * probs) ** (-self.beta_is)
        weights /= weights.max()
        self.beta_is = min(1.0, self.beta_is + self.beta_is_increment)
        batch = self._storage.gather(indices)
        return ReplayBatch(
            states=batch.states, actions=batch.actions,
            rewards=batch.rewards, next_states=batch.next_states,
            indices=indices, weights=weights[:, None],
        )

    def update_priorities(self, indices, td_errors):
        td = np.abs(np.asarray(td_errors, dtype=np.float64)).ravel()
        idx = np.asarray(indices, dtype=np.intp).ravel()
        for i, e in zip(idx, td):
            self._tree.update(int(i), float((e + self.epsilon) ** self.alpha))


def test_batched_buffer_matches_per_element_reference():
    """500 sample/refresh steps of a CDBTune-sized buffer: indices, IS
    weights, beta_is and the tree's bytes equal the per-element code."""
    rng = np.random.default_rng(11)
    new = PrioritizedReplayBuffer(20_000, 3, 2, np.random.default_rng(5),
                                  beta_is_increment=1e-3)
    ref = _ReferencePER(20_000, 3, 2, np.random.default_rng(5),
                        beta_is_increment=1e-3)

    def push_both():
        tr = Transition(
            state=rng.uniform(size=3), action=rng.uniform(size=2),
            reward=float(rng.normal()), next_state=rng.uniform(size=3),
        )
        new.push(tr)
        ref.push(tr)

    for _ in range(2_000):
        push_both()
    for step in range(500):
        got, want = new.sample(128), ref.sample(128)
        np.testing.assert_array_equal(got.indices, want.indices)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.states.tobytes() == want.states.tobytes()
        assert new.beta_is == ref.beta_is
        td = rng.normal(size=128) * 10.0 ** rng.integers(-3, 3)
        idx = got.indices.copy()
        if step % 3 == 0:
            idx[::4] = idx[1]  # a leaf refreshed several times
        if step % 5 == 0:
            td[::6] = 0.0
        new.update_priorities(idx, td)
        ref.update_priorities(idx, td)
        assert new._tree._tree.tobytes() == ref._tree._tree.tobytes()
        if step % 25 == 0:
            push_both()
