"""Tests for transition storage and the uniform replay buffer."""

import pickle

import numpy as np
import pytest

from repro.replay.base import ReplayBatch, RingStorage, Transition
from repro.replay.uniform import UniformReplayBuffer


def make_transition(i, state_dim=3, action_dim=2):
    return Transition(
        state=np.full(state_dim, float(i)),
        action=np.full(action_dim, float(i)),
        reward=float(i),
        next_state=np.full(state_dim, float(i + 1)),
    )


class TestRingStorage:
    def test_push_and_gather(self):
        s = RingStorage(10, 3, 2)
        for i in range(4):
            s.push(make_transition(i))
        assert len(s) == 4
        batch = s.gather(np.array([0, 3]))
        np.testing.assert_array_equal(batch.rewards.ravel(), [0.0, 3.0])
        np.testing.assert_array_equal(batch.states[1], [3.0, 3.0, 3.0])

    def test_wraparound_overwrites_oldest(self):
        s = RingStorage(3, 3, 2)
        for i in range(5):
            s.push(make_transition(i))
        assert len(s) == 3
        rewards = sorted(s.reward_at(i) for i in range(3))
        assert rewards == [2.0, 3.0, 4.0]

    def test_push_returns_slot(self):
        s = RingStorage(2, 3, 2)
        assert s.push(make_transition(0)) == 0
        assert s.push(make_transition(1)) == 1
        assert s.push(make_transition(2)) == 0  # wrapped

    def test_shape_validation(self):
        s = RingStorage(4, 3, 2)
        with pytest.raises(ValueError):
            s.push(make_transition(0, state_dim=5))
        with pytest.raises(ValueError):
            s.push(make_transition(0, action_dim=9))

    def test_gather_out_of_range(self):
        s = RingStorage(4, 3, 2)
        s.push(make_transition(0))
        with pytest.raises(IndexError):
            s.gather(np.array([3]))

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingStorage(0, 3, 2)


def _filled(capacity, pushes):
    s = RingStorage(capacity, 3, 2)
    for i in range(pushes):
        s.push(make_transition(i))
    return s


def _rows(s):
    batch = s.gather(np.arange(len(s)))
    return [a.tobytes() for a in (
        batch.states, batch.actions, batch.rewards, batch.next_states)]


def _assert_same_ring(copy, original):
    """Same length and rows, and the next push lands in the same slot."""
    assert len(copy) == len(original)
    assert _rows(copy) == _rows(original)
    t = make_transition(99)
    assert copy.push(t) == original.push(t)
    assert _rows(copy) == _rows(original)


class TestRingStoragePickle:
    def test_pickle_carries_filled_rows_only(self):
        big = pickle.dumps(_filled(10_000, 3))
        small = pickle.dumps(_filled(10, 3))
        assert abs(len(big) - len(small)) < 1024

    @pytest.mark.parametrize("capacity, pushes", [(10_000, 3), (4, 6)])
    def test_round_trip(self, capacity, pushes):
        s = _filled(capacity, pushes)
        _assert_same_ring(pickle.loads(pickle.dumps(s)), s)

    def test_full_array_pickle_loads(self, monkeypatch):
        """Pickles written before only filled rows were stored hold
        full-capacity arrays, and still load."""
        s = _filled(10, 3)
        monkeypatch.delattr(RingStorage, "__getstate__")
        old = pickle.dumps(s)
        monkeypatch.undo()
        assert len(old) > len(pickle.dumps(s))
        _assert_same_ring(pickle.loads(old), s)


class TestUniformReplayBuffer:
    def make(self, capacity=50, rng_seed=0):
        return UniformReplayBuffer(
            capacity, 3, 2, np.random.default_rng(rng_seed)
        )

    def test_sample_shapes(self):
        buf = self.make()
        for i in range(10):
            buf.push(make_transition(i))
        batch = buf.sample(6)
        assert isinstance(batch, ReplayBatch)
        assert batch.states.shape == (6, 3)
        assert batch.actions.shape == (6, 2)
        assert batch.rewards.shape == (6, 1)
        assert batch.next_states.shape == (6, 3)
        assert len(batch) == 6

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            self.make().sample(1)

    def test_sample_nonpositive_raises(self):
        buf = self.make()
        buf.push(make_transition(0))
        with pytest.raises(ValueError):
            buf.sample(0)

    def test_can_sample(self):
        buf = self.make()
        assert not buf.can_sample(1)
        buf.push(make_transition(0))
        assert buf.can_sample(1)
        assert not buf.can_sample(2)

    def test_samples_cover_buffer(self):
        buf = self.make()
        for i in range(20):
            buf.push(make_transition(i))
        seen = set()
        for _ in range(50):
            seen.update(buf.sample(8).rewards.ravel().tolist())
        assert len(seen) >= 15  # uniform sampling touches most entries

    def test_capacity_property(self):
        assert self.make(capacity=7).capacity == 7
