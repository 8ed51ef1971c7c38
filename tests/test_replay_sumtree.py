"""Tests for the PER sum-tree, including hypothesis invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.replay.sumtree import SumTree


class TestSumTree:
    def test_total_tracks_updates(self):
        t = SumTree(8)
        t.update(0, 1.0)
        t.update(3, 2.0)
        assert t.total == pytest.approx(3.0)
        t.update(0, 0.5)
        assert t.total == pytest.approx(2.5)

    def test_getitem(self):
        t = SumTree(4)
        t.update(2, 7.0)
        assert t[2] == 7.0
        assert t[0] == 0.0

    def test_find_prefix_boundaries(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 2.0)
        t.update(2, 3.0)
        assert t.find_prefix(0.5) == 0
        assert t.find_prefix(1.5) == 1
        assert t.find_prefix(3.5) == 2
        assert t.find_prefix(6.0) == 2

    def test_find_prefix_skips_zero_leaves(self):
        t = SumTree(8)
        t.update(5, 4.0)
        for v in [0.0, 1.0, 3.9]:
            assert t.find_prefix(v) == 5

    def test_max_min_priority(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 5.0)
        assert t.max_priority() == 5.0
        assert t.min_priority(2) == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            SumTree(0)
        t = SumTree(4)
        with pytest.raises(IndexError):
            t.update(4, 1.0)
        with pytest.raises(ValueError):
            t.update(0, -1.0)
        with pytest.raises(ValueError):
            t.find_prefix(99.0)
        with pytest.raises(IndexError):
            _ = t[9]

    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.floats(0.0, 100.0)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_invariant(self, updates):
        t = SumTree(32)
        leaves = np.zeros(32)
        for idx, prio in updates:
            t.update(idx, prio)
            leaves[idx] = prio
        assert t.total == pytest.approx(leaves.sum(), rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_find_prefix_consistent(self, prios, frac):
        t = SumTree(16)
        for i, p in enumerate(prios):
            t.update(i, p)
        value = frac * t.total
        leaf = t.find_prefix(value)
        cumsum = np.cumsum(prios)
        expected = int(np.searchsorted(cumsum, value))
        expected = min(expected, len(prios) - 1)
        assert leaf == expected

    def test_proportional_sampling_statistics(self):
        t = SumTree(4)
        t.update(0, 1.0)
        t.update(1, 3.0)
        rng = np.random.default_rng(0)
        hits = np.zeros(4)
        for _ in range(4000):
            hits[t.find_prefix(rng.uniform(0, t.total))] += 1
        assert hits[1] / hits[0] == pytest.approx(3.0, rel=0.15)


class _ReferenceSumTree:
    """The one-at-a-time sum-tree the batch operations replaced: one
    Python descent per target, one ancestor loop per update."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._tree = np.zeros(2 * capacity - 1)

    @property
    def total(self):
        return float(self._tree[0])

    def update(self, index, priority):
        if not 0 <= index < self.capacity:
            raise IndexError("leaf index out of range")
        if priority < 0:
            raise ValueError(f"priority cannot be negative, got {priority}")
        node = index + self.capacity - 1
        delta = priority - self._tree[node]
        self._tree[node] = priority
        while node > 0:
            node = (node - 1) // 2
            self._tree[node] += delta

    def find_prefix(self, value):
        if not 0.0 <= value <= self.total + 1e-9:
            raise ValueError(f"value {value} outside [0, {self.total}]")
        node = 0
        while node < self.capacity - 1:
            left = 2 * node + 1
            left_sum = self._tree[left]
            right_sum = self._tree[2 * node + 2]
            if right_sum <= 0.0 or (left_sum > 0.0 and value <= left_sum):
                node = left
            else:
                value -= left_sum
                node = 2 * node + 2
        return node - (self.capacity - 1)


_CAPACITIES = st.sampled_from([1, 2, 3, 5, 6, 7, 8, 13, 31, 33, 100, 20_000])
_PRIORITIES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(1e-300, 1e-3),
)


def _targets(draw, tree, n):
    """Descent values at 0, at ``total``, on leaf prefix boundaries (and
    one ulp either side) and uniformly in between."""
    total = tree.total
    leaves = tree._tree[tree.capacity - 1:]
    bounds = np.cumsum(leaves)
    picks = [0.0, total]
    for _ in range(n):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            b = float(bounds[draw(st.integers(0, len(bounds) - 1))])
            picks += [b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)]
        else:
            picks.append(draw(st.floats(0.0, 1.0)) * total)
    return np.clip(picks, 0.0, total)


@st.composite
def _tree_script(draw):
    """A capacity plus rounds of (refresh, descent values)."""
    cap = draw(_CAPACITIES)
    hot = min(cap, 40)  # few distinct leaves, so refreshes repeat them
    rounds = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 24))
        idx = draw(st.lists(
            st.one_of(st.integers(0, hot - 1), st.integers(0, cap - 1)),
            min_size=size, max_size=size,
        ))
        prios = draw(st.lists(_PRIORITIES, min_size=size, max_size=size))
        rounds.append((idx, prios))
    return cap, rounds, draw(st.data())


class TestBatchMatchesReference:
    @given(_tree_script())
    @settings(max_examples=150, deadline=None)
    def test_batch_ops_equal_sequential_reference(self, script):
        cap, rounds, data = script
        tree, ref = SumTree(cap), _ReferenceSumTree(cap)
        for idx, prios in rounds:
            tree.update_batch(np.array(idx), np.array(prios))
            for i, p in zip(idx, prios):
                ref.update(i, p)
            assert tree._tree.tobytes() == ref._tree.tobytes()
            if ref.total <= 0.0:
                continue
            values = _targets(data.draw, ref, 6)
            got = tree.find_prefix_batch(values)
            want = np.array([ref.find_prefix(v) for v in values])
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.intp

    def test_capacity_20000_refresh_with_duplicates(self):
        rng = np.random.default_rng(3)
        tree, ref = SumTree(20_000), _ReferenceSumTree(20_000)
        for _ in range(40):
            # Leaves below 12,768 sit one level above the rest.
            idx = rng.integers(0, 20_000, 128)
            idx[::2] = rng.integers(12_000, 13_500, 64)
            idx[::5] = idx[0]
            prios = rng.uniform(0.0, 3.0, 128) ** 0.6
            prios[::7] = 0.0
            tree.update_batch(idx, prios)
            for i, p in zip(idx, prios):
                ref.update(int(i), float(p))
            assert tree._tree.tobytes() == ref._tree.tobytes()
            bounds = np.linspace(0.0, ref.total, 129)
            values = rng.uniform(bounds[:-1], bounds[1:])
            np.testing.assert_array_equal(
                tree.find_prefix_batch(values),
                [ref.find_prefix(v) for v in values],
            )

    def test_scalar_methods_are_batches_of_one(self):
        tree, ref = SumTree(7), _ReferenceSumTree(7)
        for i, p in [(3, 2.0), (0, 1.5), (3, 0.25), (6, 4.0)]:
            tree.update(i, p)
            ref.update(i, p)
        assert tree._tree.tobytes() == ref._tree.tobytes()
        for v in [0.0, 1.5, 1.75, 3.0, ref.total]:
            assert tree.find_prefix(v) == ref.find_prefix(v)
        np.testing.assert_array_equal(
            tree.get_batch(np.array([3, 0, 6])), [0.25, 1.5, 4.0]
        )


class TestBatchValidation:
    def _tree(self):
        t = SumTree(5)
        t.update_batch(np.arange(5), np.arange(1.0, 6.0))
        return t

    @pytest.mark.parametrize("idx, prios, exc", [
        ([0, 5], [1.0, 1.0], IndexError),
        ([-1, 2], [1.0, 1.0], IndexError),
        ([0, 2], [1.0, -1e-12], ValueError),
        ([0, 1, 2], [1.0, 2.0], ValueError),
    ])
    def test_rejected_batch_leaves_tree_unchanged(self, idx, prios, exc):
        t = self._tree()
        before = t._tree.tobytes()
        with pytest.raises(exc):
            t.update_batch(np.array(idx), np.array(prios))
        assert t._tree.tobytes() == before

    @pytest.mark.parametrize("bad", [-1e-9, 15.0 + 1e-6, np.nan, np.inf])
    def test_descent_values_outside_total_raise(self, bad):
        t = self._tree()
        with pytest.raises(ValueError):
            t.find_prefix_batch(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            t.find_prefix(bad)

    def test_get_batch_checks_range(self):
        with pytest.raises(IndexError):
            self._tree().get_batch(np.array([0, 5]))

    def test_empty_batches(self):
        t = self._tree()
        before = t._tree.tobytes()
        t.update_batch(np.array([], dtype=np.intp), np.array([]))
        assert t._tree.tobytes() == before
        assert t.find_prefix_batch(np.array([])).shape == (0,)
