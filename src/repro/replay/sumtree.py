"""A sum-tree for O(log n) proportional sampling (PER's data structure)."""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["SumTree"]


class SumTree:
    """Complete binary tree whose leaves hold priorities.

    Internal nodes store the sum of their children, so prefix-sum lookup
    (sampling proportional to priority) and point updates are O(log n).
    Implemented over a flat numpy array (standard heap indexing).

    The batch operations are the only walkers: :meth:`find_prefix_batch`
    descends every target together, level by level, and
    :meth:`update_batch` writes the leaves in order, then adds each
    update's delta to its ancestors in update order.  Both perform the
    same float operations in the same order as one-at-a-time calls, so
    a batch is bit-identical to the sequence of scalar calls it replaces
    (:meth:`find_prefix` and :meth:`update` are batches of one).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = operator.index(capacity)
        self._tree = np.zeros(2 * capacity - 1)

    @property
    def total(self) -> float:
        """Sum of all priorities."""
        return float(self._tree[0])

    def __getitem__(self, index: int) -> float:
        if not 0 <= index < self.capacity:
            raise IndexError("leaf index out of range")
        return float(self._tree[index + self.capacity - 1])

    def get_batch(self, indices: np.ndarray) -> np.ndarray:
        """Priorities of leaves ``indices`` (one fancy index)."""
        idx = np.asarray(indices, dtype=np.intp)
        self._check_leaves(idx)
        return self._tree[idx + (self.capacity - 1)]

    def update(self, index: int, priority: float) -> None:
        """Set leaf ``index`` to ``priority`` and repair ancestors."""
        self.update_batch(np.array([index]), np.array([priority]))

    def update_batch(
        self, indices: np.ndarray, priorities: np.ndarray
    ) -> None:
        """Set leaves ``indices`` to ``priorities``, in order.

        Equivalent to ``update(i, p)`` for each pair in turn: a leaf
        repeated in the batch takes its last priority, and each delta is
        taken against the leaf's previous write.  The whole batch is
        validated before anything is written.
        """
        idx = np.asarray(indices, dtype=np.intp).ravel()
        prio = np.asarray(priorities, dtype=np.float64).ravel()
        if idx.shape != prio.shape:
            raise ValueError("indices and priorities must align")
        if idx.size == 0:
            return
        self._check_leaves(idx)
        negative = prio < 0
        if negative.any():
            bad = prio[np.argmax(negative)]
            raise ValueError(f"priority cannot be negative, got {bad}")
        tree = self._tree
        nodes = idx + (self.capacity - 1)
        # Leaves, in update order: group repeats of a leaf (a stable sort
        # keeps their order) so each write's delta is taken against the
        # previous write, and only the last write of a leaf lands.
        order = np.argsort(nodes, kind="stable")
        leaf = nodes[order]
        new = prio[order]
        last = np.ones(leaf.shape, dtype=bool)
        np.not_equal(leaf[1:], leaf[:-1], out=last[:-1])
        repeat = ~last[:-1]  # write j + 1 follows write j to the same leaf
        old = tree[leaf]
        old[1:][repeat] = new[:-1][repeat]
        delta = np.empty_like(prio)
        delta[order] = new - old
        tree[leaf[last]] = new[last]
        # Ancestors: (update, ancestor) pairs listed update by update, so
        # the unbuffered add sums every node's deltas in update order.
        # ``(node + 1) >> j`` is the 1-based heap id j levels up; 0 lies
        # past the root.
        depth = (2 * self.capacity - 1).bit_length() - 1  # deepest leaf
        up = (nodes + 1)[:, None] >> np.arange(1, depth + 1)
        up -= 1
        inside = up >= 0
        np.add.at(tree, up[inside], np.repeat(delta, depth)[inside.ravel()])

    def find_prefix(self, value: float) -> int:
        """Return the leaf where the running prefix-sum reaches ``value``.

        ``value`` must lie in [0, total]; used for proportional sampling.
        """
        return int(self.find_prefix_batch(np.array([value]))[0])

    def find_prefix_batch(self, values: np.ndarray) -> np.ndarray:
        """:meth:`find_prefix` of every element of ``values`` (one walk)."""
        value = np.array(values, dtype=np.float64).ravel()
        total = self.total
        outside = ~((value >= 0.0) & (value <= total + 1e-9))
        if outside.any():
            bad = value[np.argmax(outside)]
            raise ValueError(f"value {bad} outside [0, {total}]")
        # Heap node k sits at depth floor(log2(k + 1)), so every node
        # above depth floor(log2(capacity)) is internal.  Below it, a
        # capacity that is not a power of two has leaves at two depths.
        node = np.zeros(value.shape, dtype=np.intp)
        for _ in range(self.capacity.bit_length() - 1):
            self._descend(node, value)
        deep = np.flatnonzero(node < self.capacity - 1)
        if deep.size:  # targets still above a leaf one level down
            node_d, value_d = node[deep], value[deep]
            self._descend(node_d, value_d)
            node[deep] = node_d
        return node - (self.capacity - 1)

    def _descend(self, node: np.ndarray, value: np.ndarray) -> None:
        """Move every (internal) ``node`` one level down, in place."""
        left = node + node
        left += 1
        left_sum = self._tree[left]
        right_sum = self._tree[1:][left]  # the right child, one slot on
        # Descend right unless the right subtree has no mass or the
        # target lies within a left subtree that has some (so zero-
        # priority leaves are never returned).
        in_left = (left_sum > 0.0) & (value <= left_sum)
        right = ~((right_sum <= 0.0) | in_left)
        np.subtract(value, left_sum, out=value, where=right)
        np.add(left, right, out=node)

    def _check_leaves(self, idx: np.ndarray) -> None:
        if idx.size and (idx.min() < 0 or idx.max() >= self.capacity):
            raise IndexError("leaf index out of range")

    def max_priority(self) -> float:
        """Largest leaf priority (0 for an empty tree)."""
        return float(self._tree[self.capacity - 1 :].max())

    def min_priority(self, size: int) -> float:
        """Smallest priority among the first ``size`` occupied leaves."""
        if size <= 0:
            raise ValueError("size must be positive")
        leaves = self._tree[self.capacity - 1 : self.capacity - 1 + size]
        return float(leaves.min())
