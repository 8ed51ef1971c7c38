"""TD-error prioritized experience replay (Schaul et al. 2015).

This is the replay mechanism the paper attributes to CDBTune-style
tuners: transitions are sampled proportionally to ``(|TD error| + ε)^α``
with importance-sampling weights annealed by β_IS.  DeepCAT's RDPER
replaces this with a reward-threshold scheme (see ``rdper.py``).
"""

from __future__ import annotations

import numpy as np

from repro.replay.base import (
    ReplayBatch,
    ReplayBuffer,
    RingStorage,
    Transition,
)
from repro.replay.sumtree import SumTree

__all__ = ["PrioritizedReplayBuffer"]


class PrioritizedReplayBuffer(ReplayBuffer):
    """Proportional-variant PER over a sum-tree."""

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        alpha: float = 0.6,
        beta_is: float = 0.4,
        beta_is_increment: float = 1e-4,
        epsilon: float = 1e-3,
    ):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {alpha}")
        if not 0.0 <= beta_is <= 1.0:
            raise ValueError(f"beta_is must be in [0,1], got {beta_is}")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self._storage = RingStorage(capacity, state_dim, action_dim)
        self._tree = SumTree(capacity)
        self._rng = rng
        self.alpha = alpha
        self.beta_is = beta_is
        self.beta_is_increment = beta_is_increment
        self.epsilon = epsilon

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def capacity(self) -> int:
        return self._storage.capacity

    def push(self, transition: Transition, *, record: bool = True) -> None:
        """Insert with max priority so new transitions are seen at least
        once (PER publishes no telemetry)."""
        idx = self._storage.push(transition)
        prio = self._tree.max_priority()
        if prio <= 0.0:
            prio = 1.0
        self._tree.update(idx, prio)

    def sample(self, batch_size: int) -> ReplayBatch:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        n = len(self)
        if n == 0:
            raise ValueError("cannot sample from an empty buffer")
        total = self._tree.total
        # Stratified sampling over the priority mass.
        bounds = np.linspace(0.0, total, batch_size + 1)
        targets = self._rng.uniform(bounds[:-1], bounds[1:])
        indices = self._tree.find_prefix_batch(targets)
        np.minimum(indices, n - 1, out=indices)

        # Importance-sampling weights, normalized by the max weight.
        probs = self._tree.get_batch(indices) / max(total, 1e-12)
        probs = np.maximum(probs, 1e-12)
        weights = (n * probs) ** (-self.beta_is)
        weights /= weights.max()
        self.beta_is = min(1.0, self.beta_is + self.beta_is_increment)

        batch = self._storage.gather(indices)
        return ReplayBatch(
            states=batch.states,
            actions=batch.actions,
            rewards=batch.rewards,
            next_states=batch.next_states,
            indices=indices,
            weights=weights[:, None],
        )

    def update_priorities(
        self, indices: np.ndarray, td_errors: np.ndarray
    ) -> None:
        """Refresh priorities from new TD errors after a learning step."""
        td = np.abs(np.asarray(td_errors, dtype=np.float64)).ravel()
        idx = np.asarray(indices, dtype=np.intp).ravel()
        if td.shape != idx.shape:
            raise ValueError("indices and td_errors must align")
        # One scalar power per element: numpy's array ``**`` may take a
        # SIMD path that rounds differently from C ``pow``, and
        # priorities are part of the bit-identical replay contract.
        base = (td + self.epsilon).tolist()
        self._tree.update_batch(idx, [b**self.alpha for b in base])

    def can_sample(self, batch_size: int) -> bool:
        return len(self) >= batch_size
