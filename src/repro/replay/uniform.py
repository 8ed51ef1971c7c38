"""Conventional uniform-random experience replay."""

from __future__ import annotations

import numpy as np

from repro.replay.base import (
    ReplayBatch,
    ReplayBuffer,
    RingStorage,
    Transition,
)

__all__ = ["UniformReplayBuffer"]


class UniformReplayBuffer(ReplayBuffer):
    """The off-policy default: sample transitions uniformly at random."""

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
    ):
        self._storage = RingStorage(capacity, state_dim, action_dim)
        self._rng = rng

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def capacity(self) -> int:
        return self._storage.capacity

    def push(self, transition: Transition, *, record: bool = True) -> None:
        """Insert ``transition`` (uniform replay publishes no telemetry)."""
        self._storage.push(transition)

    def sample(
        self,
        batch_size: int,
        out: ReplayBatch | None = None,
        *,
        record: bool = True,
    ) -> ReplayBatch:
        """Draw ``batch_size`` transitions uniformly with replacement,
        into ``out``'s rows when given (no telemetry to publish)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(self) == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, len(self), size=batch_size)
        if out is None:
            return self._storage.gather(idx)
        self._storage.gather_into(idx, out, 0)
        return out

    def can_sample(self, batch_size: int) -> bool:
        return len(self) >= batch_size
