"""Transition records and the batched storage backing every buffer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Transition", "ReplayBatch", "RingStorage", "ReplayBuffer"]


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s') interaction.

    Configuration tuning has no terminal states (episodes are bounded by
    step budgets, not by the MDP), so there is no ``done`` flag; the
    bootstrap always continues.
    """

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray


@dataclass(frozen=True)
class ReplayBatch:
    """A sampled minibatch in structure-of-arrays layout.

    Vectorized over the batch dimension so agents do a single forward /
    backward pass per update (see the hpc guides: no per-sample loops).
    """

    states: np.ndarray  # (m, state_dim)
    actions: np.ndarray  # (m, action_dim)
    rewards: np.ndarray  # (m, 1)
    next_states: np.ndarray  # (m, state_dim)
    #: indices into the owning buffer (for PER priority updates)
    indices: np.ndarray | None = None
    #: importance-sampling weights (PER); None for unweighted buffers
    weights: np.ndarray | None = None

    def __len__(self) -> int:
        return self.states.shape[0]


class ReplayBuffer:
    """The telemetry split every buffer offers.

    ``push`` and ``sample`` publish their telemetry as they run.  With
    ``record=False`` they only move data, and :meth:`record_push` /
    :meth:`record_sample` publish the same telemetry later: a population
    pushes and samples for all its members first, then publishes each
    member's telemetry in member order.  A buffer without telemetry
    keeps the no-ops below.
    """

    def record_push(self) -> None:
        """Publish what the last ``push(..., record=False)`` held back."""

    def record_sample(self, batch_size: int) -> None:
        """Publish what one ``sample(batch_size, record=False)`` since the
        last push held back."""


class RingStorage:
    """Fixed-capacity structure-of-arrays transition store.

    Pre-allocates numpy arrays and overwrites the oldest entry when full —
    no per-push allocation, O(1) insertion, vectorized gather on sample.

    Only rows ``[0, len)`` hold transitions: the arrays are allocated
    uninitialized, every read is bounded by ``len``, and pickles and deep
    copies carry the filled rows alone.
    """

    _ARRAYS = ("_states", "_actions", "_rewards", "_next_states")

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if state_dim <= 0 or action_dim <= 0:
            raise ValueError("state/action dims must be positive")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._states = np.empty((capacity, state_dim))
        self._actions = np.empty((capacity, action_dim))
        self._rewards = np.empty((capacity, 1))
        self._next_states = np.empty((capacity, state_dim))
        self._next = 0
        self._size = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._ARRAYS:
            state[name] = state[name][: self._size]
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles written before only filled rows were stored hold
        # full-capacity arrays; those load as they are.
        self.__dict__.update(state)
        for name in self._ARRAYS:
            filled = state[name]
            if len(filled) < self.capacity:
                full = np.empty((self.capacity, *filled.shape[1:]),
                                dtype=filled.dtype)
                full[: len(filled)] = filled
                setattr(self, name, full)

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> int:
        """Insert ``t``; return the slot index it landed in."""
        if t.state.shape != (self.state_dim,):
            raise ValueError(
                f"state shape {t.state.shape} != ({self.state_dim},)"
            )
        if t.action.shape != (self.action_dim,):
            raise ValueError(
                f"action shape {t.action.shape} != ({self.action_dim},)"
            )
        idx = self._next
        self._states[idx] = t.state
        self._actions[idx] = t.action
        self._rewards[idx, 0] = t.reward
        self._next_states[idx] = t.next_state
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        return idx

    def _check_indices(self, idx: np.ndarray) -> None:
        # Single vectorized validity pass (one mask, no min/max re-scans).
        if idx.size and np.any((idx < 0) | (idx >= self._size)):
            raise IndexError("replay index out of range")

    def gather(self, indices: np.ndarray) -> ReplayBatch:
        """Vectorized fetch of the given slots."""
        idx = np.asarray(indices, dtype=np.intp)
        self._check_indices(idx)
        return ReplayBatch(
            states=self._states[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_states=self._next_states[idx],
            indices=idx,
        )

    def gather_into(self, indices: np.ndarray, batch: ReplayBatch, offset: int) -> None:
        """Fetch the given slots into ``batch`` rows starting at ``offset``.

        Allocation-free variant of :meth:`gather` for callers that own a
        preallocated :class:`ReplayBatch` (see RDPER's batched sample).
        """
        idx = np.asarray(indices, dtype=np.intp)
        self._check_indices(idx)
        self.gather_into_trusted(idx, batch, offset)

    def gather_into_trusted(
        self, idx: np.ndarray, batch: ReplayBatch, offset: int
    ) -> None:
        """:meth:`gather_into` minus the occupancy check, for callers
        whose indices are in-range by construction (RDPER draws them as
        ``rng.integers(0, len(pool))``).  The ``ndarray.take`` method
        skips numpy's dispatch wrapper and still hard-errors on indices
        past the array's capacity (``mode='raise'``)."""
        end = offset + idx.size
        self._states.take(idx, axis=0, out=batch.states[offset:end])
        self._actions.take(idx, axis=0, out=batch.actions[offset:end])
        self._rewards.take(idx, axis=0, out=batch.rewards[offset:end])
        self._next_states.take(idx, axis=0, out=batch.next_states[offset:end])

    def reward_at(self, index: int) -> float:
        if not 0 <= index < self._size:
            raise IndexError("index out of range")
        return float(self._rewards[index, 0])
