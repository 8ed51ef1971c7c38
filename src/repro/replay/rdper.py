"""RDPER — the paper's reward-driven prioritized experience replay (§3.3).

Transitions with reward ≥ ``R_th`` go to the high-reward pool ``P_high``,
the rest to ``P_low``.  Each batch of size m draws ``β·m`` transitions
from ``P_high`` and ``(1-β)·m`` from ``P_low``, guaranteeing the ratio of
the rare but valuable high-reward experiences in every update — this is
the paper's replacement for TD-error PER, motivated by the fact that the
deterministic policy gradient (Eq. 4) extracts the most improvement from
transitions with large Q, i.e. large reward.

β = 0.6 is the paper's tuned value (Figure 11); ``R_th`` splits
"close-to-optimal" from "sub-optimal" rewards.
"""

from __future__ import annotations

import numpy as np

from repro.replay.base import (
    ReplayBatch,
    ReplayBuffer,
    RingStorage,
    Transition,
)

__all__ = ["RewardDrivenReplayBuffer"]


class RewardDrivenReplayBuffer(ReplayBuffer):
    """Dual-pool reward-threshold replay."""

    def __init__(
        self,
        capacity: int,
        state_dim: int,
        action_dim: int,
        rng: np.random.Generator,
        reward_threshold: float = 0.3,
        beta: float = 0.6,
    ):
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0,1], got {beta}")
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        # Split capacity: high-reward transitions are rare, so a smaller
        # dedicated pool suffices and keeps them resident much longer than
        # a shared ring would.
        high_cap = max(1, capacity // 4)
        low_cap = max(1, capacity - high_cap)
        self._high = RingStorage(high_cap, state_dim, action_dim)
        self._low = RingStorage(low_cap, state_dim, action_dim)
        self._rng = rng
        self.reward_threshold = float(reward_threshold)
        self.beta = float(beta)
        # Preallocated sample workspaces keyed by batch size: both pools
        # gather straight into one ReplayBatch — no per-sample
        # concatenate.  A batch stays valid until the next sample() of
        # the same size (every in-repo caller consumes it immediately).
        self._batches: dict[int, ReplayBatch] = {}
        # Pushes since P_high last accepted a transition — the
        # staleness signal the diagnostics pillar watches.
        self._pushes_since_high = 0
        from repro.telemetry.context import NULL_CONTEXT

        self._telemetry = NULL_CONTEXT

    def __getstate__(self) -> dict:
        # The sample workspaces are written before they are read, so
        # pickles and deep copies carry them empty.
        return {**self.__dict__, "_batches": {}}

    def set_telemetry(self, telemetry) -> None:
        """Attach a :class:`~repro.telemetry.context.RunContext`.

        The buffer then publishes its pool sizes as gauges and the
        realized per-batch high-reward fraction (the paper's β) as a
        histogram — Figure 11's signal, live.
        """
        from repro.telemetry.context import NULL_CONTEXT

        self._telemetry = telemetry if telemetry is not None else NULL_CONTEXT

    def __len__(self) -> int:
        return len(self._high) + len(self._low)

    @property
    def high_size(self) -> int:
        return len(self._high)

    @property
    def low_size(self) -> int:
        return len(self._low)

    @property
    def capacity(self) -> int:
        return self._high.capacity + self._low.capacity

    def push(self, transition: Transition, *, record: bool = True) -> None:
        """Route the transition by its reward against ``R_th``."""
        if transition.reward >= self.reward_threshold:
            self._high.push(transition)
            self._pushes_since_high = 0
        else:
            self._low.push(transition)
            self._pushes_since_high += 1
        if record:
            self.record_push()

    def record_push(self) -> None:
        """Publish the pool-size gauges a push publishes."""
        t = self._telemetry
        t.gauge_set(
            "replay.rdper_high_size", len(self._high),
            help="P_high occupancy",
        )
        t.gauge_set(
            "replay.rdper_low_size", len(self._low),
            help="P_low occupancy",
        )

    def _batch_workspace(self, batch_size: int) -> ReplayBatch:
        batch = self._batches.get(batch_size)
        if batch is None:
            batch = self._batches[batch_size] = ReplayBatch(
                states=np.empty((batch_size, self._high.state_dim)),
                actions=np.empty((batch_size, self._high.action_dim)),
                rewards=np.empty((batch_size, 1)),
                next_states=np.empty((batch_size, self._high.state_dim)),
            )
        return batch

    def _split(self, batch_size: int) -> tuple[int, int]:
        """``(n_high, n_low)`` of a batch drawn now."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if len(self) == 0:
            raise ValueError("cannot sample from an empty buffer")
        n_high = int(round(self.beta * batch_size))
        n_low = batch_size - n_high
        if len(self._high) == 0:
            n_high, n_low = 0, batch_size
        elif len(self._low) == 0:
            n_high, n_low = batch_size, 0
        return n_high, n_low

    def sample(
        self,
        batch_size: int,
        out: ReplayBatch | None = None,
        *,
        record: bool = True,
    ) -> ReplayBatch:
        """Draw β·m from P_high and (1−β)·m from P_low.

        When one pool cannot supply its share (early training), the other
        pool covers the deficit, so the batch size is always honoured.
        The rows land in ``out`` when it is given, else in a workspace
        that stays valid until the next sample of the same size.
        """
        # All validation happens before any telemetry is emitted, so an
        # impossible sample never records a realized-beta observation.
        n_high, n_low = self._split(batch_size)
        if record:
            self.record_sample(batch_size)
        batch = out if out is not None else self._batch_workspace(batch_size)
        if n_high:
            idx = self._rng.integers(0, len(self._high), size=n_high)
            self._high.gather_into_trusted(idx, batch, 0)
        if n_low:
            idx = self._rng.integers(0, len(self._low), size=n_low)
            self._low.gather_into_trusted(idx, batch, n_high)
        return batch

    def record_sample(self, batch_size: int) -> None:
        """Publish the realized β and the RDPER diagnostics of a sample."""
        n_high = self._split(batch_size)[0]
        self._telemetry.observe(
            "replay.rdper_realized_beta",
            n_high / batch_size,
            help="actual high-reward fraction of each sampled batch",
        )
        self._telemetry.diagnostics.observe_rdper(
            realized_beta=n_high / batch_size,
            beta=self.beta,
            staleness=self._pushes_since_high,
            high_size=len(self._high),
            low_size=len(self._low),
        )

    def can_sample(self, batch_size: int) -> bool:
        return len(self) >= batch_size
