"""CDBTune baseline (Zhang et al., SIGMOD 2019).

An end-to-end DRL tuner: DDPG recommends configurations from system
metrics; experience replay uses TD-error prioritization.  Runs DeepCAT's
offline and online stages (:class:`~repro.core.deepcat.DRLTuner`) but has
neither twin critics (so it overestimates Q), nor RDPER (so sparse
high-reward transitions drown), nor the Twin-Q Optimizer (so every online
recommendation — good or bad — is paid for with a real evaluation).
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import AgentHyperParams
from repro.agents.ddpg import DDPGAgent
from repro.core.deepcat import DRLTuner
from repro.replay.per import PrioritizedReplayBuffer

__all__ = ["CDBTune"]


class CDBTune(DRLTuner):
    """DDPG + TD-error PER tuner."""

    name = "CDBTune"

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        seed: int | np.random.Generator = 0,
        hp: AgentHyperParams | None = None,
        buffer_capacity: int = 20_000,
    ):
        super().__init__(
            seed, hp,
            lambda rng, hp: DDPGAgent(state_dim, action_dim, rng, hp),
            lambda rng: PrioritizedReplayBuffer(
                buffer_capacity, state_dim, action_dim, rng
            ),
        )
