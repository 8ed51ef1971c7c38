"""Time-varying tuning environment.

The paper's motivation (§1): "the performance of a big data framework
under the same configuration is highly related to the workload
characteristics (e.g., workload type and input data size) ... which may
frequently change with time in practice."  This environment makes that
concrete: a schedule of (workload, dataset) phases, each active for a
fixed number of steps.  The tuner sees the same interface as
:class:`~repro.envs.tuning_env.TuningEnv`; rewards are always relative
to the *currently active* phase's default execution time, so a
configuration that was great for the old phase earns whatever it is
worth under the new one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.hardware import ClusterSpec
from repro.config.space import ConfigurationSpace
from repro.envs.tuning_env import StepOutcome, TuningEnv
from repro.factory import EXPECTED_SPEEDUPS
from repro.workloads.registry import get_workload

__all__ = ["Phase", "DynamicTuningEnv"]


@dataclass(frozen=True)
class Phase:
    """One segment of the schedule."""

    workload: str  # WC/TS/PR/KM
    dataset: str  # D1/D2/D3
    steps: int

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("phase must last at least one step")


class DynamicTuningEnv:
    """A sequence of TuningEnv phases behind one environment interface."""

    def __init__(
        self,
        phases: list[Phase],
        cluster: ClusterSpec,
        space: ConfigurationSpace,
        seed: int = 0,
        noise_sigma: float = 0.10,
    ):
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = list(phases)
        self.space = space
        rng = np.random.default_rng(seed)
        self._envs = []
        for i, phase in enumerate(self.phases):
            self._envs.append(
                TuningEnv(
                    workload=get_workload(phase.workload),
                    dataset=phase.dataset,
                    cluster=cluster,
                    space=space,
                    rng=np.random.default_rng(
                        int(rng.integers(0, 2**31 - 1))
                    ),
                    expected_speedup=EXPECTED_SPEEDUPS.get(
                        phase.workload, 2.0
                    ),
                    noise_sigma=noise_sigma,
                )
            )
        self._phase_idx = 0
        self._steps_in_phase = 0
        self.steps_taken = 0
        self.total_evaluation_seconds = 0.0
        #: (step index, phase index) transitions, for reports
        self.switch_log: list[tuple[int, int]] = [(0, 0)]

    # -- interface parity with TuningEnv ----------------------------------

    @property
    def state_dim(self) -> int:
        return self._envs[0].state_dim

    @property
    def action_dim(self) -> int:
        return self.space.dim

    @property
    def current_phase(self) -> Phase:
        return self.phases[self._phase_idx]

    @property
    def current_env(self) -> TuningEnv:
        return self._envs[self._phase_idx]

    @property
    def state(self) -> np.ndarray:
        return self.current_env.state

    @property
    def default_duration(self) -> float:
        """The active phase's default execution time."""
        return self.current_env.default_duration

    @property
    def exhausted(self) -> bool:
        """True once every phase has used up its steps."""
        return (
            self._phase_idx == len(self.phases) - 1
            and self._steps_in_phase >= self.current_phase.steps
        )

    def step(self, action: np.ndarray) -> StepOutcome:
        """Evaluate on the active phase, advancing the schedule."""
        if self.exhausted:
            raise RuntimeError("schedule exhausted; no phases left")
        if self._steps_in_phase >= self.current_phase.steps:
            self._phase_idx += 1
            self._steps_in_phase = 0
            self.switch_log.append((self.steps_taken, self._phase_idx))
        outcome = self.current_env.step(action)
        self._steps_in_phase += 1
        self.steps_taken += 1
        self.total_evaluation_seconds += outcome.duration_s
        return outcome

    @property
    def simulator(self):
        """Active phase's simulator (interface parity with TuningEnv)."""
        return self.current_env.simulator
