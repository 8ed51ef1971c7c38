"""The configuration-tuning environment.

State: per-node ``uptime`` load averages (normalized).
Action: a point in [0,1]^32, decoded into a configuration.
Reward: Eq. (1) against the default execution time.

Episodes are step sequences of configuration evaluations; there is no
terminal state in the MDP sense — the paper bounds episodes by a step
count, which the trainer controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cluster.hardware import ClusterSpec
from repro.cluster.state import ClusterStateTracker
from repro.config.space import ConfigurationSpace
from repro.envs.reward import RewardFunction
from repro.faults import FaultInjector, FaultProfile, get_profile
from repro.sim.engine import SparkSimulator
from repro.sim.result import ExecutionResult
from repro.workloads.base import DatasetSpec, Workload

__all__ = ["TuningEnv", "StepOutcome"]


@dataclass(frozen=True)
class StepOutcome:
    """Everything one environment step produced."""

    state: np.ndarray  # state the action was taken in
    action: np.ndarray  # normalized configuration vector
    reward: float
    next_state: np.ndarray
    duration_s: float  # evaluation cost of this step (the tuning cost)
    success: bool
    config: dict[str, Any]
    result: ExecutionResult
    #: chaos faults injected into this step ("crash", "hang",
    #: "executor-loss", "straggler", "metric-dropout"); empty when clean
    faults: tuple[str, ...] = ()


class TuningEnv:
    """Online/offline tuning environment over the simulated cluster."""

    def __init__(
        self,
        workload: Workload,
        dataset: DatasetSpec | str,
        cluster: ClusterSpec,
        space: ConfigurationSpace,
        rng: np.random.Generator,
        expected_speedup: float = 4.0,
        noise_sigma: float = 0.10,
        fault_profile: FaultProfile | str | None = None,
    ):
        # Always spawn three children: the first two match the historical
        # spawn(2) exactly (SeedSequence spawn keys are positional), so
        # fault-free environments stay bit-identical to older builds.
        state_rng, sim_rng, fault_rng = rng.spawn(3)
        self.space = space
        self.simulator = SparkSimulator(
            workload, dataset, cluster, sim_rng, noise_sigma=noise_sigma
        )
        self.cluster = cluster
        self._tracker = ClusterStateTracker(cluster, state_rng)
        default_perf = self.simulator.default_duration(space)
        self.reward_fn = RewardFunction(default_perf, expected_speedup)
        self.fault_profile = get_profile(fault_profile)
        self._fault_injector = FaultInjector(self.fault_profile, fault_rng)
        self._state = self._tracker.reset()
        self._last_observation: np.ndarray | None = None
        self.total_evaluation_seconds = 0.0
        self.steps_taken = 0

    @property
    def state_dim(self) -> int:
        return self._tracker.dim

    @property
    def action_dim(self) -> int:
        return self.space.dim

    @property
    def state(self) -> np.ndarray:
        """Current internal state (copy); always clean."""
        return self._state.copy()

    @property
    def observation(self) -> np.ndarray:
        """What the metric collector last reported (copy).

        Equals :attr:`state` until a step runs; afterwards it is that
        step's returned ``next_state``, which metric dropout may have
        corrupted with NaNs.  Checkpointed sessions resume from this —
        the corruption the agent saw is part of the trajectory.
        """
        if self._last_observation is None:
            return self.state
        return self._last_observation.copy()

    @property
    def default_duration(self) -> float:
        return self.reward_fn.default_perf

    def reset(self) -> np.ndarray:
        """Reset the load-average history (a fresh tuning request)."""
        self._state = self._tracker.reset()
        self._last_observation = None
        return self.state

    def attach_telemetry(self, telemetry) -> None:
        """Propagate a :class:`~repro.telemetry.context.RunContext` to
        the underlying simulator (stage timings), which also counts this
        environment's fault injections.

        Called automatically by :class:`~repro.core.offline.OfflineTrainer`
        and :class:`~repro.core.online.OnlineTuner`; passing ``None``
        detaches back to the null context.
        """
        from repro.telemetry.context import NULL_CONTEXT

        self.simulator.telemetry = (
            telemetry if telemetry is not None else NULL_CONTEXT
        )

    def step(self, action: np.ndarray) -> StepOutcome:
        """Evaluate the configuration encoded by ``action``.

        The action is clipped into [0,1]^d (mirroring the paper's boundary
        clipping for out-of-scope recommendations), decoded, and run on
        the cluster.
        """
        vec = self.space.clip_vector(np.asarray(action, dtype=np.float64))
        config = self.space.decode(vec)
        result = self.simulator.evaluate(config)
        return self._absorb_result(result, vec, config)

    def step_batch(self, actions: np.ndarray) -> list[StepOutcome]:
        """Evaluate ``n`` actions through the vectorized simulator path.

        This is the population's batch step
        (:func:`~repro.envs.population.step_rows`) with this environment
        on every row.  Bit-identical to ``[self.step(a) for a in
        actions]``: the analytic stage math is broadcast over the
        candidate axis, while every RNG stream (measurement noise and
        straggler tails on the simulator generator, fault perturbation
        and metric dropout on the fault generator, load-average
        evolution on the state generator) is drawn per-candidate in the
        exact scalar order.
        """
        from repro.envs.population import step_rows

        mat = np.asarray(actions, dtype=np.float64)
        rows = len(mat) if mat.ndim else 0
        return step_rows(self.space, [self] * rows, mat)

    def _absorb_result(
        self,
        result: ExecutionResult,
        vec: np.ndarray,
        config: dict[str, Any],
    ) -> StepOutcome:
        """Turn one clean simulator result into this environment's step.

        Every step comes through here: :meth:`step`, :meth:`step_batch`
        and the population environment
        (:class:`~repro.envs.population.VectorTuningEnv`).  The fault
        generator draws the result's perturbation before the
        observation's dropout, so its stream has one order whichever
        path evaluated the configuration.
        """
        prev_state = self.state
        result, injected = self._fault_injector.perturb_result(result)
        for kind in injected:
            self._count_faults(kind)
        reward = self.reward_fn(result.duration_s, success=result.success)
        demand = (
            result.cpu_demand_per_node
            if result.cpu_demand_per_node.size
            else np.full(self.cluster.n_nodes, 0.1)
        )
        # The tracker always folds in the true demand — the cluster's
        # load exists whether or not the metric collector sees it; only
        # the *observation* handed back may be corrupted.
        self._state = self._tracker.observe(demand)
        observation, n_dropped = self._fault_injector.corrupt_state(
            self.state
        )
        self._last_observation = observation
        faults = result.injected_faults
        if n_dropped:
            faults = (*faults, "metric-dropout")
            self._count_faults("metric-dropout", n_dropped)
        self.total_evaluation_seconds += result.duration_s
        self.steps_taken += 1
        return StepOutcome(
            state=prev_state,
            action=vec,
            reward=float(reward),
            next_state=observation,
            duration_s=result.duration_s,
            success=result.success,
            config=config,
            result=result,
            faults=faults,
        )

    def _count_faults(self, kind: str, amount: float = 1.0) -> None:
        self.simulator.telemetry.count(
            "faults.injected_total",
            amount,
            help="stochastic chaos injections by kind",
            kind=kind,
        )

    def __setstate__(self, state: dict) -> None:
        # Checkpoints written before the environment held its simulator
        # pickle it inside a ``runner`` (loaded as a plain namespace by
        # the checkpoint reader), and that simulator still carries this
        # environment's fault injector, which the simulator no longer
        # applies.
        runner = state.pop("runner", None)
        if runner is not None:
            state["simulator"] = runner.simulator
            vars(runner.simulator).pop("fault_injector", None)
        self.__dict__.update(state)
