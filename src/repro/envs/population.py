"""A population of independent tuning environments stepped as one batch.

:class:`VectorTuningEnv` holds N fully independent
:class:`~repro.envs.tuning_env.TuningEnv` sessions — each with its own
state tracker, simulator RNG, fault injector, and reward baseline — and
evaluates one action per session through a *single* analytic simulator
pass (:func:`repro.sim.batch.evaluate_population`).

The contract is bit-identity: ``VectorTuningEnv([e0, .., eN]).step(A)``
produces exactly ``[e0.step(A[0]), .., eN.step(A[N])]`` field-for-field,
including every RNG stream (simulator noise/tails, fault perturbation,
metric dropout, load-average evolution), because

* the deterministic pass-1 stage math is row-independent and shared, and
* everything stochastic is drawn per session, in session order, from
  that session's own generators — the streams are disjoint objects, so
  batching across sessions cannot reorder any single session's draws.

:func:`step_rows` is the one batch step: ``VectorTuningEnv.step`` runs
it over distinct sessions, and ``TuningEnv.step_batch`` over one
session repeated.

Pinned by ``tests/test_population_equivalence.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config.space import ConfigurationSpace
from repro.envs.tuning_env import StepOutcome, TuningEnv
from repro.sim.batch import evaluate_population

__all__ = ["VectorTuningEnv", "step_rows"]


def step_rows(
    space: ConfigurationSpace,
    envs: Sequence[TuningEnv],
    actions: np.ndarray,
) -> list[StepOutcome]:
    """Step ``envs[r]`` with ``actions[r]`` through one simulator pass.

    Clip, decode once, :func:`~repro.sim.batch.evaluate_population`,
    then each environment absorbs its row, in row order.  ``envs`` may
    repeat one environment: its rows then draw from its streams as that
    many scalar steps would.
    """
    mat = np.asarray(actions, dtype=np.float64)
    if mat.shape != (len(envs), space.dim):
        raise ValueError(
            f"expected shape ({len(envs)}, {space.dim}), got {mat.shape}"
        )
    vecs = np.clip(mat, 0.0, 1.0)
    columns = space.decode_columns(vecs)
    configs = space.rows(columns)
    # Through this module's binding, which the benchmark's ``--trace``
    # layers patch to count each batch row once.
    results = evaluate_population(
        [env.simulator for env in envs], configs, columns
    )
    return [
        env._absorb_result(result, vecs[r].copy(), configs[r])
        for r, (env, result) in enumerate(zip(envs, results))
    ]


class VectorTuningEnv:
    """N independent :class:`TuningEnv` sessions stepped in lockstep.

    All sessions must share the same workload, dataset, cluster, and
    configuration space (that is what makes the analytic pass shareable);
    they must be *distinct objects* (sessions sharing an environment
    would interleave one RNG stream and break sequential equivalence).
    """

    def __init__(self, envs: Sequence[TuningEnv]):
        envs = list(envs)
        if not envs:
            raise ValueError("population needs at least one environment")
        if len({id(e) for e in envs}) != len(envs):
            raise ValueError(
                "population environments must be distinct objects"
            )
        lead = envs[0]
        for env in envs[1:]:
            if (
                env.simulator.workload.code != lead.simulator.workload.code
                or env.simulator.dataset.label != lead.simulator.dataset.label
                or env.cluster != lead.cluster
                or env.space.dim != lead.space.dim
            ):
                raise ValueError(
                    "population environments must share "
                    "workload/dataset/cluster/space"
                )
        self.envs = envs
        self.space = lead.space

    def __len__(self) -> int:
        return len(self.envs)

    @property
    def states(self) -> np.ndarray:
        """Stacked clean states, one row per session (copies)."""
        return np.stack([env.state for env in self.envs])

    @property
    def observations(self) -> np.ndarray:
        """Stacked last observations (possibly fault-corrupted; copies)."""
        return np.stack([env.observation for env in self.envs])

    def attach_telemetry(self, telemetry) -> None:
        for env in self.envs:
            env.attach_telemetry(telemetry)

    def step(
        self,
        actions: np.ndarray,
        indices: Sequence[int] | None = None,
    ) -> list[StepOutcome]:
        """Step every session (or the ``indices`` subset) with one action
        per session.

        Bit-identical to ``[self.envs[i].step(a) for i, a in
        zip(indices, actions)]``; see the module docstring for why.
        """
        envs = self.envs if indices is None else [
            self.envs[i] for i in indices
        ]
        return step_rows(self.space, envs, actions)
