"""Offline sample corpora: generation, storage, loading.

The paper spends "3-4 days to generate enough samples" for offline
training and feeds "thousands of offline samples" to OtterTune.  This
module makes that data a first-class artifact: generate a corpus of
(configuration, metrics, performance) triples on the simulator, persist
it as ``.npz``, and feed it back into OtterTune repositories or custom
analyses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.envs.tuning_env import TuningEnv
from repro.sim.faults import FAILURE_PERF_FACTOR

if TYPE_CHECKING:
    from repro.baselines.ottertune.tuner import OtterTune

__all__ = ["Corpus", "generate_corpus", "save_corpus", "load_corpus"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Corpus:
    """A set of offline observations for one workload pair."""

    workload_id: str  # e.g. "TS-D1"
    configs: np.ndarray  # (n, action_dim), normalized vectors
    metrics: np.ndarray  # (n, state_dim), post-run load averages
    durations: np.ndarray  # (n,), seconds (failures penalized)
    success: np.ndarray  # (n,), bool

    def __post_init__(self):
        n = self.configs.shape[0]
        if not (
            self.metrics.shape[0] == n
            and self.durations.shape == (n,)
            and self.success.shape == (n,)
        ):
            raise ValueError("corpus arrays misaligned")

    def __len__(self) -> int:
        return int(self.configs.shape[0])

    @property
    def failure_rate(self) -> float:
        return float(1.0 - self.success.mean()) if len(self) else 0.0

    @property
    def best_duration_s(self) -> float:
        ok = self.durations[self.success]
        if ok.size == 0:
            raise ValueError("corpus has no successful runs")
        return float(ok.min())

    def feed_ottertune(self, tuner: OtterTune) -> None:
        """Load every observation into an OtterTune repository."""
        for i in range(len(self)):
            tuner.observe_offline(
                self.workload_id,
                self.configs[i],
                self.metrics[i],
                float(self.durations[i]),
            )


def generate_corpus(
    env: TuningEnv,
    workload_id: str,
    n_samples: int,
    rng: np.random.Generator,
    sampler: str = "uniform",
) -> Corpus:
    """Evaluate ``n_samples`` random configurations on ``env``.

    ``sampler`` is ``"uniform"`` or ``"lhs"`` (Latin hypercube, better
    coverage per sample).  Failed runs are recorded with the
    ``FAILURE_PERF_FACTOR`` x default penalty as their duration, the
    convention the reward function uses.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if sampler == "uniform":
        vectors = env.space.sample_vectors(rng, n_samples)
    elif sampler == "lhs":
        vectors = env.space.latin_hypercube(rng, n_samples)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")

    configs = np.empty((n_samples, env.action_dim))
    metrics = np.empty((n_samples, env.state_dim))
    durations = np.empty(n_samples)
    success = np.empty(n_samples, dtype=bool)
    penalty = FAILURE_PERF_FACTOR * env.default_duration
    # The vectors are pre-drawn, so the whole corpus goes through the
    # simulator's batched fast path (bit-identical to stepping one by
    # one — see TuningEnv.step_batch).
    for i, outcome in enumerate(env.step_batch(vectors)):
        configs[i] = outcome.action
        metrics[i] = outcome.next_state
        durations[i] = outcome.duration_s if outcome.success else penalty
        success[i] = outcome.success
    return Corpus(
        workload_id=workload_id,
        configs=configs,
        metrics=metrics,
        durations=durations,
        success=success,
    )


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Persist a corpus as a compressed ``.npz`` archive."""
    meta = {
        "format_version": _FORMAT_VERSION,
        "workload_id": corpus.workload_id,
    }
    np.savez_compressed(
        Path(path),
        __meta__=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
        configs=corpus.configs,
        metrics=corpus.metrics,
        durations=corpus.durations,
        success=corpus.success,
    )


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus written by :func:`save_corpus`."""
    with np.load(Path(path)) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported corpus version {meta.get('format_version')}"
            )
        return Corpus(
            workload_id=meta["workload_id"],
            configs=archive["configs"],
            metrics=archive["metrics"],
            durations=archive["durations"],
            success=archive["success"].astype(bool),
        )
