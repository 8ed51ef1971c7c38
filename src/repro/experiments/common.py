"""Shared experiment infrastructure: scales, model cache, session runners.

Offline training is the expensive part of every experiment, and several
figures reuse the same offline model (Figures 5-8 all start from the
DeepCAT model of a workload pair).  The cache keys trained tuners by
their full construction recipe so repeated ``run()`` calls within one
process (e.g. the benchmark suite) train each model once.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baselines.cdbtune import CDBTune
from repro.cluster.hardware import CLUSTER_A, ClusterSpec
from repro.core.deepcat import DeepCAT
from repro.core.result import OnlineSession
from repro.factory import make_env

if TYPE_CHECKING:
    from repro.baselines.ottertune.tuner import OtterTune

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "train_deepcat",
    "train_cdbtune",
    "train_ottertune",
    "online_env",
    "clear_model_cache",
    "fork_tuner",
    "describe_session",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Budget preset for experiments.

    ``quick`` keeps the whole benchmark suite in minutes; ``full``
    approaches the paper's budgets (thousands of offline iterations,
    multiple seeds).
    """

    name: str
    offline_iterations: int
    ottertune_samples: int
    seeds: tuple[int, ...]
    online_steps: int = 5

    def __post_init__(self):
        if self.offline_iterations <= 0 or self.ottertune_samples <= 0:
            raise ValueError("budgets must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")


SCALES: dict[str, ExperimentScale] = {
    "quick": ExperimentScale(
        name="quick",
        offline_iterations=700,
        ottertune_samples=300,
        seeds=(0,),
    ),
    "standard": ExperimentScale(
        name="standard",
        offline_iterations=1500,
        ottertune_samples=500,
        seeds=(0, 1),
    ),
    "full": ExperimentScale(
        name="full",
        offline_iterations=2500,
        ottertune_samples=800,
        seeds=(0, 1, 2),
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise KeyError(
            f"unknown scale {scale!r}; have {sorted(SCALES)}"
        ) from None


# --------------------------------------------------------------------- cache

_MODEL_CACHE: dict[tuple, object] = {}


def clear_model_cache() -> None:
    """Drop all cached trained tuners (frees memory between experiments)."""
    _MODEL_CACHE.clear()


def _offline_env(
    workload: str, dataset: str, seed: int, cluster: ClusterSpec
):
    return make_env(workload, dataset, cluster=cluster, seed=seed)


def train_deepcat(
    workload: str,
    dataset: str,
    seed: int,
    scale: str | ExperimentScale = "quick",
    cluster: ClusterSpec = CLUSTER_A,
    iterations: int | None = None,
    **deepcat_kwargs,
) -> DeepCAT:
    """Train (or fetch from cache) a DeepCAT model for a workload pair."""
    sc = get_scale(scale)
    iters = iterations if iterations is not None else sc.offline_iterations
    key = (
        "deepcat", workload, dataset, seed, iters, cluster.name,
        tuple(sorted(deepcat_kwargs.items())),
    )
    if key not in _MODEL_CACHE:
        env = _offline_env(workload, dataset, seed, cluster)
        tuner = DeepCAT.from_env(env, seed=seed, **deepcat_kwargs)
        tuner.train_offline(env, iters)
        _MODEL_CACHE[key] = tuner
    return _MODEL_CACHE[key]  # type: ignore[return-value]


def train_cdbtune(
    workload: str,
    dataset: str,
    seed: int,
    scale: str | ExperimentScale = "quick",
    cluster: ClusterSpec = CLUSTER_A,
    iterations: int | None = None,
) -> CDBTune:
    """Train (or fetch from cache) a CDBTune model for a workload pair."""
    sc = get_scale(scale)
    iters = iterations if iterations is not None else sc.offline_iterations
    key = ("cdbtune", workload, dataset, seed, iters, cluster.name)
    if key not in _MODEL_CACHE:
        env = _offline_env(workload, dataset, seed, cluster)
        tuner = CDBTune.from_env(env, seed=seed)
        tuner.train_offline(env, iters)
        _MODEL_CACHE[key] = tuner
    return _MODEL_CACHE[key]  # type: ignore[return-value]


def _ottertune_corpus_pairs(workload: str, dataset: str) -> list[tuple[str, str]]:
    """Repository contents for a tuning request on (workload, dataset).

    OtterTune's repository holds *previously tuned* workloads, and the
    online stage maps the new request onto the most similar of them.
    Feeding it pristine samples of the exact target pair would make the
    mapping trivial and the GP unrealistically strong, so the corpus is
    every other workload at the target's input scale plus the target
    workload at a *different* input scale (the paper's workload-mapping
    scenario: same application, drifted data size).
    """
    other_ds = "D2" if dataset != "D2" else "D1"
    pairs = [(workload, other_ds)]
    pairs.extend(
        (w, dataset) for w in ("WC", "TS", "PR", "KM") if w != workload
    )
    return pairs


def train_ottertune(
    workload: str,
    dataset: str,
    seed: int,
    scale: str | ExperimentScale = "quick",
    cluster: ClusterSpec = CLUSTER_A,
    samples: int | None = None,
) -> OtterTune:
    """Build (or fetch) an OtterTune repository for a workload pair.

    The total sample budget is split across the repository's corpus
    pairs (see :func:`_ottertune_corpus_pairs`).
    """
    # Here, not at module level: OtterTune's GP and EI stages load scipy,
    # so its ~1 s import lands in this offline stage and not in a timed
    # recommendation or in processes that never run OtterTune.
    from repro.baselines.ottertune.tuner import OtterTune

    sc = get_scale(scale)
    n = samples if samples is not None else sc.ottertune_samples
    key = ("ottertune", workload, dataset, seed, n, cluster.name)
    if key not in _MODEL_CACHE:
        tuner = None
        pairs = _ottertune_corpus_pairs(workload, dataset)
        per_pair = max(1, n // len(pairs))
        for w, d in pairs:
            env = _offline_env(w, d, seed, cluster)
            if tuner is None:
                tuner = OtterTune.from_env(env, seed=seed)
            tuner.collect_offline(env, f"{w}-{d}", per_pair)
        _MODEL_CACHE[key] = tuner
    return _MODEL_CACHE[key]  # type: ignore[return-value]


def fork_tuner(tuner):
    """Deep-copy a trained tuner so online fine-tuning cannot leak between
    experiment arms (e.g. Figure 5 runs with/without Twin-Q from the SAME
    offline model)."""
    return copy.deepcopy(tuner)


def online_env(
    workload: str,
    dataset: str,
    seed: int,
    cluster: ClusterSpec = CLUSTER_A,
    fault_profile: str | None = None,
):
    """A fresh environment representing a new online tuning request."""
    return make_env(workload, dataset, cluster=cluster, seed=10_000 + seed,
                    fault_profile=fault_profile)


def describe_session(s: OnlineSession) -> str:
    """One-line summary used by several benchmarks."""
    return (
        f"{s.tuner:12s} {s.workload}-{s.dataset}: best {s.best_duration_s:7.1f}s "
        f"(speedup {s.speedup_over_default:4.2f}x), eval {s.evaluation_seconds:7.1f}s, "
        f"rec {s.recommendation_seconds:6.3f}s"
    )
