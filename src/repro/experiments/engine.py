"""Parallel experiment execution engine with an on-disk result cache.

Every figure reduces to a grid of independent *tasks* — one
``(workload, dataset, tuner, seed, ...)`` cell each — whose results are
pure functions of their parameters (the library seeds every stochastic
component explicitly, see :mod:`repro.utils.rng`).  This module exploits
that purity three ways:

* **Sharding** — :class:`ExperimentEngine` decomposes a grid into
  :class:`TaskSpec` cells and runs them on a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or
  inline (``jobs=1``, the default, which preserves the serial code path
  bit-for-bit).  Results are always assembled in submission order, so
  parallelism can never change the science.
* **Seeding** — every task carries an explicit integer seed, so its
  result is independent of ``jobs`` and of worker scheduling.
* **Caching** — :class:`ResultCache` persists each task's result under a
  content-addressed key: the SHA-256 of the task kind, its full
  parameters (cluster *specs* expanded field-by-field, not just named),
  and a code-version salt (:data:`CACHE_VERSION`).  Repeated
  ``repro report`` invocations are incremental; editing the simulator's
  physics must be accompanied by a salt bump (the golden-file tests
  under ``tests/golden/`` catch silent drift).

Telemetry (PR 1) is integrated throughout: a span per task, cache
hit/miss counters, and a scheduler-overhead breakdown
(:class:`EngineStats`).

Worker failure is treated as routine, not fatal (**supervision**):
workers catch exceptions and return a structured :class:`TaskFailure`
instead of raising; the parent survives ``BrokenProcessPool`` by
rebuilding the pool and re-dispatching only the incomplete tasks; failed
tasks get bounded retries (bit-identical by construction — a task's
result is a pure function of its seeded parameters); tasks that exhaust
their retry budget are quarantined and the grid completes with partial
results plus a ranked failure report (``strict`` mode raises
:class:`EngineTaskError` afterwards, ``lenient`` returns ``None`` in the
failed slots).  Hung workers are reaped against a per-kind EWMA deadline
(or an explicit ``task_timeout``).  The deterministic worker-kill
harness exercising all of this lives in :class:`repro.faults.WorkerChaos`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import inspect
import itertools
import json
import multiprocessing
import os
import pickle
import shutil
import sys
import tempfile
import threading
import time
import traceback as traceback_module
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.cluster.hardware import CLUSTER_A, CLUSTER_B, ClusterSpec
from repro.experiments.common import (
    ExperimentScale,
    clear_model_cache,
    fork_tuner,
    get_scale,
    online_env,
    train_cdbtune,
    train_deepcat,
    train_ottertune,
)
from repro.telemetry.context import NULL_CONTEXT, RunContext

__all__ = [
    "CACHE_VERSION",
    "TaskSpec",
    "task_kind",
    "session_task",
    "policy_quality_task",
    "offline_trend_task",
    "random_cdf_task",
    "ResultCache",
    "EngineStats",
    "TaskFailure",
    "EngineTaskError",
    "render_failure_report",
    "ExperimentEngine",
    "add_engine_arguments",
]

#: Code-version salt folded into every cache key.  Bump whenever a change
#: alters what any task computes (simulator physics, tuner semantics,
#: reward shaping, ...) so stale on-disk results can never be served.
#: v2: online-session tasks gained fault_profile/resilience parameters —
#: v1 keys never encoded the chaos setting, so any v1 entry is ambiguous.
CACHE_VERSION = "deepcat-engine-v2"

_CLUSTERS: dict[str, ClusterSpec] = {
    "cluster-a": CLUSTER_A,
    "cluster-b": CLUSTER_B,
}


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable structure (sorted keys, no sets,
    numpy scalars unboxed) so equal parameters always hash equally."""
    if isinstance(obj, Mapping):
        return {str(k): _canonical(obj[k]) for k in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canonical(dataclasses.asdict(obj))
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


@dataclass(frozen=True)
class TaskSpec:
    """One independent unit of experiment work.

    ``kind`` names a registered task function; ``params`` are its keyword
    arguments and must be JSON-canonicalizable (the cache key is derived
    from them).
    """

    kind: str
    params: dict[str, Any]

    def canonical_key(self) -> str:
        """Deterministic JSON identity of this task (no salt)."""
        return json.dumps(
            {"kind": self.kind, "params": _canonical(self.params)},
            sort_keys=True, separators=(",", ":"),
        )

    def cache_payload(self) -> str:
        """Like :meth:`canonical_key` but with cluster *names* expanded to
        their full hardware specs and fault-profile names to their full
        rate/factor presets, so editing either invalidates keys."""
        from repro.faults import PROFILES

        params = dict(self.params)
        for key in ("cluster", "train_cluster"):
            name = params.get(key)
            if isinstance(name, str) and name in _CLUSTERS:
                spec = _canonical(_CLUSTERS[name])
                spec["name"] = name
                params[key] = spec
        profile = params.get("fault_profile")
        if isinstance(profile, str) and profile in PROFILES:
            params["fault_profile"] = _canonical(PROFILES[profile])
        return json.dumps(
            {"kind": self.kind, "params": _canonical(params)},
            sort_keys=True, separators=(",", ":"),
        )


# ------------------------------------------------------------- task kinds

_TASK_KINDS: dict[str, Callable[..., Any]] = {}


def task_kind(name: str):
    """Register a module-level function as an executable task kind.

    Registered functions must be importable from workers (defined at
    module scope) and accept only keyword arguments.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        _TASK_KINDS[name] = fn
        return fn

    return decorate


def _scale_params(scale: str | ExperimentScale) -> dict[str, int]:
    """The budget fields of a scale — everything a task needs; the name
    and seed list stay out so equal budgets share cache entries."""
    sc = get_scale(scale)
    return {
        "offline_iterations": sc.offline_iterations,
        "ottertune_samples": sc.ottertune_samples,
        "online_steps": sc.online_steps,
    }


def _budget_scale(seed: int, *, offline_iterations: int,
                  ottertune_samples: int, online_steps: int) -> ExperimentScale:
    return ExperimentScale(
        name="engine-task",
        offline_iterations=offline_iterations,
        ottertune_samples=ottertune_samples,
        seeds=(seed,),
        online_steps=online_steps,
    )


@task_kind("online-session")
def _run_online_session(
    *,
    workload: str,
    dataset: str,
    tuner: str,
    seed: int,
    offline_iterations: int,
    ottertune_samples: int,
    online_steps: int,
    cluster: str = "cluster-a",
    train_workload: str | None = None,
    train_dataset: str | None = None,
    train_cluster: str = "cluster-a",
    overrides: dict[str, Any] | None = None,
    tuner_attrs: dict[str, Any] | None = None,
    fault_profile: str = "none",
    resilience: bool = False,
    telemetry=None,
):
    """Train one tuner and serve one online request — one grid cell.

    ``train_workload``/``train_dataset`` allow transfer cells (Figure 9:
    train on WC, tune PR); ``train_cluster``/``cluster`` allow hardware
    transfer (Figure 10); ``overrides`` are DeepCAT construction
    hyper-parameters (Figure 11's β); ``tuner_attrs`` are set on the
    forked tuner before tuning (Figure 12's ``q_threshold``, Figure 5's
    ``use_twin_q``).  ``fault_profile`` injects chaos into the *online*
    evaluations only (offline training stays clean — the model is a
    shared artifact); ``resilience`` enables the default
    retry/watchdog/guard policy during tuning (fault-sweep cells).

    ``telemetry`` is a per-worker :class:`RunContext` injected by the
    engine's bus mode (never part of ``params``, so cache keys are
    unaffected); it observes the *online* stage only — offline training
    is a shared, cacheable artifact and stays clean.
    """
    sc = _budget_scale(
        seed, offline_iterations=offline_iterations,
        ottertune_samples=ottertune_samples, online_steps=online_steps,
    )
    t_w = train_workload if train_workload is not None else workload
    t_d = train_dataset if train_dataset is not None else dataset
    t_cluster = _CLUSTERS[train_cluster]
    if tuner == "DeepCAT":
        base = train_deepcat(t_w, t_d, seed, sc, cluster=t_cluster,
                             **(overrides or {}))
    elif tuner == "CDBTune":
        if overrides:
            raise ValueError("overrides are DeepCAT-only")
        base = train_cdbtune(t_w, t_d, seed, sc, cluster=t_cluster)
    elif tuner == "OtterTune":
        if overrides:
            raise ValueError("overrides are DeepCAT-only")
        base = train_ottertune(t_w, t_d, seed, sc, cluster=t_cluster)
    else:
        raise ValueError(f"unknown tuner {tuner!r}")
    t = fork_tuner(base)
    for attr, value in (tuner_attrs or {}).items():
        if not hasattr(t, attr):
            raise AttributeError(f"{tuner} has no attribute {attr!r}")
        setattr(t, attr, value)
    env = online_env(workload, dataset, seed, cluster=_CLUSTERS[cluster],
                     fault_profile=fault_profile)
    tune_kwargs: dict[str, Any] = {}
    if telemetry is not None:
        # Baselines like OtterTune predate the telemetry kwarg; only
        # inject it where the tuner's tune_online accepts it.
        if "telemetry" in inspect.signature(t.tune_online).parameters:
            tune_kwargs["telemetry"] = telemetry
    if resilience:
        if tuner != "DeepCAT":
            raise ValueError("resilience cells are DeepCAT-only")
        from repro.core.resilience import ResiliencePolicy

        tune_kwargs["resilience"] = ResiliencePolicy.default(seed=seed)
    return t.tune_online(env, steps=sc.online_steps, **tune_kwargs)


@task_kind("policy-quality")
def _run_policy_quality(
    *,
    workload: str,
    dataset: str,
    seed: int,
    iterations: int,
    use_rdper: bool = True,
    policy_evals: int = 3,
):
    """Mean evaluated duration of a trained DeepCAT greedy policy
    (Figure 4's low-variance convergence metric)."""
    from repro.sim.faults import FAILURE_PERF_FACTOR

    sc = _budget_scale(
        seed, offline_iterations=iterations, ottertune_samples=1,
        online_steps=1,
    )
    kwargs = {} if use_rdper else {"use_rdper": False}
    t = train_deepcat(workload, dataset, seed, sc, iterations=iterations,
                      **kwargs)
    env = online_env(workload, dataset, seed)
    durations = []
    for _ in range(policy_evals):
        outcome = env.step(t.agent.act(env.state, explore=False))
        durations.append(
            outcome.duration_s if outcome.success
            else FAILURE_PERF_FACTOR * env.default_duration
        )
    return float(np.mean(durations))


@task_kind("offline-trend")
def _run_offline_trend(
    *,
    workload: str,
    dataset: str,
    seed: int,
    offline_iterations: int,
):
    """Offline-training series for Figure 3: min twin-Q and real reward
    per iteration, plus the agent's warmup length."""
    sc = _budget_scale(
        seed, offline_iterations=offline_iterations, ottertune_samples=1,
        online_steps=1,
    )
    t = train_deepcat(workload, dataset, seed, sc)
    log = t.offline_log
    if log is None:
        raise RuntimeError("offline log missing")
    return {
        "min_q": np.asarray(log.min_q, dtype=float),
        "rewards": np.asarray(log.rewards, dtype=float),
        "warmup_steps": int(t.agent.hp.warmup_steps),
    }


@task_kind("random-cdf")
def _run_random_cdf(
    *,
    workload: str,
    dataset: str,
    n_samples: int,
    seed: int,
):
    """Figure 2's raw material: durations of random configurations
    (failures charged at the failure performance factor)."""
    from repro.factory import make_env
    from repro.sim.faults import FAILURE_PERF_FACTOR

    env = make_env(workload, dataset, seed=seed)
    rng = np.random.default_rng(seed + 77)
    # One vectorized draw plus one batched evaluation — bit-identical to
    # the per-step loop: uniform rows come off the same stream in the
    # same order, and step_batch reproduces step's RNG schedule.
    vectors = env.space.sample_vectors(rng, n_samples)
    durations, n_failed = [], 0
    for outcome in env.step_batch(vectors):
        if outcome.success:
            durations.append(outcome.duration_s)
        else:
            n_failed += 1
            durations.append(FAILURE_PERF_FACTOR * env.default_duration)
    return {
        "durations": np.asarray(durations, dtype=float),
        "n_failed": n_failed,
        "default_duration": float(env.default_duration),
    }


def session_task(
    *,
    workload: str,
    dataset: str,
    tuner: str,
    seed: int,
    scale: str | ExperimentScale,
    cluster: str = "cluster-a",
    train_workload: str | None = None,
    train_dataset: str | None = None,
    train_cluster: str = "cluster-a",
    overrides: Mapping[str, Any] | None = None,
    tuner_attrs: Mapping[str, Any] | None = None,
    fault_profile: str = "none",
    resilience: bool = False,
) -> TaskSpec:
    """Build the :class:`TaskSpec` for one online-session grid cell.

    ``fault_profile``/``resilience`` always enter the params — and hence
    the cache key — even at their defaults: a cached chaos run must never
    be served for a clean cell or vice versa.
    """
    params: dict[str, Any] = {
        "workload": workload,
        "dataset": dataset,
        "tuner": tuner,
        "seed": seed,
        **_scale_params(scale),
        "cluster": cluster,
        "train_cluster": train_cluster,
        "fault_profile": fault_profile,
        "resilience": resilience,
    }
    if train_workload is not None:
        params["train_workload"] = train_workload
    if train_dataset is not None:
        params["train_dataset"] = train_dataset
    if overrides:
        params["overrides"] = dict(overrides)
    if tuner_attrs:
        params["tuner_attrs"] = dict(tuner_attrs)
    return TaskSpec(kind="online-session", params=params)


def policy_quality_task(
    *, workload: str, dataset: str, seed: int, iterations: int,
    use_rdper: bool = True, policy_evals: int = 3,
) -> TaskSpec:
    return TaskSpec(kind="policy-quality", params={
        "workload": workload, "dataset": dataset, "seed": seed,
        "iterations": iterations, "use_rdper": use_rdper,
        "policy_evals": policy_evals,
    })


def offline_trend_task(
    *, workload: str, dataset: str, seed: int,
    scale: str | ExperimentScale,
) -> TaskSpec:
    return TaskSpec(kind="offline-trend", params={
        "workload": workload, "dataset": dataset, "seed": seed,
        "offline_iterations": get_scale(scale).offline_iterations,
    })


def random_cdf_task(
    *, workload: str, dataset: str, n_samples: int, seed: int,
) -> TaskSpec:
    return TaskSpec(kind="random-cdf", params={
        "workload": workload, "dataset": dataset,
        "n_samples": n_samples, "seed": seed,
    })


# ------------------------------------------------------------------ cache

#: sentinel distinguishing "cache miss" from a cached ``None``
_MISS = object()

#: container-format magic for checksummed entries; followed by the hex
#: SHA-256 of the pickle body, a newline, then the body itself.  Entries
#: without the magic are legacy plain pickles and stay readable.
_CACHE_MAGIC = b"repro-cache-c1\n"


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a power cut;
    best-effort — some filesystems refuse directory fds."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


class ResultCache:
    """Content-addressed on-disk store for task results.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the SHA-256
    of the task's :meth:`~TaskSpec.cache_payload` plus ``salt``.  Each
    entry stores the payload alongside the pickled result; a payload
    mismatch on load (hash collision, salt bug) is treated as a miss.

    Integrity: entries are written as a checksummed container (magic +
    SHA-256 of the body), atomically (temp file + fsync +
    :func:`os.replace` + directory fsync), so a crash or power cut never
    leaves a torn entry behind.  An entry that fails its checksum or
    won't unpickle is moved to ``<root>/.quarantine/`` and counted in
    :attr:`corrupt_entries` — never silently re-read, never crash-looped
    on, and never deleted (operators can inspect the bytes).  Entries in
    the legacy un-checksummed format still load.
    """

    def __init__(self, root: str | Path, salt: str = CACHE_VERSION):
        self.root = Path(root)
        self.salt = salt
        #: entries that failed integrity checks and were quarantined
        self.corrupt_entries = 0

    @property
    def quarantine_dir(self) -> Path:
        return self.root / ".quarantine"

    def key_for(self, task: TaskSpec) -> str:
        payload = f"{self.salt}\n{task.cache_payload()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        self.corrupt_entries += 1
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:  # pragma: no cover - cross-device/permission edge
            try:
                path.unlink()
            except OSError:
                pass

    def _decode(self, data: bytes, path: Path) -> dict[str, Any] | None:
        """Unpickle an entry, verifying the checksum when present;
        quarantines and returns ``None`` on any integrity failure."""
        if data.startswith(_CACHE_MAGIC):
            head = data[len(_CACHE_MAGIC):]
            digest, sep, body = head.partition(b"\n")
            if (
                not sep
                or hashlib.sha256(body).hexdigest().encode("ascii")
                != digest
            ):
                self._quarantine(path)
                return None
        else:
            body = data  # legacy pre-checksum entry
        try:
            entry = pickle.loads(body)
        except Exception:
            self._quarantine(path)
            return None
        if not isinstance(entry, dict):
            self._quarantine(path)
            return None
        return entry

    def load(self, task: TaskSpec):
        """Return the cached result, or the module-private miss sentinel."""
        path = self._path(self.key_for(task))
        try:
            data = path.read_bytes()
        except OSError:
            return _MISS
        entry = self._decode(data, path)
        if entry is None:
            return _MISS  # quarantined: recompute and rewrite
        if entry.get("payload") != task.cache_payload():
            return _MISS
        return entry["result"]

    def store(self, task: TaskSpec, result: Any) -> Path:
        key = self.key_for(task)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps(
            {
                "salt": self.salt,
                "kind": task.kind,
                "payload": task.cache_payload(),
                "result": result,
            }
        )
        digest = hashlib.sha256(body).hexdigest().encode("ascii")
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC + digest + b"\n" + body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("[0-9a-f][0-9a-f]/*.pkl"))

    @staticmethod
    def is_miss(value: Any) -> bool:
        return value is _MISS


# ----------------------------------------------------------------- engine


@dataclass
class EngineStats:
    """Counters accumulated across :meth:`ExperimentEngine.run` calls."""

    tasks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    #: task attempts that ended in a failure (any disposition)
    task_failures: int = 0
    #: failed attempts that were re-dispatched
    task_retries: int = 0
    #: failures caused by the per-task deadline reaping a hung worker
    task_timeouts: int = 0
    #: worker pools rebuilt after a crash or deadline reap
    pool_rebuilds: int = 0
    #: tasks that exhausted their retry budget and were quarantined
    quarantined_tasks: int = 0
    #: cache entries that failed integrity checks and were quarantined
    cache_corrupt: int = 0
    #: worker-measured seconds actually spent computing tasks
    compute_seconds: float = 0.0
    #: wall-clock of the ``run()`` calls themselves
    wall_seconds: float = 0.0
    #: wall-clock not covered by (parallel-adjusted) compute: scheduling,
    #: serialization, and cache I/O
    overhead_seconds: float = 0.0

    def summary(self) -> str:
        text = (
            f"{self.tasks} task(s): {self.cache_hits} cache hit(s), "
            f"{self.executed} executed in {self.compute_seconds:.1f}s "
            f"compute / {self.wall_seconds:.1f}s wall "
            f"(scheduler overhead {self.overhead_seconds:.2f}s)"
        )
        if self.task_failures or self.pool_rebuilds or self.cache_corrupt:
            text += (
                f"; {self.task_failures} failure(s), "
                f"{self.task_retries} retried, "
                f"{self.quarantined_tasks} quarantined, "
                f"{self.pool_rebuilds} pool rebuild(s), "
                f"{self.cache_corrupt} corrupt cache entr(ies)"
            )
        return text


@dataclass
class TaskFailure:
    """Structured record of one failed task attempt.

    Workers return this instead of raising, so the parent always gets
    the remote exception type and its formatted traceback — never a bare
    ``BrokenProcessPool`` with zero context.  Synthesized at the parent
    for failures the worker cannot report itself (the process died, or
    the deadline reaped it).
    """

    kind: str
    index: int
    key: str
    exc_type: str
    message: str
    traceback: str
    attempts: int
    pid: int | None = None
    #: the worker process died (SIGKILL/OOM) rather than raising
    worker_crash: bool = False
    #: the per-task deadline expired and the supervisor reaped the worker
    timed_out: bool = False

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        cause = (
            "deadline expired" if self.timed_out
            else "worker died" if self.worker_crash
            else f"{self.exc_type}: {self.message}"
        )
        return (
            f"task {self.index} ({self.kind}) after "
            f"{self.attempts} attempt(s): {cause}"
        )


class EngineTaskError(RuntimeError):
    """Raised by a strict-mode engine after tasks exhausted their retries.

    The grid still ran to completion first — every successful cell was
    cached — so fixing the cause and re-running is incremental.
    :attr:`failures` holds the quarantined :class:`TaskFailure` records
    and :attr:`report` the full ranked failure report.
    """

    def __init__(self, failures: Sequence[TaskFailure],
                 report: dict[str, Any]):
        self.failures = list(failures)
        self.report = report
        super().__init__(
            f"{len(self.failures)} task(s) failed permanently; "
            "completed results are cached — see .report or "
            "engine.failure_report()"
        )


def render_failure_report(report: dict[str, Any]) -> str:
    """Human-readable form of :meth:`ExperimentEngine.failure_report`."""
    counters = report.get("counters", {})
    lines = [
        "engine failure report: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    ]
    quarantined = report.get("quarantined", [])
    if not quarantined:
        lines.append("no quarantined tasks")
    for rec in quarantined:
        cause = (
            "deadline expired" if rec.get("timed_out")
            else "worker died" if rec.get("worker_crash")
            else f"{rec.get('exc_type')}: {rec.get('message')}"
        )
        lines.append(
            f"  [{rec.get('attempts')} attempt(s)] task {rec.get('index')}"
            f" ({rec.get('kind')}): {cause}"
        )
    return "\n".join(lines)


#: exception types treated as deterministic: the task's result is a pure
#: function of its parameters, so re-running a task that raised one of
#: these cannot succeed — quarantine immediately instead of burning the
#: retry budget.  Crashes and timeouts are always retryable (the
#: *environment* failed, not the task).
_NON_TRANSIENT = frozenset({
    "ValueError",
    "TypeError",
    "KeyError",
    "AttributeError",
    "AssertionError",
    "NotImplementedError",
})


def _retryable(failure: TaskFailure) -> bool:
    return (
        failure.worker_crash
        or failure.timed_out
        or failure.exc_type not in _NON_TRANSIENT
    )


def _execute_task(task: TaskSpec) -> tuple[Any, float]:
    """Worker entry point: run the task, return (result, compute seconds)."""
    fn = _TASK_KINDS.get(task.kind)
    if fn is None:
        raise KeyError(
            f"unknown task kind {task.kind!r}; have {sorted(_TASK_KINDS)}"
        )
    t0 = time.perf_counter()
    result = fn(**task.params)
    return result, time.perf_counter() - t0


#: Run token whose trained models this process's model cache holds.
_CACHE_RUN: tuple[int, int] | None = None
_RUN_TOKENS = itertools.count()


def _supervised_task(
    task: TaskSpec,
    index: int,
    attempt: int,
    chaos=None,
    spool: str | None = None,
    bus_dir: str | None = None,
    source: str | None = None,
    trace: tuple[str, str] | None = None,
    run_token: tuple[int, int] | None = None,
) -> tuple[Any, float, dict[str, Any] | None]:
    """Supervised worker entry point: never raises.

    Returns ``(result, seconds, metrics_state)`` on success or
    ``(TaskFailure, 0.0, None)`` on any exception.  Before any work it
    touches an attempt marker in ``spool`` so the parent can tell a task
    whose worker died mid-attempt (charge the attempt) from one that was
    still queued when a *sibling* broke the pool (free re-dispatch) —
    ``Future.running()`` alone races the crash.  The chaos harness, when
    armed, SIGKILLs doomed attempts right after the marker: the parent
    sees exactly what a real mid-task OOM-kill produces.

    Pool tasks carry their ``run()``'s ``run_token``.  A persistent pool
    worker outlives ``run()``, so the first task of a new run drops the
    models the worker trained for earlier runs: its model cache lives
    one ``run()``.  Inline tasks pass no token and keep the parent's
    cross-figure reuse.
    """
    global _CACHE_RUN
    if run_token is not None and run_token != _CACHE_RUN:
        clear_model_cache()
        _CACHE_RUN = run_token
    if spool is not None:
        try:
            open(os.path.join(spool, f"{index}.{attempt}"), "wb").close()
        except OSError:  # pragma: no cover - spool on a broken disk
            pass
    if chaos is not None and chaos.should_kill(task.canonical_key(), attempt):
        chaos.kill_now()
    try:
        if bus_dir is not None:
            return _execute_task_bus(task, bus_dir, source, trace)
        result, seconds = _execute_task(task)
        return result, seconds, None
    except (KeyboardInterrupt, SystemExit):  # pragma: no cover - passthrough
        raise
    except BaseException as exc:
        return (
            TaskFailure(
                kind=task.kind,
                index=index,
                key=task.canonical_key(),
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback_module.format_exc(),
                attempts=attempt,
                pid=os.getpid(),
            ),
            0.0,
            None,
        )


_ACCEPTS_TELEMETRY: dict[str, bool] = {}


def _accepts_telemetry(kind: str) -> bool:
    """Whether a task kind takes the engine-injected ``telemetry`` kwarg
    (cached per kind — signature inspection is not free)."""
    cached = _ACCEPTS_TELEMETRY.get(kind)
    if cached is None:
        fn = _TASK_KINDS[kind]
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            params = {}
        cached = _ACCEPTS_TELEMETRY[kind] = "telemetry" in params
    return cached


def _execute_task_bus(
    task: TaskSpec,
    bus_dir: str,
    source: str,
    trace: tuple[str, str] | None = None,
) -> tuple[Any, float, dict[str, Any]]:
    """Bus-mode worker entry point.

    Wraps :func:`_execute_task` with a per-worker telemetry context whose
    events land on this worker's bus stream: a ``worker-heartbeat`` pair
    bracketing the task, live diagnostics ``alert`` events, and a final
    ``metrics-snapshot`` carrying the picklable registry ``state()`` —
    which is also returned so the parent can ``merge()`` it without
    re-reading the stream.

    With a ``trace`` context — ``(trace_id, ref)``, the grid's trace id
    plus the ref of the parent-side ``engine.task`` span — the worker
    also records its own span tree (roots carry ``parent_ref: <ref>``)
    and a per-task cost ledger; both are saved to the ``traces/`` and
    ``ledgers/`` subdirs of the bus directory — kept out of the bus root
    so ``merge_timeline`` never sweeps them into the event timeline.
    """
    from repro.telemetry.bus import BusWriter
    from repro.telemetry.diagnostics import DiagnosticsEngine
    from repro.telemetry.ledger import CostLedger
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.tracing import Tracer

    fn = _TASK_KINDS.get(task.kind)
    if fn is None:
        raise KeyError(
            f"unknown task kind {task.kind!r}; have {sorted(_TASK_KINDS)}"
        )
    trace_id, trace_ref = trace if trace is not None else (None, None)
    writer = BusWriter(bus_dir, source, trace_id=trace_id)
    tracer = None
    ledger = None
    if trace is not None:
        tracer = Tracer(trace_id=trace_id, parent_ref=trace_ref)
        ledger = CostLedger(
            Path(bus_dir) / "ledgers" / f"{trace_ref}.ledger.jsonl",
            source=trace_ref,
        )
    ctx = RunContext(
        logger=writer,
        tracer=tracer,
        metrics=MetricsRegistry(),
        diagnostics=DiagnosticsEngine(),
        ledger=ledger,
    )
    try:
        writer.event(
            "worker-heartbeat", status="start", task_kind=task.kind,
            pid=os.getpid(),
        )
        kwargs = dict(task.params)
        if _accepts_telemetry(task.kind):
            kwargs["telemetry"] = ctx
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("worker.task", kind=task.kind, source=source):
                result = fn(**kwargs)
        else:
            result = fn(**kwargs)
        seconds = time.perf_counter() - t0
        # Anything raised but not yet drained by the instrumented loops.
        for alert in ctx.diagnostics.drain_alerts():
            writer.event("alert", **alert.as_event_fields())
        state = ctx.metrics.state()
        writer.event("metrics-snapshot", metrics=state)
        writer.event(
            "worker-heartbeat", status="end", task_kind=task.kind,
            pid=os.getpid(), seconds=round(seconds, 6),
            alerts=len(ctx.diagnostics.alerts),
        )
        return result, seconds, state
    finally:
        if tracer is not None:
            trace_dir = Path(bus_dir) / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.save_jsonl(trace_dir / f"{trace_ref}.trace.jsonl")
        if ledger is not None:
            ledger.close()
        writer.close()


def _engine_worker_init() -> None:
    """Per-worker initializer of the persistent pool: pin BLAS pools to
    one thread once at spawn, since ``jobs`` workers that each run a
    pool sized to the machine oversubscribe it."""
    from repro.parallel.pinning import limit_blas_threads

    limit_blas_threads(1)


#: Manager threads of pools shut down without waiting, in this process.
#: A manager thread holds its executor's ``_shutdown_lock`` while it
#: joins the old workers; a pool that forks in that window hands its
#: workers the lock held, and a worker whose garbage collector then
#: frees its copy of the old executor waits on it forever (the
#: executor's weakref callback takes the lock).  So every new pool first
#: joins these threads (:func:`_join_discarded_managers`).
_DISCARDED_MANAGERS: list[threading.Thread] = []
_DISCARDED_LOCK = threading.Lock()
#: the longest a new pool waits for discarded managers before forking
DISCARDED_JOIN_S = 10.0


def _discard(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting; remember its manager thread."""
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    if manager is not None:
        with _DISCARDED_LOCK:
            _DISCARDED_MANAGERS.append(manager)


def _join_discarded_managers(timeout_s: float = DISCARDED_JOIN_S) -> None:
    """Join the manager threads of every pool discarded so far (by any
    engine), waiting at most ``timeout_s`` in all; one still running
    afterwards is kept for the next pool to wait on."""
    deadline = time.monotonic() + timeout_s
    with _DISCARDED_LOCK:
        managers = list(_DISCARDED_MANAGERS)
    for manager in managers:
        manager.join(max(0.0, deadline - time.monotonic()))
    with _DISCARDED_LOCK:
        _DISCARDED_MANAGERS[:] = [
            m for m in _DISCARDED_MANAGERS if m.is_alive()
        ]


def _shutdown_pool_holder(holder: dict) -> None:
    """Weakref finalizer target — must not reference the engine."""
    pool = holder.pop("pool", None)
    if pool is not None:
        _discard(pool)


class ExperimentEngine:
    """Runs :class:`TaskSpec` grids, optionally in parallel and cached.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs every task inline in the
        calling process — exactly the serial code path.  Because every
        task seeds its own RNGs, ``jobs`` never changes results, only
        wall-clock (covered by the ``-m determinism`` test suite).
    cache:
        A :class:`ResultCache`, or ``None`` to always recompute.
    telemetry:
        A :class:`~repro.telemetry.context.RunContext`; the engine emits
        an ``engine.run`` span, one ``engine.task`` span per task, cache
        hit/miss counters, and an ``engine.task_seconds`` histogram.
    bus_dir:
        Event-bus directory.  When set, every executed task runs with a
        per-worker telemetry context whose events (worker heartbeats,
        diagnostics alerts, metrics snapshots) stream to
        ``<bus_dir>/task-NNNN.jsonl``; after each :meth:`run` the streams
        are merged into one ordered ``timeline.jsonl`` and the workers'
        metrics registries are folded into this engine's ``telemetry``
        registry via ``merge()``.  The supervisor writes its own
        ``task-failed``/``task-retried``/``pool-rebuilt`` events to an
        ``engine`` stream.
    task_retries:
        How many times a failed/crashed/timed-out task is re-dispatched
        before quarantine (total attempts = ``task_retries + 1``).
        Retries are bit-identical science: every task's result is a pure
        function of its seeded parameters.
    task_timeout:
        Hard per-task deadline in seconds; a worker running longer is
        SIGKILLed and the task charged a timed-out attempt.  ``None``
        (default) derives the deadline as 8× the EWMA of per-kind
        durations (floor 30s) once a kind has completed at least once —
        before that, tasks may run unbounded.
    failure_mode:
        ``"strict"`` (default) completes the grid, then raises
        :class:`EngineTaskError` if any task was quarantined;
        ``"lenient"`` returns ``None`` in the failed slots instead.
    chaos:
        A :class:`repro.faults.WorkerChaos` worker-kill schedule (tests
        and CI soak only).  Requires ``jobs >= 2`` — an inline worker
        killing itself would take the parent with it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        telemetry: RunContext = NULL_CONTEXT,
        bus_dir: str | Path | None = None,
        task_retries: int = 2,
        task_timeout: float | None = None,
        failure_mode: str = "strict",
        chaos=None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if task_retries < 0:
            raise ValueError(f"task_retries must be >= 0, got {task_retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if failure_mode not in ("strict", "lenient"):
            raise ValueError(
                f"failure_mode must be 'strict' or 'lenient',"
                f" got {failure_mode!r}"
            )
        if chaos is not None and jobs < 2:
            raise ValueError(
                "chaos requires jobs >= 2: an inline worker SIGKILLing "
                "itself would kill the parent process"
            )
        self.jobs = jobs
        self.cache = cache
        self.telemetry = telemetry
        self.bus_dir = Path(bus_dir) if bus_dir is not None else None
        self.task_retries = task_retries
        self.task_timeout = task_timeout
        self.failure_mode = failure_mode
        self.chaos = chaos
        # Persistent worker pool: created on first pooled run, reused
        # across rounds and run() calls (amortizing interpreter spawn),
        # discarded+rebuilt only after a crash/reap broke it.  The
        # holder indirection lets a weakref finalizer shut the pool down
        # when the engine is garbage-collected without keeping the
        # engine alive.
        self._pool_holder: dict[str, ProcessPoolExecutor] = {}
        self._pool_finalizer = weakref.finalize(
            self, _shutdown_pool_holder, self._pool_holder
        )
        self.stats = EngineStats()
        #: quarantined :class:`TaskFailure` records across run() calls
        self.failures: list[TaskFailure] = []
        self._kind_ewma: dict[str, float] = {}
        self._bus = None
        self._run_failures: list[TaskFailure] = []
        self._traced_indices: set[int] = set()
        # Stitch-trace state (bus mode): one tracer per engine so every
        # run() of a report shares the grid's trace id; refs are scoped
        # by a run ordinal so task indices never collide across runs.
        self._stitch = None
        self._stitch_run = None
        self._runs = 0
        self._run_tag = ""

    # ------------------------------------------------------------- helpers

    def _record_task(self, task: TaskSpec, cached: bool,
                     compute_s: float, index: int | None = None) -> None:
        t = self.telemetry
        status = "hit" if cached else "miss"
        with t.span("engine.task", kind=task.kind, cache=status) as span:
            span.set_attr("compute_s", round(compute_s, 6))
        if t.ledger.enabled:
            # Parent-side cost accounting: executed tasks charge their
            # worker-measured compute; cache hits charge zero and record
            # the estimated avoided cost (per-kind EWMA) instead.
            t.ledger.charge(
                "task", float(compute_s), phase="engine",
                kind=task.kind, cache=status, index=index,
            )
            if cached:
                t.ledger.counterfactual(
                    "cache_saving",
                    float(self._kind_ewma.get(task.kind, 0.0)),
                    phase="engine", kind=task.kind, index=index,
                )
        if self._stitch is not None:
            self._stitch.record_span(
                "engine.task",
                start_wall=time.time() - compute_s,
                duration_s=compute_s,
                parent=self._stitch_run,
                ref=(
                    f"{self._run_tag}-task-{index:04d}"
                    if index is not None else None
                ),
                kind=task.kind,
                cache=status,
            )
        t.count("engine.tasks_total", help="engine tasks by kind and cache "
                "status", kind=task.kind, cache=status)
        if cached:
            t.count("engine.cache_hits_total", help="task results served "
                    "from the on-disk cache")
        else:
            t.count("engine.cache_misses_total", help="task results "
                    "computed because the cache had no entry")
            t.observe("engine.task_seconds", compute_s,
                      help="worker-measured task compute time",
                      kind=task.kind)

    # ---------------------------------------------------- supervision

    #: EWMA-derived deadline: this multiple of a kind's mean duration
    _TIMEOUT_MULTIPLE = 8.0
    #: floor for EWMA-derived deadlines — never reap a kind faster than
    #: this just because its first completion was quick
    _TIMEOUT_FLOOR_S = 30.0
    #: pool polling interval; also bounds deadline-detection latency
    _POLL_S = 0.25
    _EWMA_ALPHA = 0.3

    def _deadline_for(self, kind: str) -> float | None:
        if self.task_timeout is not None:
            return self.task_timeout
        ewma = self._kind_ewma.get(kind)
        if ewma is None:
            return None  # no completion observed yet: run unbounded
        return max(self._TIMEOUT_MULTIPLE * ewma, self._TIMEOUT_FLOOR_S)

    def _note_duration(self, kind: str, seconds: float) -> None:
        prev = self._kind_ewma.get(kind)
        self._kind_ewma[kind] = (
            seconds if prev is None
            else (1.0 - self._EWMA_ALPHA) * prev + self._EWMA_ALPHA * seconds
        )

    def _event(self, kind: str, **fields: Any) -> None:
        """Emit a supervisor event to telemetry and, in bus mode, to the
        parent's own ``engine`` bus stream."""
        self.telemetry.event(kind, **fields)
        if self._bus is not None:
            self._bus.event(kind, **fields)

    def _handle_failure(self, failure: TaskFailure) -> bool:
        """Record one failed attempt; returns True when the task should
        be re-dispatched, False when it is quarantined."""
        self.stats.task_failures += 1
        t = self.telemetry
        t.count("engine.task_failures_total",
                help="task attempts that ended in a failure",
                kind=failure.kind, exc=failure.exc_type)
        if failure.timed_out:
            self.stats.task_timeouts += 1
            t.count("engine.task_timeouts_total",
                    help="hung workers reaped by the per-task deadline",
                    kind=failure.kind)
        self._event(
            "task-failed", task_kind=failure.kind, index=failure.index,
            attempt=failure.attempts, exc_type=failure.exc_type,
            message=failure.message, worker_crash=failure.worker_crash,
            timed_out=failure.timed_out,
        )
        print(f"engine: {failure.summary()}", file=sys.stderr)
        if failure.traceback and failure.index not in self._traced_indices:
            # The remote traceback, once per task — retries of the same
            # cell fail identically and only add noise.
            self._traced_indices.add(failure.index)
            print(failure.traceback.rstrip(), file=sys.stderr)
        retry = failure.attempts <= self.task_retries and _retryable(failure)
        if retry:
            self.stats.task_retries += 1
            t.count("engine.task_retries_total",
                    help="failed tasks re-dispatched", kind=failure.kind)
            self._event("task-retried", task_kind=failure.kind,
                        index=failure.index, attempt=failure.attempts)
        else:
            self.stats.quarantined_tasks += 1
            t.count("engine.quarantined_tasks_total",
                    help="tasks that exhausted their retry budget",
                    kind=failure.kind)
            self.failures.append(failure)
            self._run_failures.append(failure)
        return retry

    @staticmethod
    def _kill_workers(pool: ProcessPoolExecutor) -> None:
        """SIGKILL every live worker of a pool (deadline reap).  The
        broken pool then fails all outstanding futures and the
        supervisor rebuilds it for the incomplete tasks."""
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            try:
                proc.kill()
            except (OSError, AttributeError):  # pragma: no cover - racing
                pass

    def failure_report(self) -> dict[str, Any]:
        """Ranked report of quarantined tasks plus supervisor counters
        (most attempts first — the cells that fought hardest lead)."""
        ranked = sorted(
            self.failures,
            key=lambda f: (-f.attempts, f.kind, f.index),
        )
        return {
            "schema": "engine-failure-report-v1",
            "healthy": not self.failures,
            "quarantined": [f.as_dict() for f in ranked],
            "counters": {
                "task_failures": self.stats.task_failures,
                "task_retries": self.stats.task_retries,
                "task_timeouts": self.stats.task_timeouts,
                "pool_rebuilds": self.stats.pool_rebuilds,
                "quarantined_tasks": self.stats.quarantined_tasks,
                "cache_corrupt": self.stats.cache_corrupt,
            },
        }

    # ----------------------------------------------------------------- run

    def run(self, tasks: Sequence[TaskSpec]) -> list[Any]:
        """Execute ``tasks``; results are returned in submission order
        regardless of ``jobs`` or completion order.

        Worker failures are supervised: failed tasks are retried up to
        ``task_retries`` times (bit-identically — tasks are pure
        functions of their seeded parameters), crashed pools are rebuilt
        and only incomplete tasks re-dispatched, and hung workers are
        reaped against the per-task deadline.  Tasks that exhaust their
        budget leave ``None`` in their slot; in ``strict`` mode (the
        default) :class:`EngineTaskError` is raised *after* the rest of
        the grid completed and was cached.
        """
        n = len(tasks)
        results: list[Any] = [None] * n
        t_run0 = time.perf_counter()
        self.telemetry.gauge_set("engine.jobs", self.jobs,
                                 help="configured worker processes")
        compute_s = 0.0
        pending: list[int] = []
        self._run_failures = []
        corrupt0 = self.cache.corrupt_entries if self.cache else 0
        if self.bus_dir is not None:
            from repro.telemetry.bus import BusWriter
            from repro.telemetry.tracing import Tracer

            if self._stitch is None:
                parent_id = getattr(self.telemetry.tracer, "trace_id", "")
                self._stitch = Tracer(trace_id=parent_id or None)
            self._run_tag = f"r{self._runs}"
            self._runs += 1
            self._bus = BusWriter(
                self.bus_dir, "engine", trace_id=self._stitch.trace_id
            )
            self._stitch_run = self._stitch.record_span(
                "engine.run", start_wall=time.time(), duration_s=0.0,
                ref=f"{self._run_tag}.run", tasks=n, jobs=self.jobs,
            )
        try:
            with self.telemetry.span("engine.run", tasks=n, jobs=self.jobs):
                for task in tasks:
                    if task.kind not in _TASK_KINDS:
                        raise KeyError(
                            f"unknown task kind {task.kind!r};"
                            f" have {sorted(_TASK_KINDS)}"
                        )
                for i, task in enumerate(tasks):
                    hit = self.cache.load(task) if self.cache else _MISS
                    if not ResultCache.is_miss(hit):
                        results[i] = hit
                        self.stats.cache_hits += 1
                        self._record_task(task, cached=True, compute_s=0.0,
                                          index=i)
                    else:
                        pending.append(i)
                if self.cache is not None:
                    corrupt = self.cache.corrupt_entries - corrupt0
                    if corrupt:
                        self.stats.cache_corrupt += corrupt
                        self.telemetry.count(
                            "engine.cache_corrupt_total", corrupt,
                            help="cache entries that failed integrity "
                                 "checks and were quarantined",
                        )
                        self._event(
                            "cache-quarantined", count=corrupt,
                            quarantine_dir=str(self.cache.quarantine_dir),
                        )
                # Chaos and explicit deadlines need process isolation:
                # with them armed, even a single pending task goes to
                # the pool so SIGKILL never lands on the parent.
                force_pool = (
                    self.chaos is not None or self.task_timeout is not None
                )
                if self.jobs == 1 or (len(pending) <= 1 and not force_pool):
                    compute_s = self._run_inline(tasks, pending, results)
                else:
                    compute_s = self._run_pool(tasks, pending, results)
                if self.bus_dir is not None and pending:
                    from repro.telemetry.bus import merge_timeline

                    merge_timeline(self.bus_dir)
                    self._absorb_worker_ledgers(pending)
        finally:
            if self._stitch is not None:
                if self._stitch_run is not None:
                    self._stitch_run.duration_s = (
                        time.perf_counter() - t_run0
                    )
                    self._stitch_run = None
                trace_dir = self.bus_dir / "traces"
                trace_dir.mkdir(parents=True, exist_ok=True)
                self._stitch.save_jsonl(trace_dir / "engine.trace.jsonl")
            if self._bus is not None:
                self._bus.close()
                self._bus = None
        wall = time.perf_counter() - t_run0
        effective = min(self.jobs, max(1, len(pending)))
        self.stats.tasks += n
        self.stats.wall_seconds += wall
        self.stats.compute_seconds += compute_s
        # Approximate: assumes executed tasks overlapped perfectly across
        # the workers actually used; the remainder is scheduling,
        # serialization, and cache I/O.
        self.stats.overhead_seconds += max(0.0, wall - compute_s / effective)
        self.telemetry.gauge_set(
            "engine.scheduler_overhead_seconds", self.stats.overhead_seconds,
            help="run() wall-clock not covered by parallel-adjusted compute",
        )
        if self._run_failures and self.failure_mode == "strict":
            raise EngineTaskError(self._run_failures, self.failure_report())
        return results

    def _run_inline(self, tasks: Sequence[TaskSpec], pending: list[int],
                    results: list[Any]) -> float:
        """Inline dispatch (jobs=1): the exact serial code path, with
        supervised per-task retries; bus mode keeps per-task workers
        for stream attribution."""
        compute_s = 0.0
        bus_dir = str(self.bus_dir) if self.bus_dir is not None else None
        for i in pending:
            attempt = 0
            while True:
                attempt += 1
                result, seconds, state = _supervised_task(
                    tasks[i], i, attempt, bus_dir=bus_dir,
                    source=f"task-{i:04d}" if bus_dir else None,
                    trace=self._task_trace(i) if bus_dir else None,
                )
                if isinstance(result, TaskFailure):
                    if self._handle_failure(result):
                        continue
                    break
                if state is not None:
                    self._merge_worker_state(state)
                compute_s += seconds
                self._note_duration(tasks[i].kind, seconds)
                self._finish(tasks[i], i, result, seconds, results)
                break
        return compute_s

    def _run_pool(self, tasks: Sequence[TaskSpec], pending: list[int],
                  results: list[Any]) -> float:
        """Supervised process-pool dispatch.

        Runs rounds until every task either finished or was quarantined:
        each round builds a fresh pool for the still-incomplete tasks
        and drains it, surviving ``BrokenProcessPool``.  Attempt
        accounting on a broken pool uses the spool markers written by
        :func:`_supervised_task`: when the supervisor itself killed the
        pool to reap a hung task, only the reaped task is charged; when
        a worker died unexpectedly, every task that had *started* an
        attempt is charged and queued bystanders are re-dispatched free.
        """
        compute_s = 0.0
        attempts = {i: 0 for i in pending}
        todo = set(pending)
        bus_dir = str(self.bus_dir) if self.bus_dir is not None else None
        run_token = (os.getpid(), next(_RUN_TOKENS))
        spool = Path(tempfile.mkdtemp(prefix="repro-engine-spool-"))
        try:
            while todo:
                batch = sorted(todo)
                pool = self._ensure_pool()
                broke = False
                reaped: set[int] = set()
                futures: dict[Future, int] = {}
                try:
                    for i in batch:
                        attempts[i] += 1
                        try:
                            fut = pool.submit(
                                _supervised_task, tasks[i], i, attempts[i],
                                self.chaos, str(spool), bus_dir,
                                f"task-{i:04d}" if bus_dir else None,
                                self._task_trace(i) if bus_dir else None,
                                run_token,
                            )
                        except BrokenExecutor:
                            attempts[i] -= 1
                            broke = True
                            break
                        futures[fut] = i
                    outstanding = set(futures)
                    running_since: dict[Future, float] = {}
                    while outstanding:
                        done, outstanding = wait(
                            outstanding, timeout=self._POLL_S,
                            return_when=FIRST_COMPLETED,
                        )
                        now = time.monotonic()
                        for fut in outstanding:
                            if fut not in running_since and fut.running():
                                running_since[fut] = now
                        overdue = [
                            fut for fut, since in running_since.items()
                            if fut in outstanding
                            and (limit := self._deadline_for(
                                tasks[futures[fut]].kind)) is not None
                            and now - since > limit
                        ]
                        if overdue:
                            reaped.update(futures[fut] for fut in overdue)
                            self._kill_workers(pool)
                        for fut in done:
                            i = futures[fut]
                            seconds, finished, fut_broke = (
                                self._dispose_future(
                                    fut, tasks[i], i, attempts, reaped,
                                    spool, results,
                                )
                            )
                            compute_s += seconds
                            broke = broke or fut_broke
                            if finished:
                                todo.discard(i)
                finally:
                    # The pool persists across rounds and run() calls;
                    # it is discarded only when broken (below) or via
                    # close().  Crashed submissions were already
                    # disposed, so nothing needs cancelling here.
                    pass
                if broke:
                    # A crash/reap poisoned the executor: discard it so
                    # the next round (or next run) starts from healthy
                    # workers.  The rebuild counter keeps its original
                    # meaning — rebuilds needed to *finish this run*.
                    self._discard_pool()
                    if todo:
                        self.stats.pool_rebuilds += 1
                        self.telemetry.count(
                            "engine.pool_rebuilds_total",
                            help="worker pools rebuilt after a crash "
                                 "or reap",
                        )
                        self._event("pool-rebuilt", incomplete=len(todo))
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        return compute_s

    # ------------------------------------------------- persistent pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The live worker pool, spawning it on first use.

        Workers are sized to ``jobs`` (not the current batch) because
        they outlive any one round; each runs :func:`_engine_worker_init`
        once to pin its BLAS thread pools.  They are forked (named, so a
        Python whose default start method differs still forks), on the
        first submit, after every discarded pool's manager thread has
        finished (:data:`_DISCARDED_MANAGERS`).
        """
        pool = self._pool_holder.get("pool")
        if pool is None:
            _join_discarded_managers()
            pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_engine_worker_init,
            )
            self._pool_holder["pool"] = pool
        return pool

    def _discard_pool(self) -> None:
        pool = self._pool_holder.pop("pool", None)
        if pool is not None:
            _discard(pool)

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        self._discard_pool()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _dispose_future(self, fut: Future, task: TaskSpec, i: int,
                        attempts: dict[int, int], reaped: set[int],
                        spool: Path, results: list[Any]
                        ) -> tuple[float, bool, bool]:
        """Settle one completed future.

        Returns ``(seconds, finished, pool_broken)``: ``finished`` is
        True when the task is done (success or quarantine), False when
        it will be re-dispatched; ``pool_broken`` is True when the pool
        broke underneath this future and the round must rebuild.
        """
        try:
            result, seconds, state = fut.result()
        except BrokenExecutor as exc:
            started = (spool / f"{i}.{attempts[i]}").exists()
            if i in reaped:
                deadline = self._deadline_for(task.kind) or 0.0
                failure = TaskFailure(
                    kind=task.kind, index=i, key=task.canonical_key(),
                    exc_type="TaskTimeout",
                    message=(
                        f"exceeded the {deadline:.1f}s task deadline; "
                        "worker killed"
                    ),
                    traceback="", attempts=attempts[i],
                    worker_crash=True, timed_out=True,
                )
                return 0.0, not self._handle_failure(failure), True
            if reaped or not started:
                # Bystander of a deliberate reap, or still queued when a
                # sibling broke the pool: re-dispatch without charging.
                attempts[i] -= 1
                return 0.0, False, True
            if self.chaos is not None and not self.chaos.should_kill(
                task.canonical_key(), attempts[i]
            ):
                # Chaos runs can attribute exactly: the parent knows the
                # deterministic kill schedule, so a started task whose
                # attempt was *not* scheduled died as a bystander of a
                # sibling's kill — refund it, or heavy soaks would burn
                # innocent tasks' retry budgets into quarantine.
                attempts[i] -= 1
                return 0.0, False, True
            failure = TaskFailure(
                kind=task.kind, index=i, key=task.canonical_key(),
                exc_type="WorkerCrash",
                message=f"worker process died mid-task ({exc})",
                traceback="", attempts=attempts[i], worker_crash=True,
            )
            return 0.0, not self._handle_failure(failure), True
        except Exception as exc:
            # Submission-side faults (e.g. an unpicklable result).
            failure = TaskFailure(
                kind=task.kind, index=i, key=task.canonical_key(),
                exc_type=type(exc).__name__, message=str(exc),
                traceback=traceback_module.format_exc(),
                attempts=attempts[i],
            )
            return 0.0, not self._handle_failure(failure), False
        if isinstance(result, TaskFailure):
            result.attempts = attempts[i]
            return 0.0, not self._handle_failure(result), False
        if state is not None:
            self._merge_worker_state(state)
        self._note_duration(task.kind, seconds)
        self._finish(task, i, result, seconds, results)
        return seconds, True, False

    def _task_trace(self, index: int) -> tuple[str, str] | None:
        """The (trace_id, parent ref) context shipped to a bus worker."""
        if self._stitch is None:
            return None
        return (self._stitch.trace_id, f"{self._run_tag}-task-{index:04d}")

    def _absorb_worker_ledgers(self, pending: list[int]) -> None:
        """Fold this run's per-task worker ledgers into the parent's.

        Entries keep their worker-side source/step/member attribution;
        only ``seq`` is re-assigned.  No-op when the parent has no live
        ledger — the worker files remain on disk either way for
        ``repro explain`` to read directly.
        """
        led = self.telemetry.ledger
        if not led.enabled:
            return
        from repro.telemetry.ledger import load_ledger

        ldir = self.bus_dir / "ledgers"
        for i in pending:
            path = ldir / f"{self._run_tag}-task-{i:04d}.ledger.jsonl"
            if path.is_file():
                led.absorb(load_ledger(path).entries)

    def _merge_worker_state(self, state: dict[str, Any]) -> None:
        """Fold a worker's metrics-registry snapshot into the engine's
        registry (counters add, gauges take incoming, histograms pool)."""
        metrics = self.telemetry.metrics
        if hasattr(metrics, "merge"):
            metrics.merge(state)

    def _finish(self, task: TaskSpec, index: int, result: Any,
                seconds: float, results: list[Any]) -> None:
        results[index] = result
        self.stats.cache_misses += 1
        self.stats.executed += 1
        self._record_task(task, cached=False, compute_s=seconds,
                          index=index)
        if self.cache is not None:
            self.cache.store(task, result)


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine flags of ``repro report`` and
    ``python -m repro.experiments.report``."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the experiment grid (1 = serial, "
             "bit-for-bit the historical code path)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="on-disk result cache; repeated runs only recompute tasks "
             "whose parameters or code salt changed",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk cache (always recompute)",
    )
    parser.add_argument(
        "--bus-dir", default=None, metavar="DIR",
        help="event-bus directory: stream per-worker heartbeats, "
             "diagnostics alerts, and metrics snapshots to "
             "DIR/task-NNNN.jsonl and merge them into DIR/timeline.jsonl",
    )
    parser.add_argument(
        "--task-retries", type=int, default=2, metavar="N",
        help="re-dispatch a failed, crashed, or timed-out task up to N "
             "times before quarantining it (retries are bit-identical: "
             "tasks are pure functions of their seeded parameters)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-task deadline; hung workers are killed and the "
             "task retried (default: 8x the per-kind duration EWMA, "
             "floor 30s, once a kind has completed at least once)",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="complete the grid with partial results when tasks fail "
             "permanently (default strict: non-zero exit plus a ranked "
             "failure report; completed cells stay cached either way)",
    )
    parser.add_argument(
        "--failure-report", default=None, metavar="PATH",
        help="write the JSON engine failure report here after the run "
             "(written on success too, with healthy=true)",
    )
    parser.add_argument(
        "--chaos-kill-rate", type=float, default=0.0, metavar="P",
        help="chaos harness: SIGKILL the workers of roughly this "
             "fraction of tasks on their first attempt (seeded, "
             "deterministic; requires --jobs >= 2; CI soak only)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the worker-kill schedule (--chaos-kill-rate)",
    )


#: module-private shared default used when callers pass ``engine=None``
_INLINE = ExperimentEngine()


def default_engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    """The engine to use when a figure was not handed one: inline
    (jobs=1), uncached — today's serial behaviour."""
    return engine if engine is not None else _INLINE
