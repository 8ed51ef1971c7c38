"""Save/load trained tuner models and crash-recoverable tuning sessions.

The offline stage is trained once and reused for every tuning request
(Figure 1), so models must outlive the training process, and every
``repro tune --model`` pays :func:`load_tuner` once.  A model archive is
one ``.npz`` file (the suffix is appended when missing, on save and on
load alike).  Format 2 holds two uncompressed members:

* ``__meta__`` — UTF-8 JSON with what rebuilds the tuner (``kind``,
  dimensions, hyper-parameters, the class's ``SETTINGS``),
  ``format_version`` and ``layout``: ``[key, shape]`` per parameter
  tensor (``"actor/0"``, ...) in network order;
* ``params`` — every parameter concatenated into one float64 vector.

Loading reads the vector once and copies per-tensor views of it into
the freshly built networks.  Version-1 archives (one zlib-compressed
member per tensor, keyed like ``layout``) are still read.  Replay
buffers are deliberately *not* persisted in *model* archives: a fresh
request starts fine-tuning from the offline weights, and the paper's
online stage only pushes new transitions.

Session *checkpoints* are the opposite: they freeze in-flight online
tuning sessions completely — per member, agent weights, RDPER
P_high/P_low pools, every RNG state, the environment (cluster tracker +
simulator + fault injector), the resilience policy's streak state, and
the session so far, whose length is the step it resumes at — so a killed
run resumed with ``repro tune --resume`` replays bit-identically to one
that was never interrupted.  There is one checkpoint payload, a list of
members: a single session is a population of one, and
:class:`PopulationCheckpointManager` snapshots it, a lockstep population
and a sharded one alike.  Single-session payloads written by earlier
builds still load, as a population of one.

Models and snapshots alike are written atomically (tmp file in the same
directory + ``os.replace``), so a kill mid-write never corrupts the
previous file.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import types
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.agents.base import AgentHyperParams
from repro.baselines.cdbtune import CDBTune
from repro.core.deepcat import DeepCAT

__all__ = [
    "save_tuner",
    "load_tuner",
    "PopulationCheckpoint",
    "save_population_checkpoint",
    "load_population_checkpoint",
    "PopulationCheckpointManager",
]

_FORMAT_VERSION = 2
#: per-tensor compressed members; read-only since format 2
_LEGACY_FORMAT_VERSION = 1
#: single-session payloads; read-only since a session checkpoints as a
#: population of one
_SESSION_CHECKPOINT_VERSION = 1
_POPULATION_CHECKPOINT_VERSION = 1

#: a model archive's ``kind``: the tuner class, and its agent's networks
#: in archive order
_KINDS = {
    "deepcat": (DeepCAT, (
        "actor", "actor_target",
        "critic1", "critic2", "critic1_target", "critic2_target",
    )),
    "cdbtune": (CDBTune, ("actor", "actor_target", "critic", "critic_target")),
}


def _collect_arrays(agent, nets: tuple[str, ...]) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for net_name in nets:
        net = getattr(agent, net_name)
        for i, p in enumerate(net.parameters()):
            arrays[f"{net_name}/{i}"] = p.data
    return arrays


def _restore_arrays(agent, nets: tuple[str, ...], arrays) -> None:
    for net_name in nets:
        net = getattr(agent, net_name)
        for i, p in enumerate(net.parameters()):
            key = f"{net_name}/{i}"
            if key not in arrays:
                raise ValueError(f"archive missing tensor {key}")
            data = arrays[key]
            if data.shape != p.data.shape:
                raise ValueError(
                    f"{key}: shape {data.shape} != expected {p.data.shape}"
                )
            p.data[...] = data


def _write_atomic(path: Path, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it
    over ``path``: the file at ``path`` is always complete, and a failed
    write leaves the previous one (and no temp file) behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _model_path(path: str | Path) -> Path:
    """The file a model archive named ``path`` lives in: ``path`` itself
    when it ends in ``.npz``, else ``path`` with ``.npz`` appended."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(
        path.name + ".npz"
    )


def save_tuner(tuner, path: str | Path) -> Path:
    """Serialize a trained DeepCAT or CDBTune model; returns the file
    written (``path``, with ``.npz`` appended if missing)."""
    path = _model_path(path)
    for kind, (cls, nets) in _KINDS.items():
        if isinstance(tuner, cls):
            break
    else:
        raise TypeError(f"cannot persist {type(tuner).__name__}")
    arrays = _collect_arrays(tuner.agent, nets)
    meta = {
        "kind": kind,
        "state_dim": tuner.agent.state_dim,
        "action_dim": tuner.agent.action_dim,
        "hp": asdict(tuner.hp),
        **{setting: getattr(tuner, setting) for setting in cls.SETTINGS},
        "format_version": _FORMAT_VERSION,
        "layout": [[key, list(a.shape)] for key, a in arrays.items()],
    }
    params = np.concatenate(
        [a.ravel() for a in arrays.values()], dtype=np.float64
    )
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"),
                               dtype=np.uint8)
    _write_atomic(
        path, lambda fh: np.savez(fh, __meta__=meta_bytes, params=params)
    )
    return path


def _unpack_params(meta: dict, archive) -> dict[str, np.ndarray]:
    """Per-tensor views into a format-2 archive's ``params`` vector."""
    if "params" not in archive.files:
        raise ValueError("archive missing params vector")
    flat = archive["params"]
    layout = [(key, tuple(shape)) for key, shape in meta["layout"]]
    sizes = [math.prod(shape) for _, shape in layout]
    if flat.ndim != 1 or sum(sizes) != flat.size:
        raise ValueError(
            f"layout describes {sum(sizes)} parameters, "
            f"params vector holds {flat.size}"
        )
    offsets = itertools.accumulate(sizes, initial=0)
    return {
        key: flat[off:off + n].reshape(shape)
        for (key, shape), off, n in zip(layout, offsets, sizes)
    }


def load_tuner(path: str | Path, seed: int = 0):
    """Rebuild a tuner from :func:`save_tuner` output (format 2, or a
    version-1 archive).  ``path`` resolves like :func:`save_tuner`'s.

    ``seed`` re-seeds the *runtime* randomness (exploration noise, replay
    sampling); the learned weights are restored exactly.
    """
    with np.load(_model_path(path)) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode("utf-8"))
        version = meta.get("format_version")
        if version == _FORMAT_VERSION:
            arrays = _unpack_params(meta, archive)
        elif version == _LEGACY_FORMAT_VERSION:
            arrays = archive
        else:
            raise ValueError(f"unsupported archive version {version}")
        if meta["kind"] not in _KINDS:
            raise ValueError(f"unknown tuner kind {meta['kind']!r}")
        cls, nets = _KINDS[meta["kind"]]
        hp_dict = dict(meta["hp"])
        hp_dict["hidden"] = tuple(hp_dict["hidden"])
        tuner = cls(
            meta["state_dim"],
            meta["action_dim"],
            seed=seed,
            hp=AgentHyperParams(**hp_dict),
            **{setting: meta[setting] for setting in cls.SETTINGS},
        )
        _restore_arrays(tuner.agent, nets, arrays)
    return tuner


# ===================================================================== #
#  Session checkpointing                                                #
# ===================================================================== #


def _next_step(session) -> int:
    """The first step a member has not yet run: its session's length, or
    0 before it has a session."""
    return len(session.steps) if session is not None else 0


@dataclass
class PopulationCheckpoint:
    """Frozen in-flight online tuning sessions; a single session is a
    population of one.

    Parallel per-member lists.  A session is its own resume point: a
    member resumes alone through ``tuners[i].tune_online(envs[i],
    steps=total, session=sessions[i], resilience=resiliences[i])``, and a
    population through ``PopulationTuner.from_deepcat(tuners, envs,
    sessions=sessions, resiliences=resiliences)`` and ``tune`` with the
    original total step count.
    """

    tuners: list
    envs: list
    sessions: list
    resiliences: list

    @property
    def next_steps(self) -> list[int]:
        """The first step each member has not yet run."""
        return [_next_step(s) for s in self.sessions]


def save_population_checkpoint(
    path: str | Path,
    *,
    tuners,
    envs,
    sessions,
    resiliences=None,
) -> Path:
    """Atomically snapshot in-flight sessions to one file.

    The tmp-file + ``os.replace`` dance guarantees the file at ``path``
    is always a complete checkpoint — a kill during the write leaves the
    previous snapshot intact.  Live telemetry pickles as the null
    context (see ``RunContext.__reduce__``), so a restored member
    resumes bit-identically whether it rejoins a population or
    continues alone.  Each member's ``next_step`` is written from its
    session, for readers of the payload.
    """
    path = Path(path)
    tuners = list(tuners)
    envs = list(envs)
    sessions = list(sessions)
    resiliences = (
        list(resiliences) if resiliences is not None else [None] * len(tuners)
    )
    if not len(tuners) == len(envs) == len(sessions) == len(resiliences):
        raise ValueError("per-member checkpoint lists must match in length")
    payload = {
        "population_checkpoint_version": _POPULATION_CHECKPOINT_VERSION,
        "members": [
            {
                "tuner": tuner,
                "env": env,
                "session": session,
                "next_step": _next_step(session),
                "resilience": resilience,
            }
            for tuner, env, session, resilience in zip(
                tuners, envs, sessions, resiliences
            )
        ],
    }
    _write_atomic(path, lambda fh: pickle.dump(
        payload, fh, protocol=pickle.HIGHEST_PROTOCOL))
    return path


class _CheckpointUnpickler(pickle.Unpickler):
    """Reads checkpoints of every earlier version.

    Checkpoints written before the phase profiler was removed carry the
    detached null context with its null profiler.  Nothing reads that
    object after a restore, so it loads as a plain ``object``.
    Checkpoints written before the environment held its simulator carry
    a HiBench-style ``BenchmarkRunner`` and its ``BenchReport`` history;
    both load as plain namespaces, and ``TuningEnv.__setstate__`` takes
    the simulator out of the runner.
    """

    def find_class(self, module: str, name: str) -> Any:
        if module == "repro.telemetry.profiling":
            return object
        if module.startswith("repro.hibench."):
            return types.SimpleNamespace
        return super().find_class(module, name)


def load_population_checkpoint(path: str | Path) -> PopulationCheckpoint:
    """Restore a snapshot written by :func:`save_population_checkpoint`.

    A single-session payload (``checkpoint_version``, written before a
    session checkpointed as a population of one) loads as a population
    of one.  Telemetry comes back as the null context; reattach a live
    :class:`~repro.telemetry.context.RunContext` by passing it to
    ``tune_online`` or the population as usual.
    """
    with open(Path(path), "rb") as fh:
        payload = _CheckpointUnpickler(fh).load()
    if "population_checkpoint_version" in payload:
        version = payload["population_checkpoint_version"]
        if version != _POPULATION_CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported population checkpoint version {version}"
            )
        members = payload["members"]
    else:
        version = payload.get("checkpoint_version")
        if version != _SESSION_CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        members = [payload]  # its keys are a member's
    return PopulationCheckpoint(
        tuners=[m["tuner"] for m in members],
        envs=[m["env"] for m in members],
        sessions=[m["session"] for m in members],
        resiliences=[m["resilience"] for m in members],
    )


class PopulationCheckpointManager:
    """Periodic checkpointer handed to ``OnlineTuner.tune`` (a population
    of one), ``PopulationTuner.tune`` and ``ShardedPopulation.tune``.

    ``every`` is the snapshot cadence in *lockstep* iterations (1 = after
    every step).  ``on_step`` receives the per-member sessions and the
    number of lockstep iterations completed; ``save`` writes
    unconditionally (final snapshot on interrupt).
    """

    def __init__(self, path: str | Path, tuners, envs, resiliences=None,
                 every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.path = Path(path)
        self.tuners = list(tuners)
        self.envs = list(envs)
        self.resiliences = (
            list(resiliences)
            if resiliences is not None
            else [None] * len(self.tuners)
        )
        self.every = every
        self.saves = 0
        #: progress of the newest on-disk snapshot (None = nothing saved)
        self._saved_steps: list[int] | None = None

    def save(self, sessions) -> Path:
        self.saves += 1
        path = save_population_checkpoint(
            self.path,
            tuners=self.tuners,
            envs=self.envs,
            sessions=sessions,
            resiliences=self.resiliences,
        )
        self._saved_steps = [_next_step(s) for s in sessions]
        return path

    def save_if_stale(self, sessions) -> Path | None:
        """Final snapshot on interrupt — but only when it would add
        progress.  An interrupt lands mid-step, *after* the members'
        RNG streams advanced for the in-flight step; overwriting a clean
        boundary snapshot of the same progress with those dirty streams
        would break resume bit-identity.
        """
        if self._saved_steps == [_next_step(s) for s in sessions]:
            return None
        return self.save(sessions)

    def due(self, next_step: int) -> bool:
        """Whether the cadence snapshots once ``next_step`` lockstep
        iterations are complete."""
        return next_step % self.every == 0

    def on_step(self, sessions, next_step: int) -> Path | None:
        if self.due(next_step):
            return self.save(sessions)
        return None
