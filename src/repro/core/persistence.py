"""Save/load trained tuner models and crash-recoverable tuning sessions.

The offline stage is trained once and reused for every tuning request
(Figure 1), so models must outlive the training process, and every
``repro tune --model`` pays :func:`load_tuner` once.  A model archive is
one ``.npz`` file (the suffix is appended when missing, on save and on
load alike).  Format 2 holds two uncompressed members:

* ``__meta__`` — UTF-8 JSON with what rebuilds the agent (dimensions,
  hyper-parameters, DeepCAT thresholds), ``format_version`` and
  ``layout``: ``[key, shape]`` per parameter tensor (``"actor/0"``, ...)
  in network order;
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
the step counter — so a killed run resumed with ``repro tune --resume``
replays bit-identically to one that was never interrupted.  There is one
checkpoint payload, a list of members: a single session is a population
of one, and :class:`PopulationCheckpointManager` snapshots it, a
lockstep population and a sharded one alike.  Single-session payloads
written by earlier builds still load, as a population of one.

Models and snapshots alike are written atomically (tmp file in the same
directory + ``os.replace``), so a kill mid-write never corrupts the
previous file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import pickle
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

_TD3_NETS = (
    "actor", "actor_target",
    "critic1", "critic2", "critic1_target", "critic2_target",
)
_DDPG_NETS = ("actor", "actor_target", "critic", "critic_target")


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


def _meta_for(tuner) -> dict:
    if isinstance(tuner, DeepCAT):
        return {
            "kind": "deepcat",
            "state_dim": tuner.agent.state_dim,
            "action_dim": tuner.agent.action_dim,
            "hp": asdict(tuner.hp),
            "use_rdper": tuner.use_rdper,
            "use_twin_q": tuner.use_twin_q,
            "reward_threshold": tuner.reward_threshold,
            "beta": tuner.beta,
            "q_threshold": tuner.q_threshold,
            "twinq_noise_sigma": tuner.twinq_noise_sigma,
        }
    if isinstance(tuner, CDBTune):
        return {
            "kind": "cdbtune",
            "state_dim": tuner.agent.state_dim,
            "action_dim": tuner.agent.action_dim,
            "hp": asdict(tuner.hp),
        }
    raise TypeError(f"cannot persist {type(tuner).__name__}")


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
    meta = _meta_for(tuner)  # validates the tuner type first
    nets = _TD3_NETS if isinstance(tuner, DeepCAT) else _DDPG_NETS
    arrays = _collect_arrays(tuner.agent, nets)
    meta["format_version"] = _FORMAT_VERSION
    meta["layout"] = [[key, list(a.shape)] for key, a in arrays.items()]
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
        hp_dict = dict(meta["hp"])
        hp_dict["hidden"] = tuple(hp_dict["hidden"])
        hp = AgentHyperParams(**hp_dict)
        if meta["kind"] == "deepcat":
            tuner = DeepCAT(
                meta["state_dim"],
                meta["action_dim"],
                seed=seed,
                hp=hp,
                reward_threshold=meta["reward_threshold"],
                beta=meta["beta"],
                q_threshold=meta["q_threshold"],
                twinq_noise_sigma=meta["twinq_noise_sigma"],
                use_rdper=meta["use_rdper"],
                use_twin_q=meta["use_twin_q"],
            )
            _restore_arrays(tuner.agent, _TD3_NETS, arrays)
        elif meta["kind"] == "cdbtune":
            tuner = CDBTune(
                meta["state_dim"], meta["action_dim"], seed=seed, hp=hp
            )
            _restore_arrays(tuner.agent, _DDPG_NETS, arrays)
        else:
            raise ValueError(f"unknown tuner kind {meta['kind']!r}")
    return tuner


# ===================================================================== #
#  Session checkpointing                                                #
# ===================================================================== #


@dataclass
class PopulationCheckpoint:
    """Frozen in-flight online tuning sessions; a single session is a
    population of one.

    Parallel per-member lists; ``next_steps[i]`` is the first step member
    ``i`` has not yet executed (``len(sessions[i].steps)``).  A member
    resumes alone through ``tuners[i].tune_online(envs[i], steps=total,
    session=sessions[i], start_step=next_steps[i],
    resilience=resiliences[i])``, and a population through
    ``PopulationTuner.from_deepcat(tuners, envs, sessions=sessions,
    start_steps=next_steps, resiliences=resiliences)`` and ``tune`` with
    the original total step count.
    """

    tuners: list
    envs: list
    sessions: list
    next_steps: list[int]
    resiliences: list


def _telemetry_attachment_points(tuner, env):
    """Every ``(obj, attr)`` through which live telemetry (lock-bearing
    tracers/registries) can leak into the pickled object graph."""
    points = []
    agent = getattr(tuner, "agent", None)
    if agent is not None and hasattr(agent, "telemetry"):
        points.append((agent, "telemetry"))
    buffer = getattr(tuner, "buffer", None)
    if buffer is not None and hasattr(buffer, "_telemetry"):
        points.append((buffer, "_telemetry"))
    simulator = getattr(getattr(env, "runner", None), "simulator", None)
    if simulator is not None and hasattr(simulator, "telemetry"):
        points.append((simulator, "telemetry"))
    return points


@contextlib.contextmanager
def _telemetry_detached(tuner, env):
    """Temporarily swap live telemetry for the null context.

    Live tracers/registries hold ``threading.Lock`` (and
    ``threading.local``) and cannot be pickled; telemetry is shared
    infrastructure, not run state, so it is excluded from checkpoints
    and reattached by the caller after a restore.
    """
    from repro.telemetry.context import NULL_CONTEXT

    points = _telemetry_attachment_points(tuner, env)
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr in points]
    for obj, attr in points:
        setattr(obj, attr, NULL_CONTEXT)
    try:
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def save_population_checkpoint(
    path: str | Path,
    *,
    tuners,
    envs,
    sessions,
    next_steps,
    resiliences=None,
) -> Path:
    """Atomically snapshot in-flight sessions to one file.

    The tmp-file + ``os.replace`` dance guarantees the file at ``path``
    is always a complete checkpoint — a kill during the write leaves the
    previous snapshot intact.  Live telemetry is detached from every
    member's object graph while it pickles, so a restored member resumes
    bit-identically whether it rejoins a population or continues alone.
    """
    path = Path(path)
    tuners = list(tuners)
    envs = list(envs)
    sessions = list(sessions)
    next_steps = [int(s) for s in next_steps]
    resiliences = (
        list(resiliences) if resiliences is not None else [None] * len(tuners)
    )
    if not (
        len(tuners) == len(envs) == len(sessions)
        == len(next_steps) == len(resiliences)
    ):
        raise ValueError("per-member checkpoint lists must match in length")
    payload = {
        "population_checkpoint_version": _POPULATION_CHECKPOINT_VERSION,
        "members": [
            {
                "tuner": tuner,
                "env": env,
                "session": session,
                "next_step": next_step,
                "resilience": resilience,
            }
            for tuner, env, session, next_step, resilience in zip(
                tuners, envs, sessions, next_steps, resiliences
            )
        ],
    }
    with contextlib.ExitStack() as stack:
        for tuner, env in zip(tuners, envs):
            stack.enter_context(_telemetry_detached(tuner, env))
        _write_atomic(path, lambda fh: pickle.dump(
            payload, fh, protocol=pickle.HIGHEST_PROTOCOL))
    return path


class _CheckpointUnpickler(pickle.Unpickler):
    """Reads checkpoints of every earlier version.

    Checkpoints written before the phase profiler was removed carry the
    detached null context with its null profiler.  Nothing reads that
    object after a restore, so it loads as a plain ``object``.
    """

    def find_class(self, module: str, name: str) -> Any:
        if module == "repro.telemetry.profiling":
            return object
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
        next_steps=[m["next_step"] for m in members],
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
        self.saved_next_steps: list[int] | None = None

    def save(self, sessions, next_steps) -> Path:
        self.saves += 1
        path = save_population_checkpoint(
            self.path,
            tuners=self.tuners,
            envs=self.envs,
            sessions=sessions,
            next_steps=next_steps,
            resiliences=self.resiliences,
        )
        self.saved_next_steps = list(next_steps)
        return path

    def save_if_stale(self, sessions, next_steps) -> Path | None:
        """Final snapshot on interrupt — but only when it would add
        progress.  An interrupt lands mid-step, *after* the members'
        RNG streams advanced for the in-flight step; overwriting a clean
        boundary snapshot of the same progress with those dirty streams
        would break resume bit-identity.
        """
        if self.saved_next_steps == list(next_steps):
            return None
        return self.save(sessions, next_steps)

    def due(self, next_step: int) -> bool:
        """Whether the cadence snapshots once ``next_step`` lockstep
        iterations are complete."""
        return next_step % self.every == 0

    def on_step(self, sessions, next_step: int) -> Path | None:
        if self.due(next_step):
            return self.save(
                sessions, [len(s.steps) for s in sessions]
            )
        return None
