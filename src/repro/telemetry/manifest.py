"""Run provenance: who ran what, with which code, seeds, and budget.

A :class:`RunManifest` is written next to a run's results so any number
in a report can be traced back to the exact code revision, seed,
hyper-parameters, and cluster spec that produced it — and to where the
wall-clock went (filled from the tracer at finish time).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

__all__ = ["RunManifest", "git_sha", "describe_hyper_params"]


def git_sha(cwd: str | Path | None = None) -> str | None:
    """Current git commit SHA, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of config objects to JSON-safe values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if hasattr(value, "tolist"):  # numpy arrays
        return value.tolist()
    return repr(value)


def describe_hyper_params(obj: Any) -> dict[str, Any]:
    """Dataclass / dict / attribute bag -> plain JSON-safe dict."""
    if obj is None:
        return {}
    out = _jsonable(obj)
    return out if isinstance(out, dict) else {"value": out}


class RunManifest:
    """Provenance record for one tuning run (offline, online, or both)."""

    def __init__(
        self,
        kind: str = "run",
        seed: int | None = None,
        workload: str | None = None,
        dataset: str | None = None,
    ):
        self.kind = kind
        self.seed = seed
        self.workload = workload
        self.dataset = dataset
        self.created_at = time.time()
        self.finished_at: float | None = None
        # Wall timestamps (created_at/finished_at) are for display and
        # correlation only; durations come from the monotonic clock so a
        # system-clock step (NTP slew, suspend) cannot skew elapsed_s
        # negative or wildly long.
        self._created_perf = time.perf_counter()
        self._elapsed_s: float | None = None
        self.run_id = f"{int(self.created_at * 1e3):x}-{os.getpid():x}"
        # Provenance of the *code*, not of wherever the run was launched
        # from: resolve the SHA against this package's checkout.
        self.git_sha = git_sha(cwd=Path(__file__).resolve().parent)
        if self.git_sha is None:
            self.git_sha = git_sha()
        self.python = sys.version.split()[0]
        self.platform = platform.platform()
        self.hyper_parameters: dict[str, Any] = {}
        self.cluster: dict[str, Any] = {}
        self.wall_clock: dict[str, Any] = {}
        self.stages: list[dict[str, Any]] = []
        self.extra: dict[str, Any] = {}

    # ---------------------------------------------------------- recording

    def record_hyper_params(self, hp: Any) -> None:
        self.hyper_parameters.update(describe_hyper_params(hp))

    def record_cluster(self, cluster: Any) -> None:
        self.cluster = describe_hyper_params(cluster)

    def record_stage(self, name: str, **fields: Any) -> None:
        """Append a pipeline-stage entry (offline-train, online-tune...)."""
        self.stages.append({"stage": name, **_jsonable(fields)})

    def record_wall_clock(self, breakdown: dict[str, Any]) -> None:
        """Merge a {span-name: {count, total_s}} breakdown (tracer.totals)."""
        self.wall_clock.update(_jsonable(breakdown))

    def finish(self) -> None:
        self.finished_at = time.time()
        self._elapsed_s = time.perf_counter() - self._created_perf

    @property
    def elapsed_s(self) -> float:
        if self._elapsed_s is not None:
            return self._elapsed_s
        return time.perf_counter() - self._created_perf

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "seed": self.seed,
            "workload": self.workload,
            "dataset": self.dataset,
            "git_sha": self.git_sha,
            "python": self.python,
            "platform": self.platform,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "elapsed_s": self.elapsed_s,
            "hyper_parameters": self.hyper_parameters,
            "cluster": self.cluster,
            "wall_clock": self.wall_clock,
            "stages": self.stages,
            "extra": _jsonable(self.extra),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str | Path) -> None:
        if self.finished_at is None:
            self.finish()
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        manifest = cls(
            kind=data.get("kind", "run"),
            seed=data.get("seed"),
            workload=data.get("workload"),
            dataset=data.get("dataset"),
        )
        manifest.run_id = data.get("run_id", manifest.run_id)
        manifest.created_at = data.get("created_at", manifest.created_at)
        manifest.finished_at = data.get("finished_at")
        # A loaded manifest reports the duration it was saved with; its
        # own monotonic clock has no relation to the recorded run.
        manifest._elapsed_s = data.get("elapsed_s")
        # So too the host and code that recorded it, not those reading it.
        manifest.git_sha = data.get("git_sha")
        manifest.python = data.get("python")
        manifest.platform = data.get("platform")
        manifest.hyper_parameters = data.get("hyper_parameters", {})
        manifest.cluster = data.get("cluster", {})
        manifest.wall_clock = data.get("wall_clock", {})
        manifest.stages = data.get("stages", [])
        manifest.extra = data.get("extra", {})
        return manifest

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )
