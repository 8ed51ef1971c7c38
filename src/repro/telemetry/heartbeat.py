"""Live-session heartbeat: a small JSON file overwritten every episode.

Long offline-training and online-tuning runs are opaque from outside the
process: the events file grows append-only, but answering "where is it
now and when will it finish?" means parsing the whole log.  The
:class:`HeartbeatWriter` answers it in O(1): after every per-step event
it atomically rewrites one JSON document with the current step, phase,
elapsed wall-clock, and an ETA extrapolated from the mean step time.

The writer is a :class:`~repro.utils.logging.TuningLogger`, so it plugs
into the existing event stream (alone, or fanned out next to a
``JsonlLogger`` via :class:`~repro.utils.logging.TeeLogger`) without any
trainer/tuner API change.  Writes are tmp-file + ``os.replace`` atomic:
a reader (``repro telemetry watch``) never sees a torn document, and a
crashed run leaves its last completed heartbeat behind as a post-mortem.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

from repro.utils.logging import TuningLogger

__all__ = [
    "HeartbeatWriter",
    "read_heartbeat",
    "scan_heartbeats",
    "render_heartbeat",
    "heartbeat_status",
    "default_stale_after",
    "finalize_heartbeat",
    "pid_alive",
]

#: event kinds that advance the heartbeat, mapped to the phase they imply
STEP_KINDS: dict[str, str] = {
    "offline-step": "offline-train",
    "online-step": "online-tune",
}

#: resilience intervention kinds surfaced in the heartbeat document
_RESILIENCE_KEYS: dict[str, str] = {
    "retry": "retries",
    "watchdog-abort": "watchdog_aborts",
    "fallback": "fallbacks",
    "state-repair": "state_repairs",
}

#: how many recent alerts the heartbeat document carries
_ACTIVE_ALERTS = 5


class HeartbeatWriter(TuningLogger):
    """Writes the heartbeat document on every per-step event.

    Parameters
    ----------
    path:
        Where the heartbeat JSON lives (overwritten in place).
    total_steps:
        Planned step count, for progress/ETA (``None`` => unknown).
    step_kinds:
        Event kinds that count as a step (default: offline + online).
    """

    def __init__(
        self,
        path: str | Path,
        total_steps: int | None = None,
        step_kinds: dict[str, str] | None = None,
    ):
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.total_steps = total_steps
        self._kinds = dict(STEP_KINDS if step_kinds is None else step_kinds)
        self._steps_done = 0
        self._start_perf = time.perf_counter()
        self._resilience = {key: 0 for key in _RESILIENCE_KEYS.values()}
        self._alerts_total = 0
        self._alerts_active: list[dict[str, Any]] = []
        self._best_reward: float | None = None
        self._best_duration_s: float | None = None
        self._round_s: float | None = None

    def event(self, kind: str, **fields: Any) -> None:
        # Non-step events never touch the file — they only accumulate
        # state that the next step's document will carry.
        if kind == "intervention":
            key = _RESILIENCE_KEYS.get(str(fields.get("intervention", "")))
            if key is not None:
                self._resilience[key] += 1
            return
        if kind == "alert":
            self._alerts_total += 1
            self._alerts_active.append({
                "name": fields.get("name"),
                "severity": fields.get("severity"),
                "step": fields.get("step"),
            })
            if len(self._alerts_active) > _ACTIVE_ALERTS:
                del self._alerts_active[0]
            return
        if kind == "population-round":
            # Sharded lockstep lands one barrier round at a time: N member
            # steps arrive in a burst, so the mean *step* interval is N×
            # shorter than the wall-clock gap between file updates.  The
            # slowest shard's round time is the true update cadence; the
            # next step document carries it so staleness detection can
            # key off rounds, not steps.
            round_s = fields.get("round_s")
            if isinstance(round_s, (int, float)):
                self._round_s = float(round_s)
            return
        phase = self._kinds.get(kind)
        if phase is None:
            return
        reward = fields.get("reward")
        if isinstance(reward, (int, float)) and (
            self._best_reward is None or reward > self._best_reward
        ):
            self._best_reward = float(reward)
        duration = fields.get("duration_s", fields.get("best_s"))
        if (
            fields.get("success", True)
            and isinstance(duration, (int, float))
            and (self._best_duration_s is None
                 or duration < self._best_duration_s)
        ):
            self._best_duration_s = float(duration)
        self._steps_done += 1
        elapsed = time.perf_counter() - self._start_perf
        eta: float | None = None
        if self.total_steps and self._steps_done:
            remaining = max(self.total_steps - self._steps_done, 0)
            eta = elapsed / self._steps_done * remaining
        doc = {
            "phase": phase,
            "step": self._steps_done,
            "total_steps": self.total_steps,
            "elapsed_s": round(elapsed, 6),
            "eta_s": round(eta, 6) if eta is not None else None,
            "updated_at": time.time(),
            "pid": os.getpid(),
            "resilience": dict(self._resilience),
            "alerts": {
                "total": self._alerts_total,
                "active": list(self._alerts_active),
            },
            "best_reward": self._best_reward,
            "best_duration_s": self._best_duration_s,
            "round_s": self._round_s,
            "last_event": {
                k: v
                for k, v in fields.items()
                if isinstance(v, (str, int, float, bool)) or v is None
            },
        }
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        os.replace(tmp, self.path)


def read_heartbeat(path: str | Path) -> dict[str, Any]:
    """Load a heartbeat document; raises ``ValueError`` on a bad file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"{path}: no heartbeat file") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a heartbeat JSON ({exc})") from None
    if not isinstance(doc, dict) or "step" not in doc:
        raise ValueError(f"{path}: not a heartbeat document")
    return doc


def scan_heartbeats(
    root: str | Path, recursive: bool = False
) -> Iterator[tuple[Path, dict[str, Any]]]:
    """``(path, document)`` for each heartbeat among ``root``'s ``*.json``
    files (and its subdirectories' when ``recursive``), in path order.

    Manifests, Chrome trace exports and files that are not heartbeat
    documents are skipped.
    """
    root = Path(root)
    found = root.rglob("*.json") if recursive else root.glob("*.json")
    for path in sorted(found):
        if "manifest" in path.name or path.name.endswith(".chrome.json"):
            continue
        try:
            doc = read_heartbeat(path)
        except ValueError:
            continue
        yield path, doc


def finalize_heartbeat(path: str | Path, status: str = "completed") -> None:
    """Stamp a terminal marker into an existing heartbeat document.

    A run that stops *on purpose* before ``total_steps`` (time budget,
    Ctrl-C with a checkpoint) leaves a heartbeat whose pid is gone —
    indistinguishable from a crash without this marker.  The CLI calls
    it on clean exit and on handled interrupts; a run that truly died
    never gets here, which is exactly what makes ``crashed`` detectable.
    """
    path = Path(path)
    try:
        doc = read_heartbeat(path)
    except ValueError:
        return
    doc["finished"] = status
    doc["updated_at"] = time.time()
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def pid_alive(pid: Any) -> bool | None:
    """Best-effort liveness probe; ``None`` when it cannot be answered
    (missing/foreign pid, platforms without ``kill(pid, 0)``)."""
    if not isinstance(pid, int) or isinstance(pid, bool) or pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - platform-dependent
        return None
    return True


def default_stale_after(doc: dict[str, Any]) -> float:
    """Staleness horizon for a heartbeat: 3× the observed mean step
    interval, floored at 10 s so fast sessions aren't flagged by
    scheduler jitter.

    Sharded population runs stamp ``round_s`` (the slowest shard's
    lockstep round time); when present it wins over the per-step mean,
    because a round delivers a whole population's steps in one burst and
    the per-step mean would under-estimate the update cadence by the
    population size."""
    round_s = doc.get("round_s")
    if isinstance(round_s, (int, float)) and round_s > 0:
        return max(3.0 * float(round_s), 10.0)
    step = doc.get("step") or 0
    elapsed = doc.get("elapsed_s") or 0.0
    if step > 0 and elapsed > 0.0:
        return max(3.0 * elapsed / step, 10.0)
    return 10.0


def _finished(doc: dict[str, Any]) -> bool:
    """A terminal marker, or every step done."""
    total = doc.get("total_steps")
    return bool(doc.get("finished")) or bool(
        total and doc.get("step", 0) >= total
    )


def heartbeat_status(
    doc: dict[str, Any],
    age_s: float,
    stale_after: float | None = None,
    alive: bool | None = None,
) -> str:
    """Classify a heartbeat: ``done``, ``crashed``, ``stalled``, or
    ``running``.

    ``age_s`` is how long ago the file was last written (use its mtime:
    the ``updated_at`` wall-clock inside the document is not monotonic
    across hosts).  ``stale_after`` overrides the 3×-step-interval
    default.  ``alive`` is the writer pid's liveness (see
    :func:`pid_alive`): ``False`` with no terminal marker means the
    process died mid-run — ``crashed``, not merely ``stalled``; ``None``
    (unknown) falls back to pure mtime staleness.
    """
    if _finished(doc):
        return "done"
    if alive is False:
        return "crashed"
    horizon = (
        stale_after if stale_after is not None else default_stale_after(doc)
    )
    if age_s > horizon:
        return "stalled"
    return "running"


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_heartbeat(doc: dict[str, Any]) -> str:
    """One status line for the CLI watcher; a document more than a
    minute old is marked ``(stale)`` unless its run finished."""
    total = doc.get("total_steps")
    progress = (
        f"{doc['step']}/{total}" if total else f"{doc['step']}"
    )
    age = time.time() - doc.get("updated_at", time.time())
    stale = "  (stale)" if age > 60 and not _finished(doc) else ""
    extras = ""
    resilience = doc.get("resilience") or {}
    if any(resilience.values()):
        parts = [
            f"{name.replace('_', ' ')} {count}"
            for name, count in resilience.items()
            if count
        ]
        extras += f"  [{', '.join(parts)}]"
    alerts = doc.get("alerts") or {}
    if alerts.get("total"):
        worst = alerts.get("active") or [{}]
        extras += (
            f"  alerts {alerts['total']}"
            f" (last: {worst[-1].get('name', '?')})"
        )
    return (
        f"{doc.get('phase', '?'):<14} step {progress:<12} "
        f"elapsed {_fmt_duration(doc.get('elapsed_s')):>8}  "
        f"eta {_fmt_duration(doc.get('eta_s')):>8}  "
        f"pid {doc.get('pid', '?')}{stale}{extras}"
    )
