"""Post-mortem diagnosis: rank a run's learning-health findings.

``repro doctor <run-dir>`` reads whatever artifacts a run left behind —
JSONL events (or a merged bus timeline), the run manifest, the final
heartbeat — and prints a ranked diagnosis with remediation hints.

Two evidence sources, in order of preference:

1. **Live alerts** — ``alert`` events recorded by a session that ran
   with ``--diagnostics``; these carry full detector evidence (critic
   losses, RDPER pool stats) that cannot be reconstructed offline.
2. **Replayed detectors** — for runs without live diagnostics, the
   step/intervention events are re-fed through
   :func:`~repro.telemetry.diagnostics.replay_events`; only the
   detectors whose inputs survive in the event stream (reward plateau,
   intervention rate) can fire, and their findings are marked
   ``inferred``.

Ranking is ``(severity, count, recency)`` — the most severe, most
frequently escalated, most recent cause first.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..utils.jsonl import read_jsonl
from .artifacts import classify_artifact
from .bus import TIMELINE_NAME
from .diagnostics import SEVERITY_RANK, replay_events
from .heartbeat import scan_heartbeats

__all__ = ["diagnose_run", "render_diagnosis", "REMEDIATIONS"]

#: remediation hints keyed by detector cause name (stable API)
REMEDIATIONS: dict[str, str] = {
    "q-overestimation": (
        "critic predictions outrun realized rewards — raise the Twin-Q "
        "screening threshold (Q_th), increase policy_noise, or slow the "
        "actor (higher policy_delay)"
    ),
    "critic-divergence": (
        "critic loss is running away — lower the learning rate, shrink "
        "fine_tune_updates, or reset from the last good checkpoint "
        "(repro tune --resume)"
    ),
    "reward-plateau": (
        "no best-reward improvement — widen exploration_sigma, lower "
        "RDPER R_th so fresher transitions reach the high pool, or stop "
        "early to save evaluation budget"
    ),
    "rdper-stale-pool": (
        "the high-reward pool stopped accepting transitions — lower the "
        "reward threshold (R_th) or check whether the workload regressed"
    ),
    "rdper-beta-drift": (
        "realized high/low batch mix drifted from beta — the high pool "
        "is starved or flooded; retune beta or R_th"
    ),
    "exploration-collapse": (
        "exploration noise collapsed (SafetyGuard decay) — investigate "
        "the failures that triggered fallbacks, then raise sigma_min or "
        "relax the guard's max_consecutive_failures"
    ),
    "intervention-rate": (
        "retries/watchdog aborts/fallbacks fire on most steps — the "
        "environment is unstable; use --fault-profile retries, raise "
        "the watchdog multiple, or fix the cluster before tuning"
    ),
    "engine-task-failure": (
        "a grid cell kept failing in the worker — read the propagated "
        "traceback in the failure report, fix the cell or re-run with "
        "--task-retries/--lenient; completed cells are cached, so a "
        "re-run only recomputes the quarantined ones"
    ),
    "engine-task-timeout": (
        "a worker blew its per-task deadline and was reaped — raise "
        "--task-timeout (or let the EWMA warm up on a smaller grid), "
        "or investigate why that cell hangs"
    ),
    "engine-pool-rebuilt": (
        "the worker pool died mid-grid (OOM killer, segfault, external "
        "kill) — lower --jobs, check dmesg/cgroup memory limits; the "
        "supervisor re-dispatched the incomplete cells automatically"
    ),
    "engine-cache-corruption": (
        "result-cache entries failed their checksum and were moved to "
        ".quarantine/ — inspect or delete them; the affected cells "
        "recompute automatically on the next run"
    ),
}

#: engine supervisor event kinds synthesized into doctor findings
_ENGINE_EVENT_SEVERITY: dict[str, str] = {
    "task-failed": "warning",
    "pool-rebuilt": "warning",
    "cache-quarantined": "warning",
}


def _engine_event_alerts(
    records: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """Convert engine supervisor events into alert-shaped records.

    The experiment engine does not run learning-health detectors, but
    its ``task-failed`` / ``pool-rebuilt`` / ``cache-quarantined``
    events are first-class evidence of an unhealthy *run* — surface
    them through the same ranked-findings pipeline.
    """
    alerts: list[dict[str, Any]] = []
    for record in records:
        kind = record.get("kind")
        if kind not in _ENGINE_EVENT_SEVERITY:
            continue
        if kind == "task-failed":
            timed_out = bool(record.get("timed_out"))
            name = (
                "engine-task-timeout" if timed_out else "engine-task-failure"
            )
            message = (
                f"task {record.get('task_kind', '?')}"
                f"[{record.get('index', '?')}] "
                + ("hit its deadline" if timed_out
                   else f"raised {record.get('exc_type', '?')}: "
                        f"{record.get('message', '')}")
            )
            data = {
                k: record[k]
                for k in ("task_kind", "index", "attempt", "worker_crash")
                if k in record
            }
        elif kind == "pool-rebuilt":
            name = "engine-pool-rebuilt"
            message = (
                f"worker pool rebuilt with "
                f"{record.get('incomplete', '?')} task(s) incomplete"
            )
            data = {"incomplete": record.get("incomplete")}
        else:  # cache-quarantined
            name = "engine-cache-corruption"
            message = (
                f"{record.get('count', '?')} corrupt cache entr(y|ies) "
                f"quarantined to {record.get('quarantine_dir', '?')}"
            )
            data = {"count": record.get("count")}
        alerts.append({
            "name": name,
            "severity": _ENGINE_EVENT_SEVERITY[kind],
            "step": record.get("step"),
            "message": message,
            "data": data,
        })
    return alerts


def _find_events(run_dir: Path) -> tuple[Path | None, list[dict]]:
    """Pick the richest event stream available under a run directory:
    its path and records.  A span trace or a cost ledger, told apart by
    its first line, is never read in full."""
    timeline = run_dir / TIMELINE_NAME
    if timeline.is_file():
        return timeline, read_jsonl(timeline)[0]
    diagnosable = (
        ("online-step", "offline-step", "alert")
        + tuple(_ENGINE_EVENT_SEVERITY)
    )
    best: tuple[int, Path | None, list[dict]] = (0, None, [])
    for path in sorted(run_dir.glob("*.jsonl")):
        if classify_artifact(_first_line(path)) in ("trace", "ledger"):
            continue
        records, _ = read_jsonl(path)
        score = sum(1 for r in records if r.get("kind") in diagnosable)
        if score > best[0]:
            best = (score, path, records)
    return best[1], best[2]


def _first_line(path: Path) -> str:
    """The first non-blank line of a text file (``""`` when none)."""
    with path.open("r", encoding="utf-8") as fh:
        return next((line for line in fh if line.strip()), "")


def _load_manifest(run_dir: Path) -> dict[str, Any] | None:
    named = [run_dir / "manifest.json", run_dir / "run.manifest.json"]
    for path in named + sorted(run_dir.glob("*manifest*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(doc, dict):
            return doc
    return None


def _rank_findings(
    alerts: list[dict[str, Any]], inferred: bool
) -> list[dict[str, Any]]:
    """Fold raw alert records into one finding per cause, ranked."""
    by_name: dict[str, dict[str, Any]] = {}
    for idx, alert in enumerate(alerts):
        name = str(alert.get("name", "?"))
        severity = str(alert.get("severity", "info"))
        entry = by_name.setdefault(name, {
            "name": name,
            "severity": "info",
            "count": 0,
            "first_step": alert.get("step"),
            "last_step": alert.get("step"),
            "message": alert.get("message", ""),
            "data": alert.get("data", {}),
            "inferred": bool(alert.get("_inferred", inferred)),
            "_order": idx,
        })
        entry["count"] += 1
        entry["last_step"] = alert.get("step")
        entry["_order"] = idx
        if SEVERITY_RANK.get(severity, 0) >= SEVERITY_RANK.get(
            entry["severity"], 0
        ):
            entry["severity"] = severity
            entry["message"] = alert.get("message", entry["message"])
            entry["data"] = alert.get("data", entry["data"])
    findings = list(by_name.values())
    findings.sort(
        key=lambda f: (
            -SEVERITY_RANK.get(f["severity"], 0),
            -f["count"],
            -f.pop("_order"),
        )
    )
    for finding in findings:
        finding["remediation"] = REMEDIATIONS.get(
            finding["name"], "no remediation hint recorded for this cause"
        )
    return findings


def diagnose_run(target: str | Path) -> dict[str, Any]:
    """Diagnose a run directory (or a single events file).

    Returns a JSON-ready document::

        {"run": {...context...},
         "findings": [{name, severity, count, last_step, message,
                       data, inferred, remediation}, ...],
         "healthy": bool}
    """
    target = Path(target)
    if target.is_dir():
        run_dir = target
        events_path, records = _find_events(run_dir)
    else:
        run_dir = target.parent
        events_path = target
        records = read_jsonl(events_path)[0]
    live_alerts = [r for r in records if r.get("kind") == "alert"]
    engine_alerts = _engine_event_alerts(records)
    if live_alerts:
        findings = _rank_findings(
            live_alerts + engine_alerts, inferred=False
        )
    else:
        engine = replay_events(records)
        replayed = [
            dict(a.as_event_fields(), _inferred=True)
            for a in engine.alerts
        ]
        findings = _rank_findings(
            engine_alerts + replayed, inferred=False
        )

    steps = [
        r for r in records
        if r.get("kind") in ("online-step", "offline-step")
    ]
    manifest = _load_manifest(run_dir)
    heartbeat = next((doc for _, doc in scan_heartbeats(run_dir)), None)

    run_info: dict[str, Any] = {
        "path": str(target),
        "events_file": str(events_path) if events_path else None,
        "events": len(records),
        "steps": len(steps),
        "alerts_live": len(live_alerts),
        "alerts_engine": len(engine_alerts),
    }
    if manifest is not None:
        for key in ("kind", "seed", "git_sha", "elapsed_s"):
            if key in manifest:
                run_info[key] = manifest[key]
    if heartbeat is not None:
        run_info["heartbeat"] = {
            "phase": heartbeat.get("phase"),
            "step": heartbeat.get("step"),
            "total_steps": heartbeat.get("total_steps"),
            "resilience": heartbeat.get("resilience"),
            "alerts": (heartbeat.get("alerts") or {}).get("total"),
        }

    graded = [
        f for f in findings
        if SEVERITY_RANK.get(f["severity"], 0) >= SEVERITY_RANK["warning"]
    ]
    return {
        "run": run_info,
        "findings": findings,
        "healthy": not graded,
    }


_SEVERITY_TAG = {"critical": "CRIT", "warning": "WARN", "info": "info"}


def render_diagnosis(report: dict[str, Any], top: int | None = None) -> str:
    """Human-readable ranked diagnosis."""
    run = report.get("run", {})
    lines = [f"doctor: {run.get('path', '?')}"]
    meta = []
    if run.get("kind"):
        meta.append(f"kind {run['kind']}")
    if run.get("seed") is not None:
        meta.append(f"seed {run['seed']}")
    meta.append(f"{run.get('steps', 0)} steps")
    meta.append(f"{run.get('events', 0)} events")
    lines.append("  " + " · ".join(meta))
    hb = run.get("heartbeat")
    if hb:
        resilience = hb.get("resilience") or {}
        fired = ", ".join(
            f"{k.replace('_', ' ')} {v}" for k, v in resilience.items() if v
        )
        lines.append(
            f"  last heartbeat: {hb.get('phase', '?')} step "
            f"{hb.get('step', '?')}/{hb.get('total_steps') or '?'}"
            + (f"  [{fired}]" if fired else "")
        )
    lines.append("")

    findings = report.get("findings", [])
    if top is not None:
        findings = findings[:top]
    if not findings:
        lines.append("no findings — the event stream looks healthy")
        return "\n".join(lines) + "\n"

    for rank, f in enumerate(findings, start=1):
        tag = _SEVERITY_TAG.get(f["severity"], f["severity"])
        origin = " (inferred from replay)" if f.get("inferred") else ""
        step = f.get("last_step")
        at = f" @ step {step}" if step is not None else ""
        lines.append(
            f"{rank}. [{tag}] {f['name']} ×{f['count']}{at}{origin}"
        )
        if f.get("message"):
            lines.append(f"     {f['message']}")
        data = f.get("data") or {}
        if data:
            kv = ", ".join(f"{k}={v}" for k, v in data.items())
            lines.append(f"     evidence: {kv}")
        lines.append(f"     fix: {f['remediation']}")
    if report.get("healthy"):
        lines.append("")
        lines.append("verdict: healthy (info-level findings only)")
    return "\n".join(lines) + "\n"
