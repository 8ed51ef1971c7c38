"""Read and render a run's artifacts for the inspection commands.

``repro telemetry summary|dump|watch|top|stitch`` and ``repro explain``
print the text built here (``repro doctor`` prints
:mod:`repro.telemetry.doctor`'s); ``repro.cli`` keeps their flags,
dispatch and exit codes.  A file or state that cannot be shown
raises :class:`ArtifactError`, whose message is the one stderr line.

JSONL files are read through :func:`repro.utils.jsonl.read_jsonl`; the
events summary's policy for skipped lines is a note for a torn final
line and an error for damage in mid-file.  ``import repro`` does not
load this module.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterable, Sequence

from ..utils.jsonl import read_jsonl
from .heartbeat import (
    heartbeat_status,
    pid_alive,
    read_heartbeat,
    render_heartbeat,
    scan_heartbeats,
)
from .ledger import LedgerView, load_ledger, merge_ledgers
from .manifest import RunManifest
from .stitch import stitch_traces, write_chrome
from .tracing import load_trace, render_span_tree

__all__ = [
    "ArtifactError", "classify_artifact", "render_artifact", "watch_line",
    "render_top", "stitch_report", "explain",
]


class ArtifactError(Exception):
    """An artifact that cannot be shown; the message is one stderr line."""


# -- telemetry summary | dump -------------------------------------------


def classify_artifact(text: str) -> str:
    """Sniff what kind of artifact a file holds from its content.

    JSONL span traces, cost ledgers, JSONL event logs (bus streams
    too), run manifests, Chrome trace exports, heartbeat documents and
    JSON metrics dumps are told apart by their first record; anything
    that is not JSON is Prometheus text (whose grammar is "anything
    line-oriented").
    """
    if not text.strip():
        return "empty"
    first_line = text.lstrip().split("\n", 1)[0]
    try:
        record = json.loads(first_line)
    except json.JSONDecodeError:
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            return "prometheus"
    if not isinstance(record, dict):
        return "prometheus"
    if "duration_s" in record and "id" in record:
        return "trace"
    if record.get("kind") == "ledger-header":
        return "ledger"
    if "kind" in record and "ts" in record:
        return "events"
    if "run_id" in record:
        return "manifest"
    if "traceEvents" in record:
        return "chrome-trace"
    if "step" in record:
        return "heartbeat"
    if all(
        isinstance(entry, dict) and isinstance(entry.get("series"), list)
        for entry in record.values()
    ):
        return "metrics-json"
    return "unknown-json"


def render_artifact(
    path: str, dump: bool = False, min_duration_s: float = 0.0
) -> tuple[str, list[str]]:
    """``telemetry summary`` of one artifact file, or with ``dump`` its
    normalized JSON: ``(text for stdout, notes for stderr)``.

    Raises :class:`ArtifactError` for files with nothing to show, and
    ``ValueError``/``KeyError``/``OSError`` for damaged ones.
    """
    text = Path(path).read_text(encoding="utf-8")
    kind = classify_artifact(text)
    if kind == "empty":
        raise ArtifactError(
            f"{path}: empty file (no telemetry was recorded, or the run "
            "died before its first write)"
        )
    if kind == "chrome-trace":
        trace = path.removesuffix(".chrome.json") + ".jsonl"
        source = (
            f"the JSONL trace beside it: {trace}"
            if path.endswith(".chrome.json") and os.path.isfile(trace)
            else "the JSONL trace it was exported from"
        )
        raise ArtifactError(
            f"{path}: a Chrome trace_event export; 'repro telemetry "
            f"summary' reads {source}"
        )
    if kind == "heartbeat":
        raise ArtifactError(
            f"{path}: a heartbeat document; read it with 'repro telemetry "
            f"watch {path}'"
        )
    if kind == "ledger" and not dump:
        raise ArtifactError(
            f"{path}: a tuning-cost ledger; read it with 'repro explain "
            f"{path}'"
        )
    if kind == "unknown-json":
        raise ArtifactError(f"{path}: JSON, but not a telemetry artifact")
    if kind == "trace":
        return _render_trace(text, dump, min_duration_s), []
    if kind in ("events", "ledger"):
        return _render_events(path, text, dump)
    if kind == "manifest":
        return _render_manifest(path, dump), []
    if kind == "metrics-json":
        return _render_metrics(json.loads(text), dump), []
    # Prometheus text: dump prints it verbatim, summary drops comments.
    if dump:
        return text, []
    return "".join(
        line + "\n"
        for line in text.splitlines()
        if line and not line.startswith("#")
    ), []


def _iter_tree(rec: dict):
    yield rec
    for child in rec.get("children", []):
        yield from _iter_tree(child)


def _render_trace(text: str, dump: bool, min_duration_s: float) -> str:
    roots = load_trace(text.splitlines())
    if dump:
        return json.dumps(roots, indent=2) + "\n"
    n_spans = sum(1 for r in roots for _ in _iter_tree(r))
    return (
        f"trace: {len(roots)} root span(s), {n_spans} total\n"
        + render_span_tree(roots, min_duration_s=min_duration_s) + "\n"
    )


def _render_events(
    path: str, text: str, dump: bool
) -> tuple[str, list[str]]:
    # A crashed run can leave its last event half-flushed: that final
    # line is dropped with a note.  A malformed line anywhere else means
    # the file is corrupt, which is worth failing loudly over.
    records, skipped = read_jsonl(text.splitlines())
    last_line = len(text.rstrip().splitlines())
    for number in skipped:
        if number != last_line:
            raise ValueError(
                f"{path}: line {number} is not valid JSON (corrupt "
                "events file)"
            )
    notes = (
        [f"{path}: final line is truncated (crashed run?); ignoring it"]
        if skipped else []
    )
    if dump:
        return json.dumps(records, indent=2) + "\n", notes
    counts: dict[str, int] = {}
    for rec in records:
        k = rec.get("kind", "?")
        counts[k] = counts.get(k, 0) + 1
    span_s = records[-1].get("ts", 0.0) - records[0].get("ts", 0.0)
    lines = [f"events: {len(records)} record(s) over {span_s:.1f}s"]
    lines += [f"  {k:<20} x{counts[k]}" for k in sorted(counts)]
    return "\n".join(lines) + "\n", notes


def _render_manifest(path: str, dump: bool) -> str:
    manifest = RunManifest.load(path)
    if dump:
        return manifest.to_json() + "\n"
    d = manifest.to_dict()
    lines = [f"run {d['run_id']} ({d['kind']})"]
    for key in ("workload", "dataset", "seed", "git_sha", "python"):
        lines.append(f"  {key:<12} {d[key]}")
    lines.append(f"  {'elapsed_s':<12} {d['elapsed_s']:.2f}")
    if d["wall_clock"]:
        lines.append("  wall-clock breakdown:")
        for name, entry in sorted(d["wall_clock"].items()):
            lines.append(
                f"    {name:<28} {entry['total_s']:9.3f}s "
                f"x{int(entry['count'])}"
            )
    lines += [f"  stage: {stage}" for stage in d["stages"]]
    return "\n".join(lines) + "\n"


def _render_metrics(data: dict, dump: bool) -> str:
    if dump:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    lines = []
    for name, entry in sorted(data.items()):
        for series in entry["series"]:
            labels = ",".join(
                f"{k}={v}" for k, v in series.get("labels", {}).items()
            )
            value = series.get("value", series.get("sum"))
            lines.append(f"{name}{{{labels}}} = {value}\n")
    return "".join(lines)


# -- telemetry watch | top ----------------------------------------------


def _heartbeat_state(
    path: str | Path, doc: dict, stale_after: float | None
) -> tuple[str, float]:
    """A heartbeat file's status and age.

    The age is the file's mtime age (the writer touches it on every
    step), not the wall-clock stamp inside the document; the writer
    pid's liveness tells a crash from a stall.
    """
    age = max(0.0, time.time() - os.path.getmtime(path))
    status = heartbeat_status(
        doc, age, stale_after, alive=pid_alive(doc.get("pid"))
    )
    return status, age


def watch_line(
    path: str, stale_after: float | None = None
) -> tuple[str, str]:
    """``(rendered line, status)`` for one heartbeat file; ``ValueError``
    when it is missing or not a heartbeat."""
    doc = read_heartbeat(path)
    status, age = _heartbeat_state(path, doc, stale_after)
    line = render_heartbeat(doc)
    if status == "stalled":
        line += f"  STALLED (no heartbeat for {age:.0f}s)"
    elif status == "crashed":
        line += (
            f"  CRASHED (pid {doc.get('pid')} is gone, "
            "no terminal marker)"
        )
    return line, status


def _fleet(paths: Iterable[str]) -> list[tuple[str, Path, dict | None]]:
    """``(display name, heartbeat path, document)`` for each session.

    Directories are scanned recursively, and name a session by the
    subdirectory it sits in; a file is taken as given and read later.
    """
    found: list[tuple[str, Path, dict | None]] = []
    for raw in paths:
        p = Path(raw)
        if not p.is_dir():
            found.append((p.stem, p, None))
            continue
        for path, doc in scan_heartbeats(p, recursive=True):
            rel = path.relative_to(p)
            name = str(rel.parent) if rel.parent != Path(".") else path.stem
            found.append((name, path, doc))
    return found


def render_top(
    paths: Iterable[str], stale_after: float | None = None
) -> tuple[str, int]:
    """The fleet dashboard: ``(text, stalled + crashed sessions)``."""
    entries = _fleet(paths)
    lines = [
        f"{'SESSION':<18} {'STATE':<8} {'PHASE':<14} {'STEP':<9} "
        f"{'BEST':>8} {'RTY':>4} {'ABT':>4} {'FBK':>4} {'ALRT':>5} "
        f"{'AGE':>6}  LAST ALERT"
    ]
    stalled = 0
    crashed = 0
    for name, path, doc in entries:
        if doc is None:
            try:
                doc = read_heartbeat(path)
            except ValueError:
                lines.append(f"{name:<18} {'?':<8} (unreadable heartbeat)")
                continue
        status, age = _heartbeat_state(path, doc, stale_after)
        if status == "stalled":
            stalled += 1
        elif status == "crashed":
            crashed += 1
        total = doc.get("total_steps")
        step = f"{doc.get('step', '?')}/{total}" if total else (
            str(doc.get("step", "?"))
        )
        best = doc.get("best_duration_s")
        resilience = doc.get("resilience") or {}
        alerts = doc.get("alerts") or {}
        active = alerts.get("active") or []
        last_alert = ""
        if active:
            last = active[-1]
            last_alert = f"{last.get('severity', '?')}:{last.get('name', '?')}"
        lines.append(
            f"{name:<18.18} {status.upper():<8} "
            f"{doc.get('phase', '?'):<14} {step:<9} "
            f"{(f'{best:.1f}s' if best is not None else '-'):>8} "
            f"{resilience.get('retries', 0):>4} "
            f"{resilience.get('watchdog_aborts', 0):>4} "
            f"{resilience.get('fallbacks', 0):>4} "
            f"{alerts.get('total', 0):>5} "
            f"{age:>5.0f}s  {last_alert}"
        )
    if not entries:
        lines.append("(no heartbeat files found)")
    lines.append(
        f"{len(entries)} session(s), {stalled} stalled, {crashed} crashed"
    )
    return "\n".join(lines), stalled + crashed


# -- telemetry stitch ---------------------------------------------------


def stitch_report(paths: Sequence[str], out: str | None = None) -> str:
    """Stitch a bus directory's (or the given files') traces into one
    Chrome trace file, write it, and describe it."""
    result = stitch_traces(paths[0] if len(paths) == 1 else paths)
    if not result.files:
        raise ArtifactError("stitch: no trace files found")
    if result.spans == 0:
        raise ArtifactError(
            "stitch: trace files contained no spans "
            f"({len(result.files)} file(s) scanned)"
        )
    if not out:
        out = (
            os.path.join(paths[0], "stitched.chrome.json")
            if len(paths) == 1 and os.path.isdir(paths[0])
            else "stitched.chrome.json"
        )
    write_chrome(result, out)
    lines = [
        f"stitch: {result.spans} span(s) from {len(result.files)} "
        f"file(s), trace {result.trace_id or '(none)'}"
    ]
    if result.unresolved_parents:
        lines.append(
            f"stitch: {result.unresolved_parents} root(s) reference a "
            "parent span not present in the inputs"
        )
    chain = result.critical_path_names()
    if chain:
        total = sum(
            float(r.get("duration_s", 0.0)) for r in result.critical_path
        )
        lines.append(f"critical path ({total:.3f}s): " + " > ".join(chain))
    lines.append(f"stitch: wrote {out}")
    return "\n".join(lines) + "\n"


# -- explain ------------------------------------------------------------


def explain(
    paths: Sequence[str], compare: bool = False, top: int = 5,
    knobs: int = 8,
) -> str:
    """The cost breakdown of a ledger, or of several merged, or with
    ``compare`` the account-by-account diff of two.

    A path is a ledger file, or a run/bus directory whose
    ``ledgers/*.jsonl`` (else ``*.ledger.jsonl``) files are merged.
    """
    views = []
    for path in paths:
        p = Path(path)
        if not p.is_dir():
            views.append(load_ledger(p))
            continue
        candidates = sorted((p / "ledgers").glob("*.jsonl")) or sorted(
            p.glob("*.ledger.jsonl")
        )
        if not candidates:
            raise FileNotFoundError(
                f"{path}: no ledger files (looked for ledgers/*.jsonl "
                "and *.ledger.jsonl)"
            )
        views.append(merge_ledgers(candidates))
    if compare:
        return _explain_compare(*views)
    if len(views) == 1:
        return _explain_one(views[0], top, knobs)
    merged = LedgerView(
        [e for v in views for e in v.entries], source="merged"
    )
    return _explain_one(merged, top, knobs)


def _ledger_entry_line(e: dict) -> str:
    where = f"step {e['step']}" if "step" in e else str(e.get("phase", "?"))
    if "member" in e:
        where += f" m{e['member']}"
    extras = [
        f"{key}={e[key]}"
        for key in ("tuner", "attempt", "cache", "source")
        if key in e and e[key] not in (None, "run")
    ]
    suffix = f"  ({', '.join(extras)})" if extras else ""
    return (
        f"{float(e['amount_s']):12.3f}s  {e['account']:<15} "
        f"{where:<14}{suffix}"
    )


def _knob_attribution(charges: list[dict], top: int) -> list[str]:
    """Rank knobs by cost spread across the values actually evaluated.

    For every knob seen in charge ``config`` metadata, group the charged
    seconds by the knob's value and report mean cost per value; knobs are
    ranked by the spread (max mean - min mean), which is a first-order
    'which knob choice cost me the most' signal.
    """
    by_knob: dict[str, dict[str, list[float]]] = {}
    for e in charges:
        config = e.get("config")
        if not isinstance(config, dict):
            continue
        amount = float(e["amount_s"])
        for knob, value in config.items():
            by_knob.setdefault(str(knob), {}).setdefault(
                str(value), []
            ).append(amount)
    ranked = []
    for knob, groups in by_knob.items():
        if len(groups) < 2:
            continue
        means = {v: sum(a) / len(a) for v, a in groups.items()}
        lo, hi = min(means, key=means.get), max(means, key=means.get)
        ranked.append((means[hi] - means[lo], knob, lo, hi, means, groups))
    ranked.sort(key=lambda r: (-r[0], r[1]))
    lines = []
    for spread, knob, lo, hi, means, groups in ranked[:top]:
        n = sum(len(a) for a in groups.values())
        lines.append(
            f"  {knob:<28} spread {spread:9.3f}s  "
            f"cheapest {lo}={means[lo]:.3f}s  "
            f"dearest {hi}={means[hi]:.3f}s  ({n} eval(s))"
        )
    return lines


def _explain_one(led: LedgerView, top: int, knobs: int) -> str:
    src = led.path if led.path is not None else led.source
    charges = led.charges()
    if not charges and not led.counterfactuals():
        raise ArtifactError(f"{src}: ledger has no entries")
    total = led.total_charged()
    lines = [
        f"ledger: {src}",
        f"  {len(charges)} charge(s) totalling {total:.3f}s",
        "\ncharges by account:",
    ]
    totals = led.totals()
    for account in sorted(totals, key=lambda a: -totals[a]["seconds"]):
        t = totals[account]
        share = 100.0 * t["seconds"] / total if total else 0.0
        lines.append(
            f"  {account:<15} {t['seconds']:12.3f}s  x{t['count']:<5} "
            f"{share:5.1f}%"
        )
    online = led.total_tuning_seconds()
    if online:
        lines.append(f"\nonline tuning cost (exact session TCT): {online!r}s")
    cf = led.counterfactual_totals()
    if cf:
        lines.append("\ncounterfactual savings (estimated cost avoided):")
        for account in sorted(cf, key=lambda a: -cf[a]["seconds"]):
            t = cf[account]
            lines.append(
                f"  {account:<15} {t['seconds']:12.3f}s  x{t['count']}"
            )
    saved = led.saved_by_screening
    if total + saved > 0:
        ratio = saved / (total + saved)
        lines.append(
            f"\nsaved_by_screening: {saved:.3f}s "
            f"({100.0 * ratio:.1f}% of would-have-been cost)"
        )
    if top > 0 and charges:
        expensive = sorted(
            charges, key=lambda e: -float(e["amount_s"])
        )[:top]
        lines.append(f"\ntop {len(expensive)} most expensive step(s):")
        lines += ["  " + _ledger_entry_line(e) for e in expensive]
    if knobs > 0:
        attribution = _knob_attribution(charges, knobs)
        if attribution:
            lines.append("\nper-knob cost attribution (evaluated configs):")
            lines += attribution
    return "\n".join(lines) + "\n"


def _explain_compare(a: LedgerView, b: LedgerView) -> str:
    name_a = str(a.path if a.path is not None else a.source)
    name_b = str(b.path if b.path is not None else b.source)
    ta, tb = a.totals(), b.totals()
    lines = [
        f"ledger diff: A={name_a}  B={name_b}",
        f"\n{'account':<15} {'A':>12} {'B':>12} {'delta (B-A)':>14}",
    ]
    for account in sorted(set(ta) | set(tb)):
        sa = ta.get(account, {}).get("seconds", 0.0)
        sb = tb.get(account, {}).get("seconds", 0.0)
        lines.append(
            f"{account:<15} {sa:11.3f}s {sb:11.3f}s {sb - sa:+13.3f}s"
        )
    sa, sb = a.total_charged(), b.total_charged()
    lines.append(f"{'total':<15} {sa:11.3f}s {sb:11.3f}s {sb - sa:+13.3f}s")
    va, vb = a.saved_by_screening, b.saved_by_screening
    lines.append(
        f"\nsaved_by_screening: A {va:.3f}s, B {vb:.3f}s "
        f"(delta {vb - va:+.3f}s)"
    )
    ca, cb = a.cache_savings, b.cache_savings
    if ca or cb:
        lines.append(
            f"cache_saving:       A {ca:.3f}s, B {cb:.3f}s "
            f"(delta {cb - ca:+.3f}s)"
        )
    return "\n".join(lines) + "\n"
