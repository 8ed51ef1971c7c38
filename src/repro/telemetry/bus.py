"""Cross-process event bus: per-worker JSONL streams + merged timeline.

``--jobs N`` engine runs execute sessions in separate processes; each
worker's events (steps, heartbeat summaries, diagnostics alerts,
metrics-registry snapshots) would otherwise vanish with the process.
The bus gives every worker its *own* append-only JSONL file under a
shared directory — no cross-process locking, no interleaved torn lines
— and :func:`merge_timeline` folds them into one ordered
``timeline.jsonl`` per run once the fleet drains.

Record envelope (written by :class:`BusWriter` around the usual event
fields)::

    {"kind": ..., "ts": <unix time>, "source": "task-0003", "seq": 17, ...}

``(ts, source, seq)`` is the merge sort key: global wall-clock order
first, with the per-source monotone ``seq`` breaking ties so each
source's records never reorder relative to themselves.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from ..utils.jsonl import JsonlWriter, read_jsonl
from ..utils.logging import TuningLogger

__all__ = ["BusWriter", "merge_timeline", "TIMELINE_NAME"]

#: filename of the merged per-run timeline inside a bus directory
TIMELINE_NAME = "timeline.jsonl"


class BusWriter(JsonlWriter, TuningLogger):
    """A :class:`TuningLogger` that appends enveloped events to this
    source's stream file (``<root>/<source>.jsonl``), opened with the
    first event.

    One writer per process/source; records carry a monotone ``seq`` so
    the merged timeline can prove losslessness (``seq`` values per
    source form a gap-free range).

    ``trace_id`` is the run's propagatable trace context: when set, every
    envelope carries it, so a merged timeline from a ``--jobs N`` grid can
    be correlated with the stitched span trace of the same run.
    """

    def __init__(
        self, root: str | Path, source: str, trace_id: str | None = None
    ):
        self.root = Path(root)
        self.source = str(source)
        self.trace_id = trace_id
        super().__init__(self.root / f"{self.source}.jsonl")
        self._seq = 0

    def event(self, kind: str, **fields: Any) -> None:
        record = {
            "kind": kind,
            "ts": time.time(),
            "source": self.source,
            "seq": self._seq,
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        self._seq += 1
        for key, value in fields.items():
            if key not in record:
                record[key] = value
        self.write(record)


def merge_timeline(
    root: str | Path, out: str | Path | None = None
) -> Path:
    """Merge every ``*.jsonl`` source stream under ``root`` into one
    ordered timeline file and return its path.

    Ordering is ``(ts, source, seq)``: wall-clock first, then source
    name, then the per-source sequence number — deterministic, and
    per-source order is always preserved.  Records that tie on all three
    (e.g. two writers that shared a source name) keep their read order —
    the sort key is made total by appending the read index, so the output
    never depends on ``list.sort`` internals.  Re-running overwrites the
    previous timeline (it is derived data).
    """
    root = Path(root)
    out_path = Path(out) if out is not None else root / TIMELINE_NAME
    records: list[dict[str, Any]] = []
    for path in sorted(root.glob("*.jsonl")):
        if path != out_path:
            records.extend(read_jsonl(path)[0])
    order = sorted(
        range(len(records)),
        key=lambda i: (
            float(records[i].get("ts", 0.0)),
            str(records[i].get("source", "")),
            int(records[i].get("seq", 0)),
            i,
        ),
    )
    records = [records[i] for i in order]
    tmp = out_path.with_name(out_path.name + ".tmp")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with tmp.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=str) + "\n")
    tmp.replace(out_path)
    return out_path
