"""Structured progress logging for training and tuning runs.

A minimal observer interface: the trainer and tuner emit events; sinks
render them (console) or persist them (JSON lines).  The default
``NullLogger`` makes instrumentation free when unused.  For correlated
metrics/traces/provenance, wrap a logger in a
:class:`~repro.telemetry.context.RunContext`.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, IO, Iterable

from repro.utils.jsonl import JsonlWriter

__all__ = [
    "TuningLogger",
    "NullLogger",
    "ConsoleLogger",
    "JsonlLogger",
    "TeeLogger",
    "HIGH_FREQUENCY_KINDS",
]

#: event kinds emitted once per inner-loop iteration — the ones a console
#: sink must throttle to stay readable (``sim-stage`` fires per simulated
#: Spark stage, several times per evaluation)
HIGH_FREQUENCY_KINDS: frozenset[str] = frozenset(
    {"offline-step", "sim-stage"}
)


class TuningLogger:
    """Observer interface; subclass and override what you need."""

    def event(self, kind: str, **fields: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered events to the sink (no-op by default)."""

    def close(self) -> None:
        """Release any resources (no-op by default)."""

    @contextmanager
    def deferred(self):
        """Suspend per-event durability flushes inside the block.

        Batch producers (the population's lockstep round) emit N events
        back to back; deferring turns N flush syscalls into one at block
        exit.  File *content and order* are unchanged — only the flush
        cadence is batched — so deferred and non-deferred runs leave
        byte-identical logs.  The base implementation is a no-op.
        """
        yield self


class NullLogger(TuningLogger):
    """Discards everything (the default)."""

    def event(self, kind: str, **fields: Any) -> None:
        pass


class ConsoleLogger(TuningLogger):
    """Human-readable progress lines.

    ``every`` throttles high-frequency events so a 3000-iteration run
    prints tens, not thousands, of lines.  ``throttled_kinds`` selects
    which kinds are throttled (default: ``offline-step`` and
    ``sim-stage``); every other kind always prints.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        every: int = 100,
        throttled_kinds: Iterable[str] | None = None,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self._stream = stream if stream is not None else sys.stderr
        self._every = every
        self._throttled = (
            HIGH_FREQUENCY_KINDS
            if throttled_kinds is None
            else frozenset(throttled_kinds)
        )
        self._counts: dict[str, int] = {}

    def event(self, kind: str, **fields: Any) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if kind in self._throttled and self._counts[kind] % self._every:
            return
        body = " ".join(
            f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in fields.items()
        )
        print(f"[{kind}] {body}", file=self._stream)

    def flush(self) -> None:
        self._stream.flush()


class JsonlLogger(JsonlWriter, TuningLogger):
    """Appends one JSON object per event to a file.

    The file opens (for append) at construction.  Every event is flushed
    to the OS immediately so a crashed run still leaves a complete event
    log on disk (losing at most the event being written at the instant
    of the crash).
    """

    def __init__(self, path: str | Path):
        super().__init__(path)
        self.open()

    def event(self, kind: str, **fields: Any) -> None:
        self.write({"kind": kind, "ts": time.time(), **fields})

    def __enter__(self) -> "JsonlLogger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TeeLogger(TuningLogger):
    """Fans every event out to several sinks (e.g. JSONL + heartbeat).

    The trainer/tuner APIs take exactly one logger; this is how the CLI
    combines ``--events`` with ``--heartbeat`` without widening them.
    """

    def __init__(self, *loggers: TuningLogger):
        self._loggers = [lg for lg in loggers if lg is not None]

    def event(self, kind: str, **fields: Any) -> None:
        for lg in self._loggers:
            lg.event(kind, **fields)

    def flush(self) -> None:
        for lg in self._loggers:
            lg.flush()

    def close(self) -> None:
        for lg in self._loggers:
            lg.close()

    @contextmanager
    def deferred(self):
        from contextlib import ExitStack

        with ExitStack() as stack:
            for lg in self._loggers:
                stack.enter_context(lg.deferred())
            yield self
