"""JSON-lines files: the one append writer and the one lenient reader.

Every JSONL stream a run writes — logger events, event-bus streams, the
tuning-cost ledger — is appended through :class:`JsonlWriter`, and read
back through :func:`read_jsonl`.  The writers keep only their records'
envelopes; the readers keep only their policy for skipped lines.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["JsonlWriter", "read_jsonl"]


class JsonlWriter:
    """Appends one JSON object per line to a file.

    The file opens on :meth:`open` or with the first record: the parent
    directory is created, ``truncate`` empties an existing file, and
    ``header`` (called then) supplies a first line.  Values JSON cannot
    encode are written as their ``str()``.  Every record is flushed to
    the OS at once, so a crashed run loses at most the line being
    written; :meth:`deferred` batches those flushes into one at block
    exit without changing the file's content or order.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        truncate: bool = False,
        header: Callable[[], dict[str, Any]] | None = None,
        sort_keys: bool = False,
    ):
        self.path = Path(path)
        self._mode = "w" if truncate else "a"
        self._header = header
        self._encode = json.JSONEncoder(
            sort_keys=sort_keys, default=str
        ).encode
        self._fh = None
        self._defer = 0

    def open(self) -> None:
        if self._fh is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open(self._mode, encoding="utf-8")
        if self._header is not None:
            self._fh.write(self._encode(self._header()) + "\n")
        # Truncation and the header belong to the file's first opening;
        # reopening after close() appends.
        self._mode, self._header = "a", None

    def write(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            self.open()
        self._fh.write(self._encode(record) + "\n")
        if not self._defer:
            self._fh.flush()

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @contextmanager
    def deferred(self):
        self._defer += 1
        try:
            yield self
        finally:
            self._defer -= 1
            if not self._defer:
                self.flush()


def read_jsonl(
    path_or_lines: str | Path | Iterable[str],
) -> tuple[list[dict[str, Any]], list[int]]:
    """Read a JSONL file (or its lines): ``(records, skipped)``.

    ``records`` are the JSON objects in file order.  Blank lines are
    ignored; a line that does not parse, or parses to something other
    than an object, is skipped and its 1-based number listed in
    ``skipped``.  A writer killed mid-append leaves a torn final line,
    and each caller decides what a skipped line means.  A missing file
    reads as empty.
    """
    if isinstance(path_or_lines, (str, Path)):
        path = Path(path_or_lines)
        if not path.is_file():
            return [], []
        with path.open("r", encoding="utf-8") as fh:
            return read_jsonl(fh)
    records: list[dict[str, Any]] = []
    skipped: list[int] = []
    for number, line in enumerate(path_or_lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped.append(number)
    return records, skipped
