"""Measure a line-coverage baseline for ``src/repro`` without coverage.py.

Usage::

    PYTHONPATH=src python tools/coverage_baseline.py [pytest args...]

CI gates on ``pytest --cov=repro --cov-fail-under=N`` (see
``.github/workflows/ci.yml``), but pytest-cov is not part of the runtime
image this repository is developed in, and installing packages ad hoc is
off the table.  This script approximates coverage.py closely enough to
*pin* the gate: it runs the test suite in-process under a
``sys.settrace`` hook that records every executed line of ``src/repro``,
statically counts executable lines per module via the ``ast`` module
(statement line numbers — the same notion coverage.py starts from), and
prints the per-file and total percentages.

The numbers differ from coverage.py by a point or two (branch-less
lines, multi-line statements), so the CI pin is set a safety margin
*below* the figure printed here — the gate exists to catch regressions
of tens of points (a new untested subsystem), not single-point drift.

Default pytest args exclude ``-m determinism`` (those tests re-run the
same engine paths the unit tests already trace, and are slow under the
tracer) and both ``TestOverheadGate`` classes (ledger and diagnostics:
they time an instrumented cycle against a pinned untraced online step,
so the tracer's own cost fails them, and ``-x`` would then end the run
early); pass explicit args to override.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def executable_lines(path: Path) -> set[int]:
    """Line numbers coverage.py would consider executable statements."""
    tree = ast.parse(path.read_text())
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            lines.add(node.lineno)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    pytest_args = argv or [
        "-x", "-q", "-p", "no:cacheprovider", "-m", "not determinism",
        "--deselect", "tests/test_ledger.py::TestOverheadGate",
        "--deselect", "tests/test_diagnostics.py::TestOverheadGate",
    ]

    prefix = str(SRC)
    executed: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        if event == "call":
            hits.add(frame.f_lineno)
            return local
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        exit_code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total_exec = total_hit = 0
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        stmts = executable_lines(path)
        if not stmts:
            continue
        hits = executed.get(str(path), set()) & stmts
        total_exec += len(stmts)
        total_hit += len(hits)
        rows.append((path.relative_to(SRC.parent),
                     len(hits), len(stmts),
                     100.0 * len(hits) / len(stmts)))

    width = max(len(str(r[0])) for r in rows)
    for rel, hit, stmts, pct in rows:
        print(f"{str(rel):<{width}}  {hit:5d}/{stmts:<5d}  {pct:6.1f}%")
    pct_total = 100.0 * total_hit / max(total_exec, 1)
    print("-" * (width + 22))
    print(f"{'TOTAL':<{width}}  {total_hit:5d}/{total_exec:<5d}  "
          f"{pct_total:6.1f}%")
    print(f"\nsuggested CI pin (baseline minus safety margin): "
          f"--cov-fail-under={max(0, int(pct_total) - 5)}")
    return int(exit_code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
