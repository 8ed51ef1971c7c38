"""What the artifact-reading commands print, pinned byte for byte.

``telemetry summary|dump|watch|top|stitch``, ``doctor`` and ``explain``
run on the artifacts of one fixed-seed run, committed under
``tests/data/cli_artifacts/``: a ``tune`` session's events, heartbeat,
manifest, trace, metrics (``.json`` and ``.prom``) and ledger, plus the
bus directory of a two-task ``ExperimentEngine(jobs=2, bus_dir=...)``
grid with its timeline, traces and ledgers.  Each command's stdout,
stderr and exit status must equal ``expected.json``.  Wall-clock inputs
are pinned: ``time.time`` is frozen and heartbeat mtimes are set with
``os.utime``.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_cli_artifact_output.py artifacts
    PYTHONPATH=src python tests/test_cli_artifact_output.py record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data" / "cli_artifacts"
EXPECTED_PATH = DATA / "expected.json"

#: a pid above any kernel's pid_max: never alive
DEAD_PID = 2**22 + 1

#: heartbeat variants: (pid, seconds since the last write)
HEARTBEATS = {
    "running": (None, 2.0),
    "stalled": (None, 500.0),
    "crashed": (DEAD_PID, 3.0),
}

CASES: dict[str, list[str]] = {
    "summary-events": ["telemetry", "summary", "run/events.jsonl"],
    "dump-events": ["telemetry", "dump", "run/events.jsonl"],
    "summary-trace": ["telemetry", "summary", "run/run.jsonl"],
    "summary-trace-min-ms": [
        "telemetry", "summary", "run/run.jsonl", "--min-ms", "2",
    ],
    "dump-trace": ["telemetry", "dump", "run/run.jsonl"],
    "summary-manifest": ["telemetry", "summary", "run/manifest.json"],
    "dump-manifest": ["telemetry", "dump", "run/manifest.json"],
    "summary-metrics-json": ["telemetry", "summary", "run/metrics.json"],
    "dump-metrics-json": ["telemetry", "dump", "run/metrics.json"],
    "summary-metrics-prom": ["telemetry", "summary", "run/metrics.prom"],
    "dump-metrics-prom": ["telemetry", "dump", "run/metrics.prom"],
    "summary-ledger": ["telemetry", "summary", "run/run.ledger.jsonl"],
    "dump-ledger": ["telemetry", "dump", "run/run.ledger.jsonl"],
    "summary-timeline": ["telemetry", "summary", "bus/timeline.jsonl"],
    "summary-bus-stream": ["telemetry", "summary", "bus/task-0000.jsonl"],
    "summary-worker-trace": [
        "telemetry", "summary", "bus/traces/r0-task-0000.trace.jsonl",
    ],
    "summary-truncated-tail": ["telemetry", "summary", "torn.jsonl"],
    "dump-truncated-tail": ["telemetry", "dump", "torn.jsonl"],
    "summary-corrupt-line": ["telemetry", "summary", "corrupt.jsonl"],
    "summary-torn-only": ["telemetry", "summary", "torn-only.jsonl"],
    "summary-empty": ["telemetry", "summary", "empty.jsonl"],
    "summary-missing": ["telemetry", "summary", "absent.jsonl"],
    "summary-two-paths": [
        "telemetry", "summary", "run/events.jsonl", "run/run.jsonl",
    ],
    "watch-done": ["telemetry", "watch", "run/hb.json"],
    "watch-running": [
        "telemetry", "watch", "hbs/running/hb.json", "--fail-on-stall",
    ],
    "watch-stalled": [
        "telemetry", "watch", "hbs/stalled/hb.json", "--fail-on-stall",
    ],
    "watch-stalled-horizon": [
        "telemetry", "watch", "hbs/stalled/hb.json", "--stale-after", "900",
    ],
    "watch-crashed": [
        "telemetry", "watch", "hbs/crashed/hb.json", "--fail-on-stall",
    ],
    "watch-missing": ["telemetry", "watch", "absent.json"],
    "watch-not-heartbeat": ["telemetry", "watch", "run/manifest.json"],
    "top-run": ["telemetry", "top", "run", "--once"],
    "top-fleet": ["telemetry", "top", "hbs", "--once"],
    "top-fleet-gate": [
        "telemetry", "top", "hbs", "run", "--once", "--fail-on-stall",
    ],
    "top-files": [
        "telemetry", "top", "hbs/crashed/hb.json", "run/manifest.json",
        "--once",
    ],
    "top-no-heartbeats": ["telemetry", "top", "bus", "--once"],
    "stitch-bus": ["telemetry", "stitch", "bus"],
    "stitch-files": [
        "telemetry", "stitch", "bus/traces/engine.trace.jsonl",
        "bus/traces/r0-task-0001.trace.jsonl", "--out", "merged.chrome.json",
    ],
    "stitch-orphan": [
        "telemetry", "stitch", "bus/traces/r0-task-0000.trace.jsonl",
    ],
    "stitch-empty": ["telemetry", "stitch", "empty-dir"],
    "doctor-run": ["doctor", "run"],
    "doctor-run-json": ["doctor", "run", "--json"],
    "doctor-run-top": ["doctor", "run", "--top", "1", "--fail-on-findings"],
    "doctor-bus": ["doctor", "bus"],
    "doctor-bus-json": ["doctor", "bus", "--json"],
    "doctor-events-file": ["doctor", "run/events.jsonl"],
    "doctor-missing": ["doctor", "absent"],
    "explain-one": ["explain", "run/run.ledger.jsonl"],
    "explain-one-narrow": [
        "explain", "run/run.ledger.jsonl", "--top", "2", "--knobs", "0",
    ],
    "explain-bus": ["explain", "bus"],
    "explain-run-dir": ["explain", "run"],
    "explain-merged": [
        "explain", "run/run.ledger.jsonl",
        "bus/ledgers/r0-task-0000.ledger.jsonl",
    ],
    "explain-compare": [
        "explain", "--compare", "run/run.ledger.jsonl",
        "bus/ledgers/r0-task-0001.ledger.jsonl",
    ],
    "explain-compare-one": ["explain", "--compare", "run/run.ledger.jsonl"],
    "explain-no-ledgers": ["explain", "hbs"],
    "explain-missing": ["explain", "absent.jsonl"],
}


def prepare(workdir: Path) -> float:
    """Copy the artifacts into ``workdir``, derive the damaged and
    heartbeat inputs, and return the frozen wall-clock time."""
    for sub in ("run", "bus"):
        shutil.copytree(DATA / sub, workdir / sub)
    lines = (workdir / "run/events.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    (workdir / "torn.jsonl").write_text(
        "".join(lines[:5]) + lines[5][: len(lines[5]) // 2],
        encoding="utf-8")
    (workdir / "corrupt.jsonl").write_text(
        "".join(lines[:3]) + '{"kind": "online-st\n' + "".join(lines[3:6]),
        encoding="utf-8")
    (workdir / "torn-only.jsonl").write_text(
        lines[0][:20], encoding="utf-8")
    (workdir / "empty.jsonl").write_text("", encoding="utf-8")
    (workdir / "empty-dir").mkdir()

    done = workdir / "run/hb.json"
    doc = json.loads(done.read_text(encoding="utf-8"))
    now = float(doc["updated_at"]) + 30.0
    os.utime(done, (now - 12.0, now - 12.0))
    del doc["finished"]
    for name, (pid, age) in HEARTBEATS.items():
        path = workdir / "hbs" / name / "hb.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(dict(doc, pid=pid, step=2)) + "\n",
                        encoding="utf-8")
        os.utime(path, (now - age, now - age))
    return now


def run_cli(argv: list[str]) -> dict:
    """Run one command in-process: its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    now = prepare(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(time, "time", lambda: now)
    return tmp_path


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_unchanged(name, workdir, expected):
    assert run_cli(CASES[name]) == expected[name]


def test_every_case_is_recorded(expected):
    assert sorted(expected) == sorted(CASES)


class TestInputsWithoutASummary:
    """Files that ``telemetry summary`` cannot render get one stderr
    line and exit 1, never a traceback."""

    def test_chrome_trace_points_at_its_jsonl_trace(self, workdir):
        for action in ("summary", "dump"):
            assert run_cli(["telemetry", action, "run/run.chrome.json"]) == {
                "rc": 1,
                "stdout": "",
                "stderr": (
                    "run/run.chrome.json: a Chrome trace_event export; "
                    "'repro telemetry summary' reads the JSONL trace "
                    "beside it: run/run.jsonl\n"
                ),
            }

    def test_heartbeat_points_at_watch(self, workdir):
        for action in ("summary", "dump"):
            assert run_cli(["telemetry", action, "run/hb.json"]) == {
                "rc": 1,
                "stdout": "",
                "stderr": (
                    "run/hb.json: a heartbeat document; read it with "
                    "'repro telemetry watch run/hb.json'\n"
                ),
            }

    def test_other_json_is_not_an_artifact(self, workdir):
        Path("other.json").write_text('{"a": 1}\n', encoding="utf-8")
        assert run_cli(["telemetry", "summary", "other.json"]) == {
            "rc": 1,
            "stdout": "",
            "stderr": "other.json: JSON, but not a telemetry artifact\n",
        }

    def test_non_object_line_is_a_malformed_line(self, workdir, expected):
        lines = Path("run/events.jsonl").read_text(
            encoding="utf-8").splitlines(keepends=True)
        Path("tail.jsonl").write_text(
            "".join(lines[:5]) + "[1, 2]\n", encoding="utf-8")
        Path("mid.jsonl").write_text(
            "".join(lines[:3]) + "[1, 2]\n" + "".join(lines[3:6]),
            encoding="utf-8")
        tail = run_cli(["telemetry", "summary", "tail.jsonl"])
        assert tail == dict(
            expected["summary-truncated-tail"],
            stderr="tail.jsonl: final line is truncated (crashed run?); "
                   "ignoring it\n",
        )
        assert run_cli(["telemetry", "summary", "mid.jsonl"]) == {
            "rc": 1,
            "stdout": "",
            "stderr": "mid.jsonl: cannot read artifact: mid.jsonl: line 4 "
                      "is not valid JSON (corrupt events file)\n",
        }


# -- regeneration ---------------------------------------------------------


def build_artifacts(root: Path) -> None:
    """One fixed-seed tune session and a two-task bus grid, under root."""
    from repro import DeepCAT, make_env
    from repro.core.resilience import ResiliencePolicy
    from repro.experiments.common import ExperimentScale
    from repro.experiments.engine import ExperimentEngine, session_task
    from repro.telemetry import (
        CostLedger,
        DiagnosticsEngine,
        HeartbeatWriter,
        RunContext,
        Tracer,
        finalize_heartbeat,
    )
    from repro.utils.logging import JsonlLogger, TeeLogger

    run = root / "run"
    run.mkdir(parents=True)
    env = make_env("TS", "D1", seed=3)
    tuner = DeepCAT.from_env(env, seed=3)
    tuner.train_offline(env, 40)
    ctx = RunContext.recording(
        trace=run / "run.jsonl",
        metrics=run / "metrics.prom",
        manifest=run / "manifest.json",
        logger=TeeLogger(
            JsonlLogger(run / "events.jsonl"),
            HeartbeatWriter(run / "hb.json", total_steps=4),
        ),
        seed=3,
        kind="online-tune",
        diagnostics=DiagnosticsEngine(),
        ledger=CostLedger(run / "run.ledger.jsonl"),
    )
    tuner.tune_online(
        make_env("TS", "D1", seed=1003, fault_profile="flaky"), steps=4,
        telemetry=ctx, resilience=ResiliencePolicy.default(seed=3),
    )
    ctx.close()
    (run / "metrics.json").write_text(
        ctx.metrics.to_json_text() + "\n", encoding="utf-8")
    finalize_heartbeat(run / "hb.json", "completed")

    scale = ExperimentScale(name="fixture", offline_iterations=30,
                            ottertune_samples=1, seeds=(5,), online_steps=3)
    grid = RunContext(tracer=Tracer(trace_id="fixture-grid"))
    with ExperimentEngine(jobs=2, telemetry=grid,
                          bus_dir=root / "bus") as engine:
        engine.run([
            session_task(workload=w, dataset="D1", tuner="DeepCAT", seed=5,
                         scale=scale, fault_profile="flaky", resilience=True)
            for w in ("WC", "TS")
        ])


def record() -> dict:
    import tempfile
    from unittest import mock

    out: dict = {}
    cwd = os.getcwd()
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            now = prepare(Path(tmp))
            os.chdir(tmp)
            try:
                with mock.patch("time.time", lambda: now):
                    out[name] = run_cli(CASES[name])
            finally:
                os.chdir(cwd)
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["artifacts"]:
        for sub in ("run", "bus"):
            shutil.rmtree(DATA / sub, ignore_errors=True)
        build_artifacts(DATA)
    elif sys.argv[1:] == ["record"]:
        EXPECTED_PATH.write_text(
            json.dumps(record(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    else:
        raise SystemExit(__doc__)
