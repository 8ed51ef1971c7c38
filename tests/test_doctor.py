"""Post-mortem doctor: ranking, rendering, CLI exit codes."""

import json
from pathlib import Path

from repro.cli import main
from repro.telemetry import doctor
from repro.telemetry.doctor import (
    REMEDIATIONS,
    diagnose_run,
    render_diagnosis,
)
from repro.utils.jsonl import read_jsonl

#: a tune run's artifacts: events, span trace, ledger, heartbeat, ...
CLI_RUN = Path(__file__).parent / "data" / "cli_artifacts" / "run"


def _write_events(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )


def _alert(name, severity, step, message="", **data):
    return {
        "kind": "alert", "ts": float(step), "name": name,
        "severity": severity, "step": step, "message": message,
        "data": data,
    }


def _planted_run(tmp_path):
    """A run whose root cause is critic divergence: 3 critical
    critic-divergence alerts against 1 warning reward-plateau."""
    run = tmp_path / "run"
    run.mkdir()
    records = [
        {"kind": "online-step", "ts": float(i), "step": i,
         "reward": 0.1, "success": True}
        for i in range(6)
    ]
    records += [
        _alert("reward-plateau", "warning", 2, "no improvement"),
        _alert("critic-divergence", "critical", 3, "loss 12x floor",
               loss=12.0, floor=1.0),
        _alert("critic-divergence", "critical", 4, "loss 20x floor",
               loss=20.0, floor=1.0),
        _alert("critic-divergence", "critical", 5, "loss 31x floor",
               loss=31.0, floor=1.0),
    ]
    _write_events(run / "events.jsonl", records)
    return run


class TestDiagnoseRun:
    def test_planted_root_cause_ranked_first(self, tmp_path):
        report = diagnose_run(_planted_run(tmp_path))
        assert not report["healthy"]
        names = [f["name"] for f in report["findings"]]
        assert names[0] == "critic-divergence"
        first = report["findings"][0]
        assert first["severity"] == "critical"
        assert first["count"] == 3
        assert first["last_step"] == 5
        assert first["inferred"] is False
        assert first["remediation"] == REMEDIATIONS["critic-divergence"]
        assert first["data"] == {"loss": 31.0, "floor": 1.0}

    def test_every_cause_has_a_remediation_hint(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        _write_events(
            run / "events.jsonl",
            [_alert(name, "warning", 1) for name in REMEDIATIONS],
        )
        report = diagnose_run(run)
        assert len(report["findings"]) == len(REMEDIATIONS)
        for finding in report["findings"]:
            assert finding["remediation"] == REMEDIATIONS[finding["name"]]

    def test_healthy_run(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        _write_events(
            run / "events.jsonl",
            [{"kind": "online-step", "ts": float(i), "step": i,
              "reward": 0.1 * i, "success": True} for i in range(4)],
        )
        report = diagnose_run(run)
        assert report["healthy"]
        assert report["findings"] == []
        assert report["run"]["steps"] == 4

    def test_inferred_from_replay_without_live_alerts(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        # 40 plateaued steps, no alert events: replay must infer plateau.
        _write_events(
            run / "events.jsonl",
            [{"kind": "online-step", "ts": float(i), "step": i,
              "reward": 0.5, "success": True} for i in range(40)],
        )
        report = diagnose_run(run)
        names = {f["name"] for f in report["findings"]}
        assert "reward-plateau" in names
        assert all(f["inferred"] for f in report["findings"])

    def test_accepts_events_file_directly(self, tmp_path):
        run = _planted_run(tmp_path)
        report = diagnose_run(run / "events.jsonl")
        assert report["findings"][0]["name"] == "critic-divergence"

    def test_missing_events_is_healthy_empty(self, tmp_path):
        run = tmp_path / "empty"
        run.mkdir()
        report = diagnose_run(run)
        assert report["healthy"]
        assert report["run"]["events_file"] is None

    def test_reads_only_the_events_stream_of_a_run_dir(self, monkeypatch):
        """A run directory's span trace and cost ledger are told apart
        by their first record, and the chosen stream is read once."""
        read = []

        def spy(path_or_lines):
            read.append(Path(path_or_lines).name)
            return read_jsonl(path_or_lines)

        monkeypatch.setattr(doctor, "read_jsonl", spy)
        report = diagnose_run(CLI_RUN)
        assert report["run"]["events_file"].endswith("events.jsonl")
        assert read == ["events.jsonl"]


class TestEngineFindings:
    def _engine_run(self, tmp_path):
        """A grid run that crashed a worker, timed out a task, and found
        corrupt cache entries — recorded by the supervisor's bus stream."""
        run = tmp_path / "grid"
        run.mkdir()
        _write_events(run / "events.jsonl", [
            {"kind": "cache-quarantined", "ts": 0.0, "count": 2,
             "quarantine_dir": "/tmp/cache/.quarantine"},
            {"kind": "task-failed", "ts": 1.0, "task_kind": "online-session",
             "index": 3, "attempt": 1, "exc_type": "WorkerCrash",
             "message": "worker process died mid-task",
             "worker_crash": True, "timed_out": False},
            {"kind": "pool-rebuilt", "ts": 2.0, "incomplete": 4},
            {"kind": "task-failed", "ts": 3.0, "task_kind": "online-session",
             "index": 5, "attempt": 2, "exc_type": "TaskTimeout",
             "message": "exceeded the 60.0s task deadline",
             "worker_crash": True, "timed_out": True},
        ])
        return run

    def test_engine_events_become_ranked_findings(self, tmp_path):
        report = diagnose_run(self._engine_run(tmp_path))
        assert not report["healthy"]
        names = {f["name"] for f in report["findings"]}
        assert names == {
            "engine-task-failure", "engine-task-timeout",
            "engine-pool-rebuilt", "engine-cache-corruption",
        }
        for finding in report["findings"]:
            assert finding["severity"] == "warning"
            assert finding["inferred"] is False
            assert finding["remediation"] == REMEDIATIONS[finding["name"]]
        assert report["run"]["alerts_engine"] == 4

    def test_timed_out_failure_maps_to_timeout_cause(self, tmp_path):
        report = diagnose_run(self._engine_run(tmp_path))
        by_name = {f["name"]: f for f in report["findings"]}
        assert "deadline" in by_name["engine-task-timeout"]["message"]
        assert "WorkerCrash" in by_name["engine-task-failure"]["message"]
        assert by_name["engine-pool-rebuilt"]["data"] == {"incomplete": 4}
        assert by_name["engine-cache-corruption"]["data"] == {"count": 2}

    def test_engine_findings_merge_with_live_alerts(self, tmp_path):
        run = self._engine_run(tmp_path)
        records = [json.loads(line) for line in
                   (run / "events.jsonl").read_text().splitlines()]
        records.append(_alert("critic-divergence", "critical", 9, "boom"))
        _write_events(run / "events.jsonl", records)
        report = diagnose_run(run)
        names = [f["name"] for f in report["findings"]]
        assert names[0] == "critic-divergence"  # critical still leads
        assert "engine-pool-rebuilt" in names

    def test_engine_findings_render_with_fix_hints(self, tmp_path):
        text = render_diagnosis(diagnose_run(self._engine_run(tmp_path)))
        assert "engine-task-timeout" in text
        assert "--task-timeout" in text
        assert "(inferred from replay)" not in text

    def test_doctor_cli_fails_on_engine_findings(self, tmp_path):
        run = self._engine_run(tmp_path)
        assert main(["doctor", str(run), "--fail-on-findings"]) == 4


class TestRender:
    def test_render_orders_and_hints(self, tmp_path):
        report = diagnose_run(_planted_run(tmp_path))
        text = render_diagnosis(report)
        assert text.index("critic-divergence") < text.index("reward-plateau")
        assert "1. [CRIT] critic-divergence ×3 @ step 5" in text
        assert "fix:" in text
        assert "loss=31.0" in text

    def test_render_top_truncates(self, tmp_path):
        report = diagnose_run(_planted_run(tmp_path))
        text = render_diagnosis(report, top=1)
        assert "critic-divergence" in text
        assert "reward-plateau" not in text

    def test_render_inferred_tag(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        _write_events(
            run / "events.jsonl",
            [{"kind": "online-step", "ts": float(i), "step": i,
              "reward": 0.5, "success": True} for i in range(40)],
        )
        text = render_diagnosis(diagnose_run(run))
        assert "(inferred from replay)" in text


class TestDoctorCLI:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        run = _planted_run(tmp_path)
        assert main(["doctor", str(run)]) == 0
        out = capsys.readouterr().out
        assert "critic-divergence" in out

    def test_fail_on_findings(self, tmp_path):
        assert main(
            ["doctor", str(_planted_run(tmp_path)), "--fail-on-findings"]
        ) == 4

    def test_fail_on_findings_healthy_run_exits_zero(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        _write_events(
            run / "events.jsonl",
            [{"kind": "online-step", "ts": 0.0, "step": 0,
              "reward": 0.1, "success": True}],
        )
        assert main(["doctor", str(run), "--fail-on-findings"]) == 0

    def test_json_output(self, tmp_path, capsys):
        run = _planted_run(tmp_path)
        assert main(["doctor", str(run), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["name"] == "critic-divergence"
        assert doc["healthy"] is False

    def test_missing_path_errors(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "nope")]) == 1
        assert "doctor:" in capsys.readouterr().err
