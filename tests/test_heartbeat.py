"""Heartbeat writer/reader, the watch CLI, and monotonic manifest time."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.telemetry import (
    HeartbeatWriter,
    default_stale_after,
    finalize_heartbeat,
    heartbeat_status,
    pid_alive,
    read_heartbeat,
    render_heartbeat,
)
from repro.telemetry.manifest import RunManifest
from repro.utils.logging import TeeLogger, TuningLogger


class TestHeartbeatWriter:
    def test_counts_only_step_events(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb, total_steps=4)
        w.event("config", seed=0)  # not a step kind
        assert not hb.exists()
        w.event("offline-step", iteration=0, loss=0.5)
        w.event("offline-step", iteration=1, loss=0.4)
        doc = read_heartbeat(hb)
        assert doc["step"] == 2
        assert doc["total_steps"] == 4
        assert doc["phase"] == "offline-train"
        assert doc["elapsed_s"] >= 0.0
        assert doc["eta_s"] is not None
        assert doc["last_event"]["loss"] == 0.4

    def test_online_step_switches_phase(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb)
        w.event("online-step", step=1)
        doc = read_heartbeat(hb)
        assert doc["phase"] == "online-tune"
        assert doc["eta_s"] is None  # unknown total => no ETA

    def test_last_event_keeps_scalars_only(self, tmp_path):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb).event(
            "offline-step", loss=1.0, vec=[1, 2], note="x", flag=True
        )
        last = read_heartbeat(hb)["last_event"]
        assert last == {"loss": 1.0, "note": "x", "flag": True}

    def test_no_tmp_file_left_behind(self, tmp_path):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb).event("offline-step")
        assert [p.name for p in tmp_path.iterdir()] == ["hb.json"]

    def test_creates_parent_directory(self, tmp_path):
        hb = tmp_path / "deep" / "nested" / "hb.json"
        HeartbeatWriter(hb).event("offline-step")
        assert hb.is_file()


class TestHeartbeatEnrichment:
    def test_intervention_and_alert_events_do_not_write(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb, total_steps=4)
        w.event("intervention", intervention="retry", step=0)
        w.event("alert", name="reward-plateau", severity="warning", step=0)
        assert not hb.exists()  # counters mutate in memory only

    def test_step_event_flushes_resilience_and_alerts(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb, total_steps=4)
        w.event("intervention", intervention="retry")
        w.event("intervention", intervention="retry")
        w.event("intervention", intervention="watchdog-abort")
        w.event("intervention", intervention="fallback")
        w.event("intervention", intervention="state-repair")
        w.event("alert", name="critic-divergence", severity="critical",
                step=1)
        w.event("online-step", step=1, reward=0.4, success=True,
                duration_s=55.0)
        doc = read_heartbeat(hb)
        assert doc["resilience"] == {
            "retries": 2, "watchdog_aborts": 1,
            "fallbacks": 1, "state_repairs": 1,
        }
        assert doc["alerts"]["total"] == 1
        assert doc["alerts"]["active"][-1]["name"] == "critic-divergence"
        assert doc["best_reward"] == 0.4
        assert doc["best_duration_s"] == 55.0

    def test_best_fields_track_extremes(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb)
        w.event("online-step", step=1, reward=0.2, success=True,
                duration_s=60.0)
        w.event("online-step", step=2, reward=0.5, success=True,
                duration_s=48.0)
        w.event("online-step", step=3, reward=0.1, success=False,
                duration_s=10.0)  # failed step must not win best duration
        doc = read_heartbeat(hb)
        assert doc["best_reward"] == 0.5
        assert doc["best_duration_s"] == 48.0

    def test_alert_ring_is_bounded(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb)
        for i in range(9):
            w.event("alert", name=f"a{i}", severity="info", step=i)
        w.event("online-step", step=1)
        doc = read_heartbeat(hb)
        assert doc["alerts"]["total"] == 9
        assert len(doc["alerts"]["active"]) == 5
        assert doc["alerts"]["active"][0]["name"] == "a4"

    def test_render_shows_resilience_and_alert_extras(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb, total_steps=3)
        w.event("intervention", intervention="retry")
        w.event("alert", name="rdper-beta-drift", severity="warning",
                step=1)
        w.event("online-step", step=1, reward=0.1, success=True)
        line = render_heartbeat(read_heartbeat(hb))
        assert "retries 1" in line
        assert "alerts 1" in line
        assert "rdper-beta-drift" in line

    def test_population_round_stamps_round_time(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb, total_steps=4)
        w.event("population-round", step=0, round_s=12.5, shards=4,
                members=64)
        assert not hb.exists()  # not a step kind — accumulates only
        w.event("online-step", step=1)
        doc = read_heartbeat(hb)
        assert doc["round_s"] == 12.5
        assert doc["step"] == 1  # rounds don't inflate the step count

    def test_round_time_tracks_latest_round(self, tmp_path):
        hb = tmp_path / "hb.json"
        w = HeartbeatWriter(hb)
        w.event("population-round", step=0, round_s=8.0)
        w.event("population-round", step=1, round_s=3.0)
        w.event("online-step", step=2)
        assert read_heartbeat(hb)["round_s"] == 3.0


class TestHeartbeatStatus:
    def _doc(self, **over):
        doc = {
            "phase": "online-tune", "step": 3, "total_steps": 10,
            "elapsed_s": 30.0, "eta_s": 70.0,
            "updated_at": time.time(), "pid": 1,
        }
        doc.update(over)
        return doc

    def test_default_stale_after_is_three_step_intervals(self):
        assert default_stale_after(self._doc()) == 30.0  # 3 * (30/3)
        # Floor of 10s for fast steps / step zero.
        assert default_stale_after(self._doc(step=0)) == 10.0
        assert default_stale_after(
            self._doc(step=30, elapsed_s=3.0)
        ) == 10.0

    def test_round_time_wins_over_step_mean(self):
        # A sharded population lands N member steps per barrier round, so
        # the per-step mean (here 10s) under-estimates the real update
        # cadence; the stamped slowest-shard round time must win.
        doc = self._doc(round_s=40.0)
        assert default_stale_after(doc) == 120.0
        assert heartbeat_status(doc, age_s=100.0) == "running"
        assert heartbeat_status(doc, age_s=130.0) == "stalled"
        # Floor still applies, and a zero round stamp falls back.
        assert default_stale_after(self._doc(round_s=0.5)) == 10.0
        assert default_stale_after(self._doc(round_s=0.0)) == 30.0

    def test_status_transitions(self):
        doc = self._doc()
        assert heartbeat_status(doc, age_s=1.0) == "running"
        assert heartbeat_status(doc, age_s=31.0) == "stalled"
        assert heartbeat_status(doc, age_s=5.0, stale_after=2.0) == "stalled"
        assert heartbeat_status(
            self._doc(step=10), age_s=9999.0
        ) == "done"  # finished runs never stall

    def test_dead_pid_means_crashed_not_stalled(self):
        doc = self._doc()
        assert heartbeat_status(doc, age_s=1.0, alive=False) == "crashed"
        assert heartbeat_status(doc, age_s=9999.0, alive=False) == "crashed"
        # Liveness unknown: fall back to pure mtime staleness.
        assert heartbeat_status(doc, age_s=1.0, alive=None) == "running"
        assert heartbeat_status(doc, age_s=1.0, alive=True) == "running"

    def test_finished_marker_beats_dead_pid(self):
        # A run that stopped on purpose (budget, Ctrl-C + checkpoint) has
        # a gone pid too — the terminal marker is what separates it.
        doc = self._doc(finished="interrupted")
        assert heartbeat_status(doc, age_s=9999.0, alive=False) == "done"

    def test_pid_alive(self):
        assert pid_alive(os.getpid()) is True
        # Fresh child that exited and was reaped: the pid is gone.
        pid = os.fork()
        if pid == 0:
            os._exit(0)  # pragma: no cover - child
        os.waitpid(pid, 0)
        assert pid_alive(pid) is False
        assert pid_alive(None) is None
        assert pid_alive(-1) is None
        assert pid_alive("123") is None
        assert pid_alive(True) is None

    def test_finalize_heartbeat_stamps_marker(self, tmp_path):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=10).event("online-step", step=1)
        finalize_heartbeat(hb, "interrupted")
        doc = read_heartbeat(hb)
        assert doc["finished"] == "interrupted"
        assert heartbeat_status(doc, age_s=9999.0, alive=False) == "done"

    def test_finalize_missing_heartbeat_is_a_noop(self, tmp_path):
        finalize_heartbeat(tmp_path / "none.json")  # must not raise
        assert not (tmp_path / "none.json").exists()


class TestHeartbeatReader:
    def test_read_errors_are_valueerror(self, tmp_path):
        with pytest.raises(ValueError, match="no heartbeat file"):
            read_heartbeat(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{torn", encoding="utf-8")
        with pytest.raises(ValueError, match="not a heartbeat JSON"):
            read_heartbeat(bad)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"kind": "config"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a heartbeat document"):
            read_heartbeat(other)

    def test_render_line(self):
        line = render_heartbeat({
            "phase": "offline-train",
            "step": 30,
            "total_steps": 60,
            "elapsed_s": 12.0,
            "eta_s": 12.0,
            "updated_at": time.time(),
            "pid": 123,
        })
        assert "offline-train" in line
        assert "30/60" in line
        assert "12.0s" in line
        assert "(stale)" not in line

    def test_render_marks_stale(self):
        line = render_heartbeat({
            "phase": "online-tune",
            "step": 1,
            "total_steps": None,
            "elapsed_s": 5000.0,
            "eta_s": None,
            "updated_at": time.time() - 3600,
            "pid": 1,
        })
        assert "(stale)" in line
        assert "1.4h" in line  # hour formatting
        assert "eta        ?" in line

    @pytest.mark.parametrize("ending", [
        {"finished": "completed", "step": 2},
        {"step": 4},
    ])
    def test_render_never_marks_a_finished_run_stale(self, ending):
        """An hour-old document of a run that finished (a terminal
        marker, or every step done) is what ``top`` reports as DONE."""
        doc = {
            "phase": "online-tune",
            "total_steps": 4,
            "elapsed_s": 12.0,
            "eta_s": 0.0,
            "updated_at": time.time() - 3600,
            "pid": 1,
            **ending,
        }
        assert heartbeat_status(doc, age_s=3600.0) == "done"
        assert "(stale)" not in render_heartbeat(doc)


class TestTeeLogger:
    def test_fans_out_and_skips_none(self, tmp_path):
        seen = []

        class Probe(TuningLogger):
            def event(self, kind, **fields):
                seen.append((kind, fields))

        hb = tmp_path / "hb.json"
        tee = TeeLogger(Probe(), None, HeartbeatWriter(hb))
        tee.event("offline-step", loss=0.1)
        tee.flush()
        tee.close()
        assert seen == [("offline-step", {"loss": 0.1})]
        assert read_heartbeat(hb)["step"] == 1


class TestWatchCLI:
    def test_watch_renders_once(self, tmp_path, capsys):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=3).event("offline-step")
        assert main(["telemetry", "watch", str(hb)]) == 0
        assert "offline-train" in capsys.readouterr().out

    def test_watch_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["telemetry", "watch", str(tmp_path / "none.json")])
        assert rc == 1
        assert "watch:" in capsys.readouterr().err

    def test_watch_flags_stalled_heartbeat(self, tmp_path, capsys):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=10).event("online-step", step=1)
        stale = time.time() - 120.0
        os.utime(hb, (stale, stale))
        rc = main([
            "telemetry", "watch", str(hb),
            "--stale-after", "60", "--fail-on-stall",
        ])
        assert rc == 3
        assert "STALLED" in capsys.readouterr().out

    def test_watch_fresh_heartbeat_passes_stall_gate(self, tmp_path, capsys):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=10).event("online-step", step=1)
        rc = main([
            "telemetry", "watch", str(hb),
            "--stale-after", "3600", "--fail-on-stall",
        ])
        assert rc == 0
        assert "STALLED" not in capsys.readouterr().out

    @staticmethod
    def _interrupt_on_sleep(monkeypatch, after):
        """Let ``after`` refresh sleeps pass, then raise Ctrl-C."""
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) > after:
                raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", sleep)
        return sleeps

    def test_watch_follow_repaints_until_interrupted(
        self, tmp_path, capsys, monkeypatch
    ):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=3).event("offline-step")
        sleeps = self._interrupt_on_sleep(monkeypatch, after=2)
        assert main([
            "telemetry", "watch", str(hb), "--follow", "--interval", "0.01",
        ]) == 0
        assert capsys.readouterr().out.count("offline-train") == 3
        assert sleeps == [0.1, 0.1, 0.1]  # the interval's floor

    def test_top_refresh_clears_the_screen(
        self, tmp_path, capsys, monkeypatch
    ):
        HeartbeatWriter(tmp_path / "a" / "hb.json", total_steps=3).event(
            "offline-step")
        self._interrupt_on_sleep(monkeypatch, after=1)
        assert main(["telemetry", "top", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("SESSION") == 2
        assert out.count("\x1b[2J\x1b[H") == 1

    def test_top_renders_fleet_table(self, tmp_path, capsys):
        for name in ("alpha", "beta"):
            hb = tmp_path / name / "hb.json"
            w = HeartbeatWriter(hb, total_steps=5)
            w.event("intervention", intervention="retry")
            w.event("online-step", step=2, reward=0.3, success=True,
                    duration_s=50.0)
        rc = main(["telemetry", "top", str(tmp_path), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SESSION" in out
        assert "alpha" in out and "beta" in out

    def test_top_fail_on_stall(self, tmp_path, capsys):
        hb = tmp_path / "run" / "hb.json"
        HeartbeatWriter(hb, total_steps=10).event("online-step", step=1)
        stale = time.time() - 120.0
        os.utime(hb, (stale, stale))
        rc = main([
            "telemetry", "top", str(tmp_path), "--once",
            "--stale-after", "60", "--fail-on-stall",
        ])
        assert rc == 3
        assert "STALLED" in capsys.readouterr().out

    def _dead_pid(self):
        pid = os.fork()
        if pid == 0:
            os._exit(0)  # pragma: no cover - child
        os.waitpid(pid, 0)
        return pid

    def _mark_dead(self, hb):
        doc = read_heartbeat(hb)
        doc["pid"] = self._dead_pid()
        hb.write_text(json.dumps(doc), encoding="utf-8")

    def test_watch_flags_crashed_session(self, tmp_path, capsys):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=10).event("online-step", step=1)
        self._mark_dead(hb)
        rc = main([
            "telemetry", "watch", str(hb),
            "--stale-after", "3600", "--fail-on-stall",
        ])
        assert rc == 3  # crashed fails the gate even while mtime is fresh
        assert "CRASHED" in capsys.readouterr().out

    def test_watch_finalized_session_is_done_not_crashed(
        self, tmp_path, capsys
    ):
        hb = tmp_path / "hb.json"
        HeartbeatWriter(hb, total_steps=10).event("online-step", step=1)
        self._mark_dead(hb)
        finalize_heartbeat(hb, "interrupted")
        rc = main([
            "telemetry", "watch", str(hb),
            "--stale-after", "3600", "--fail-on-stall",
        ])
        assert rc == 0
        assert "CRASHED" not in capsys.readouterr().out

    def test_top_distinguishes_crashed_from_stalled(self, tmp_path, capsys):
        crashed = tmp_path / "crashed" / "hb.json"
        HeartbeatWriter(crashed, total_steps=10).event("online-step", step=1)
        self._mark_dead(crashed)
        stalled = tmp_path / "stalled" / "hb.json"
        HeartbeatWriter(stalled, total_steps=10).event("online-step", step=1)
        doc = read_heartbeat(stalled)
        doc["pid"] = None  # liveness unknown => mtime staleness applies
        stalled.write_text(json.dumps(doc), encoding="utf-8")
        old = time.time() - 120.0
        os.utime(stalled, (old, old))
        rc = main([
            "telemetry", "top", str(tmp_path), "--once",
            "--stale-after", "60", "--fail-on-stall",
        ])
        assert rc == 3
        out = capsys.readouterr().out
        assert "CRASHED" in out
        assert "STALLED" in out
        assert "1 stalled" in out and "1 crashed" in out

    def test_heartbeat_flag_during_train(self, tmp_path, capsys):
        hb = tmp_path / "hb.json"
        rc = main([
            "train", "--workload", "TS", "--iterations", "12",
            "--model", str(tmp_path / "m.npz"), "--heartbeat", str(hb),
        ])
        assert rc == 0
        doc = read_heartbeat(hb)
        assert doc["step"] == 12
        assert doc["total_steps"] == 12
        assert doc["finished"] == "completed"  # stamped on clean exit
        capsys.readouterr()
        assert main(["telemetry", "watch", str(hb)]) == 0
        assert "12/12" in capsys.readouterr().out


class TestManifestDuration:
    def test_elapsed_uses_monotonic_clock(self):
        m = RunManifest(kind="t")
        # A wall-clock step backwards must not produce a negative elapsed.
        m.created_at = time.time() + 9999.0
        m.finish()
        assert m.elapsed_s >= 0.0
        assert m.elapsed_s < 60.0

    def test_finish_freezes_elapsed(self):
        m = RunManifest(kind="t")
        m.finish()
        frozen = m.elapsed_s
        time.sleep(0.01)
        assert m.elapsed_s == frozen

    def test_loaded_manifest_reports_saved_elapsed(self, tmp_path):
        m = RunManifest(kind="t", seed=1)
        m.finish()
        path = tmp_path / "manifest.json"
        m.save(path)
        loaded = RunManifest.load(path)
        assert loaded.elapsed_s == pytest.approx(m.elapsed_s)
        time.sleep(0.01)
        assert loaded.elapsed_s == pytest.approx(m.elapsed_s)
        assert loaded.to_dict()["elapsed_s"] == pytest.approx(m.elapsed_s)
