"""Self-test of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _records(stdout: str) -> dict[str, dict]:
    return {r["workload"]: r for r in compare.parse_records(stdout)}


def test_smoke_reports_every_end_to_end_metric_within_60s():
    start = time.monotonic()
    proc = _run("--seed", "0", "--smoke", "--seconds", "1")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60, f"smoke run took {elapsed:.1f}s"
    records = _records(proc.stdout)
    assert sorted(records) == sorted(w["name"] for w in SPEC["workloads"])
    for rec in records.values():
        assert rec["correct"] and rec["failed"] == 0, rec["failures"]
        for metric in SPEC["end_to_end"]:
            value = rec["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0, (rec["workload"], metric["name"])
    assert (records["population"]["digest"]
            == records["population-sharded"]["digest"])
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_trace_reports_every_per_layer_metric():
    proc = _run("--seed", "1", "--smoke", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    records = _records(proc.stdout)
    declared = [m["name"] for m in SPEC["per_layer"]]
    for rec in records.values():
        assert rec["correct"], rec["failures"]
        assert list(rec["metrics"]) == declared
        values = {k: v["value"] for k, v in rec["metrics"].items()}
        self_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert self_s + values["unattributed_s"] == pytest.approx(
            values["traced_wall_s"], rel=1e-6)
    assert records["train"]["metrics"]["agents.update.calls"]["value"] > 0
    assert records["tune"]["metrics"]["twinq.calls"]["value"] > 0
    assert records["population"]["metrics"][
        "envs.vector_step.calls"]["value"] > 0


def test_single_workload_prints_one_result_line():
    proc = _run("--workload", "tune", "--seed", "2", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "train", "--seed", "0", cwd=tmp_path,
                timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Tampered(workloads.Tune):
    """A tune workload whose sessions are altered after they ran."""

    def request(self, i):
        req = super().request(i)
        steps = req.sessions[0].steps
        steps[0] = dataclasses.replace(
            steps[0], duration_s=steps[0].duration_s + 1.0
        )
        return req


@pytest.mark.parametrize("cls, failed", [(workloads.Tune, False),
                                         (_Tampered, True)])
def test_tampered_session_fails_the_check(tmp_path, cls, failed):
    sizes = workloads.SMOKE
    workloads.build_fixture(0, sizes, workloads.HIBENCH, tmp_path)
    w = cls(0, sizes, tmp_path, tmp_path)
    w.setup()
    tally = workloads.run_pass(w, 1, None)
    assert tally.units == len(workloads.HIBENCH) * sizes.tune_steps
    assert (tally.failed_units == tally.units) is failed
    assert bool(tally.failures) is failed


def test_self_times_of_a_nested_trace():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 8.0, 0],
        ["b.child", 5.5, 6.0, 3],
        ["b.child", 7.0, 7.5, 3],
    ]
    assert layers.self_times(spans) == pytest.approx(
        [4.0, 2.0, 1.0, 2.0, 0.5, 0.5])
    assert sum(layers.self_times(spans)) == pytest.approx(10.0)
    totals = layers.layer_totals(spans)
    assert totals["b.child"] == {"calls": 2, "self_s": pytest.approx(1.0)}
    # overlapping children are counted once
    overlap = [["p", 0.0, 4.0, -1], ["c", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert layers.self_times(overlap)[0] == pytest.approx(1.0)


def test_recorder_spans_nest_and_undo():
    rec = layers.Recorder()

    def inner(x):
        return x + 1

    def outer(x):
        return traced_inner(x) * 2

    traced_inner = rec.wrap("inner", inner)
    traced_outer = rec.wrap("outer", outer)
    assert traced_outer(1) == 4 and not rec.spans  # not recording
    with rec.active():
        assert traced_outer(1) == 4
    assert [s[0] for s in rec.spans] == ["outer", "inner"]
    assert rec.spans[1][3] == 0
    own = layers.self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0][2] - rec.spans[0][1])

    from repro.agents.td3 import TD3Agent

    original = TD3Agent.__dict__["update"]
    rec.install()
    assert TD3Agent.__dict__["update"] is not original
    rec.uninstall()
    assert TD3Agent.__dict__["update"] is original


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [x * 1.3 for x in parent], "higher",
                           0.1) == ("gain", 10)
    assert compare.verdict(parent, [x * 0.8 for x in parent], "higher",
                           0.1)[0] == "regression"
    assert compare.verdict(parent, list(parent), "higher",
                           0.1) == ("unchanged", 0)
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower",
                           0.1)[0] == "unresolved"
