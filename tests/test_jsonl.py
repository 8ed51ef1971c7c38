"""The one JSONL writer and reader behind the events, bus and ledger
files: when each file appears, what a deferred block changes, and what
the reader skips."""

import json

from repro.telemetry import BusWriter, CostLedger, load_ledger
from repro.utils.jsonl import read_jsonl
from repro.utils.logging import JsonlLogger


def test_files_appear_when_their_writers_need_them(tmp_path):
    JsonlLogger(tmp_path / "logs" / "events.jsonl")
    assert (tmp_path / "logs" / "events.jsonl").exists()

    bus = BusWriter(tmp_path / "bus", "task-0000")
    ledger_path = tmp_path / "run.ledger.jsonl"
    ledger_path.write_text("an older run\n", encoding="utf-8")
    ledger = CostLedger(ledger_path)
    assert not (tmp_path / "bus").exists()
    assert ledger_path.read_text(encoding="utf-8") == "an older run\n"

    bus.event("online-step", step=0)
    ledger.charge("evaluation", 1.5, step=0)
    assert (tmp_path / "bus" / "task-0000.jsonl").exists()
    header, entry = ledger_path.read_text(encoding="utf-8").splitlines()
    assert json.loads(header)["kind"] == "ledger-header"
    assert json.loads(entry)["amount_s"] == 1.5


def test_deferred_batches_flushes_not_content(tmp_path):
    eager = CostLedger(tmp_path / "eager.jsonl")
    batched = CostLedger(tmp_path / "batched.jsonl")
    eager.charge("evaluation", 1.0, step=0)
    batched.charge("evaluation", 1.0, step=0)
    with batched.deferred():
        for step in (1, 2):
            eager.charge("evaluation", 2.0, step=step)
            batched.charge("evaluation", 2.0, step=step)
        unflushed = (tmp_path / "batched.jsonl").read_text(encoding="utf-8")
    assert unflushed.count("\n") == 2  # header and the first entry
    records = [
        json.loads(line)
        for name in ("eager", "batched")
        for line in (tmp_path / f"{name}.jsonl").read_text().splitlines()
    ]
    for record in records:
        record.pop("ts")
    assert records[:4] == records[4:]


def test_ledger_reopened_after_close_appends(tmp_path):
    ledger = CostLedger(tmp_path / "run.ledger.jsonl")
    ledger.charge("evaluation", 1.0, step=0)
    ledger.close()
    ledger.charge("evaluation", 2.0, step=1)
    ledger.close()
    view = load_ledger(tmp_path / "run.ledger.jsonl")
    assert [e["amount_s"] for e in view.entries] == [1.0, 2.0]


def test_reader_reports_what_it_skipped(tmp_path):
    lines = ['{"kind": "a"}', "", "[1, 2]", "   ", '{"kind": "b"}', '{"ki']
    assert read_jsonl(lines) == ([{"kind": "a"}, {"kind": "b"}], [3, 6])
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert read_jsonl(path) == read_jsonl(lines)
