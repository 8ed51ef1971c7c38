"""Benchmark harness: registry, runner, schema, regression gate, CLI."""

import json

import pytest

from repro.bench import (
    Benchmark,
    compare_docs,
    iter_benchmarks,
    load_doc,
    make_doc,
    render_comparison,
    run_one,
    validate_doc,
)
from repro.bench.registry import bench
from repro.cli import main

#: the whole suite; the end-to-end stages live in benchmarks/perf
MICRO_SUITE = {
    "cache.roundtrip",
    "codec.batch",
    "codec.roundtrip",
    "per.sample",
    "population.step",
    "rdper.push",
    "rdper.sample",
    "rdper.sample_batch",
    "sim.batch",
    "sim.step",
    "td3.update",
    "telemetry.diagnostics",
    "telemetry.ledger",
    "twinq.accept",
}


def _fake_benchmark(name="fake.bench", items=10):
    return Benchmark(
        name=name,
        items=items,
        factory=lambda: (lambda: sum(range(200))),
        description="synthetic",
    )


def _result_record(name, median_s=0.01):
    return {
        "name": name,
        "items": 10,
        "repetitions": 3,
        "median_s": median_s,
        "p10_s": median_s * 0.9,
        "p90_s": median_s * 1.1,
        "throughput_per_s": 10 / median_s,
    }


def _doc(records):
    return make_doc(records, config={"repetitions": 3})


class TestRegistry:
    def test_suite_has_required_coverage(self):
        assert {b.name for b in iter_benchmarks()} == MICRO_SUITE

    def test_iter_sorted(self):
        all_names = [b.name for b in iter_benchmarks()]
        assert all_names == sorted(all_names)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            bench("sim.step", items=1)(lambda: lambda: None)

    def test_bad_items_rejected(self):
        with pytest.raises(ValueError, match="items"):
            bench("x.bad", items=0)

    def test_unknown_benchmark_lists_known(self):
        from repro.bench import get_benchmark

        with pytest.raises(KeyError, match="sim.step"):
            get_benchmark("no.such.bench")


class TestRunner:
    def test_run_one_record_shape(self):
        rec = run_one(_fake_benchmark(), repetitions=3, warmup=1)
        assert rec["name"] == "fake.bench"
        assert rec["repetitions"] == 3
        assert rec["p10_s"] <= rec["median_s"] <= rec["p90_s"]
        assert rec["min_s"] <= rec["median_s"] <= rec["max_s"]
        assert rec["throughput_per_s"] > 0
        assert rec["alloc_peak_bytes"] is not None
        assert rec["peak_rss_kb"] is None or rec["peak_rss_kb"] > 0

    def test_run_one_without_alloc_pass(self):
        rec = run_one(
            _fake_benchmark(), repetitions=1, warmup=0, track_alloc=False
        )
        assert rec["alloc_peak_bytes"] is None

    def test_run_one_invokes_cleanup(self):
        calls = {"run": 0, "cleanup": 0}

        def factory():
            def run():
                calls["run"] += 1

            def cleanup():
                calls["cleanup"] += 1

            return run, cleanup

        b = Benchmark(name="c", items=1, factory=factory)
        run_one(b, repetitions=2, warmup=1)
        # warmup + timed reps + allocation pass, one cleanup at the end
        assert calls == {"run": 4, "cleanup": 1}

    def test_run_one_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            run_one(_fake_benchmark(), repetitions=0, warmup=0)


class TestSchema:
    def test_make_doc_is_valid(self):
        doc = _doc([_result_record("a"), _result_record("b")])
        assert validate_doc(doc) == []
        assert doc["schema_version"] == 2
        assert "host" in doc and "created_at" in doc
        assert doc["host"]["blas_threads"] >= 1

    def test_v1_documents_remain_accepted(self):
        doc = _doc([_result_record("a")])
        doc["schema_version"] = 1  # pre-multi-core baseline files
        assert validate_doc(doc) == []

    @pytest.mark.parametrize(
        "version, kinds", [(1, ("micro", "micro")), (2, ("micro", "macro"))]
    )
    def test_old_documents_load_and_compare(self, tmp_path, version, kinds):
        # Files written while the suite had macros tag every record with
        # a kind; they must stay readable and comparable.
        records = [
            dict(_result_record(name), kind=kind)
            for name, kind in zip(("a", "old.macro"), kinds)
        ]
        doc = dict(_doc(records), schema_version=version)
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        old = load_doc(path)
        cmp = compare_docs(_doc([_result_record("a")]), old)
        assert cmp.ok
        assert [d.name for d in cmp.deltas] == ["a"]
        assert cmp.only_in_baseline == ["old.macro"]

    def test_validate_flags_problems(self):
        assert validate_doc("nope") == ["document is not a JSON object"]
        assert any(
            "schema_version" in p
            for p in validate_doc({"schema_version": 99, "results": []})
        )
        doc = _doc([_result_record("a"), _result_record("a")])
        assert any("duplicate" in p for p in validate_doc(doc))
        incomplete = _doc([{"name": "a"}])
        assert any("missing" in p for p in validate_doc(incomplete))

    def test_load_doc_error_paths(self, tmp_path):
        with pytest.raises(ValueError, match="no such bench file"):
            load_doc(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_doc(bad)
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"schema_version": 1, "results": []}))
        with pytest.raises(ValueError, match="invalid bench document"):
            load_doc(invalid)


class TestCompare:
    def test_unchanged_is_ok(self):
        base = _doc([_result_record("a"), _result_record("b")])
        cmp = compare_docs(base, base)
        assert cmp.ok and not cmp.regressions
        assert all(d.ratio == 1.0 for d in cmp.deltas)

    def test_slowdown_beyond_threshold_regresses(self):
        base = _doc([_result_record("a", median_s=0.010)])
        slow = _doc([_result_record("a", median_s=0.015)])
        cmp = compare_docs(slow, base, threshold=0.25)
        assert not cmp.ok
        assert cmp.regressions[0].name == "a"
        assert cmp.regressions[0].change_pct == pytest.approx(50.0)
        # a looser threshold tolerates the same slowdown
        assert compare_docs(slow, base, threshold=0.60).ok

    def test_speedup_and_missing_never_fail(self):
        base = _doc([_result_record("a", median_s=0.02), _result_record("b")])
        cand = _doc([_result_record("a", median_s=0.01), _result_record("c")])
        cmp = compare_docs(cand, base)
        assert cmp.ok
        assert cmp.only_in_baseline == ["b"]
        assert cmp.only_in_candidate == ["c"]
        text = render_comparison(cmp)
        assert "improved" in text
        assert "not measured in candidate" in text
        assert "no baseline entry" in text

    def test_render_marks_regression(self):
        base = _doc([_result_record("a", median_s=0.010)])
        slow = _doc([_result_record("a", median_s=0.020)])
        text = render_comparison(compare_docs(slow, base))
        assert "REGRESSED" in text
        assert "1 regression(s)" in text

    def test_threshold_must_be_positive(self):
        base = _doc([_result_record("a")])
        with pytest.raises(ValueError, match="threshold"):
            compare_docs(base, base, threshold=0.0)


class TestBenchCLI:
    def test_list_shows_suite(self, capsys):
        assert main(["bench", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[0] for line in lines} == MICRO_SUITE
        assert len(lines) == len(MICRO_SUITE)

    def test_run_writes_valid_doc(self, tmp_path, capsys):
        out = tmp_path / "BENCH_dev.json"
        rc = main([
            "bench", "run", "--out", str(out),
            "--only", "codec.roundtrip", "--only", "rdper.push",
            "--repetitions", "1", "--warmup", "0", "--no-alloc",
        ])
        assert rc == 0
        doc = load_doc(out)
        assert {r["name"] for r in doc["results"]} == {
            "codec.roundtrip",
            "rdper.push",
        }
        assert "wrote" in capsys.readouterr().out

    def test_run_rejects_bad_repetitions(self, capsys):
        assert main(["bench", "run", "--repetitions", "0"]) == 2
        assert "repetitions" in capsys.readouterr().err

    def test_run_rejects_unknown_benchmark(self, tmp_path, capsys):
        # exit 2 (usage), not 1, which compare reserves for "regressed"
        out = tmp_path / "BENCH_dev.json"
        rc = main([
            "bench", "run", "--out", str(out),
            "--only", "codec.roundtrip", "--only", "no.such.bench",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bench run: unknown benchmark 'no.such.bench'" in err
        assert "known: cache.roundtrip" in err
        assert not out.exists()

    def test_compare_ok_and_regression_exit_codes(self, tmp_path):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_doc([_result_record("a", median_s=0.01)])))
        slow.write_text(json.dumps(_doc([_result_record("a", median_s=0.05)])))
        assert main(["bench", "compare", str(base), str(base)]) == 0
        assert main(["bench", "compare", str(slow), str(base)]) == 1
        assert main([
            "bench", "compare", str(slow), str(base), "--threshold", "5.0",
        ]) == 0

    def test_compare_check_schema_only(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        slow = tmp_path / "slow.json"
        base.write_text(json.dumps(_doc([_result_record("a", median_s=0.01)])))
        slow.write_text(json.dumps(_doc([_result_record("a", median_s=0.09)])))
        rc = main([
            "bench", "compare", str(slow), str(base), "--check-schema",
        ])
        assert rc == 0  # schema check ignores the slowdown
        assert "schemas OK" in capsys.readouterr().out

    def test_compare_accepts_bench_missing_from_baseline(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_doc([_result_record("a")])))
        cand.write_text(json.dumps(_doc([
            _result_record("a"), _result_record("per.sample"),
        ])))
        assert main([
            "bench", "compare", str(cand), str(base), "--check-schema",
        ]) == 0
        assert main(["bench", "compare", str(cand), str(base)]) == 0
        assert "per.sample" in capsys.readouterr().out

    def test_compare_bad_files_exit_2(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_doc([_result_record("a")])))
        assert main([
            "bench", "compare", str(tmp_path / "nope.json"), str(good),
        ]) == 2
        assert "bench compare" in capsys.readouterr().err
        assert main([
            "bench", "compare", str(good), str(good), "--threshold", "-1",
        ]) == 2

    def test_committed_baseline_is_default_and_valid(self, tmp_path, capsys):
        from repro.cli import BASELINE_BENCH_PATH

        doc = load_doc(BASELINE_BENCH_PATH)  # committed baseline parses
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(doc))
        # default baseline argument resolves to the committed file
        assert main(["bench", "compare", str(cand)]) == 0
