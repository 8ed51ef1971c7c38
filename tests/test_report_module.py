"""Tests for the report generator's plumbing (no science-scale runs)."""

import pytest

from repro.experiments.report import _block, build_report


class TestReportHelpers:
    def test_block_wraps_in_fences(self):
        out = _block("hello")
        assert out.startswith("```\n")
        assert out.endswith("```\n")
        assert "hello" in out

    def test_build_report_rejects_unknown_scale(self):
        with pytest.raises(KeyError):
            build_report("warp-speed")


class TestReportCli:
    def test_module_main_writes_file(self, tmp_path, monkeypatch):
        # patch build_report so the CLI path is tested without a full run
        import repro.experiments.report as report_mod

        seen = {}

        def stub(scale, *, engine=None, **kwargs):
            seen["engine"] = engine
            return f"# stub ({scale})\n"

        monkeypatch.setattr(report_mod, "build_report", stub)
        out = tmp_path / "E.md"
        monkeypatch.setattr(
            "sys.argv",
            ["report", "--scale", "quick", "--output", str(out),
             "--cache-dir", str(tmp_path / "cache"), "--jobs", "2"],
        )
        report_mod.main()
        assert out.read_text().startswith("# stub (quick)")
        # main() built an engine from the CLI flags and passed it through
        assert seen["engine"] is not None
        assert seen["engine"].jobs == 2
        assert seen["engine"].cache is not None

    def test_module_main_no_cache_flag(self, tmp_path, monkeypatch):
        import repro.experiments.report as report_mod

        seen = {}

        def stub(scale, *, engine=None, **kwargs):
            seen["engine"] = engine
            return "# stub\n"

        monkeypatch.setattr(report_mod, "build_report", stub)
        out = tmp_path / "E.md"
        monkeypatch.setattr(
            "sys.argv",
            ["report", "--output", str(out), "--no-cache"],
        )
        report_mod.main()
        assert seen["engine"].cache is None


class TestReportCommand:
    """``repro report`` and its name ``bench-report`` dispatch to the
    report handler; ``bench`` is no command."""

    @pytest.mark.parametrize("command", ["report", "bench-report"])
    def test_writes_the_report_and_exits_0(self, command, tmp_path,
                                           monkeypatch):
        import repro.experiments.report as report_mod
        from repro.cli import main

        monkeypatch.setattr(report_mod, "build_report",
                            lambda scale, *, engine=None: f"# stub ({scale})\n")
        out = tmp_path / "E.md"
        assert main([command, "--output", str(out), "--no-cache"]) == 0
        assert out.read_text() == "# stub (quick)\n"

    def test_bench_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "list"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
