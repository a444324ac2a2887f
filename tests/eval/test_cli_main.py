"""Tests for the ``python -m repro.eval`` command line."""

import json

import pytest

from repro.eval.__main__ import main, parse_size


class TestArgumentHandling:
    def test_unknown_exhibit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table99"])
        assert "unknown exhibits" in capsys.readouterr().err

    def test_single_static_exhibit(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Simulated architectures" in out
        assert "regenerated" in out

    def test_figure2_is_cheap_and_exact(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "25" in out and "14" in out

    def test_scale_and_benchmark_filters(self, capsys):
        assert main(["table3", "--scale", "0.02",
                     "--benchmarks", "pegwit"]) == 0
        out = capsys.readouterr().out
        assert "pegwit" in out
        assert "cc1" not in out

    def test_extension_by_name(self, capsys):
        assert main(["compression_analysis", "--scale", "0.02",
                     "--benchmarks", "pegwit"]) == 0
        assert "entropy" in capsys.readouterr().out

    def test_multiple_exhibits_share_workbench(self, capsys):
        assert main(["table3", "table4", "--scale", "0.02",
                     "--benchmarks", "pegwit"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "Table 4" in out


class TestSweepFlags:
    def test_parse_size(self):
        assert parse_size("65536") == 65536
        assert parse_size("8k") == 8 << 10
        assert parse_size("8M") == 8 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size(" 2K ") == 2048
        for bad in ("huge", "4.5M", "", "-1"):
            with pytest.raises(ValueError):
                parse_size(bad)

    def test_bad_trace_cache_limit_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--trace-cache-limit", "huge"])
        assert "byte size" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table2", "--jobs", "several"])
        assert "jobs" in capsys.readouterr().err

    def test_jobs_auto_accepted(self, capsys):
        assert main(["table2", "--jobs", "auto"]) == 0

    def test_stats_report_backends(self, capsys):
        assert main(["table5", "table10", "--scale", "0.02",
                     "--benchmarks", "pegwit", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "backend vec" in out

    def test_stats_time_predecode(self, capsys, tmp_path, monkeypatch):
        # Predecode is its own phase, still reached through the
        # runner's module-level prepare (which perfbench wraps).
        import repro.eval.runner as runner

        calls = []
        prepare = runner.prepare
        monkeypatch.setattr(runner, "prepare",
                            lambda program: calls.append(1)
                            or prepare(program))
        path = tmp_path / "stats.json"
        assert main(["table5", "--scale", "0.02", "--benchmarks", "pegwit",
                     "--stats", "--stats-json", str(path)]) == 0
        assert calls == [1]
        assert "predecode" in capsys.readouterr().out
        phases = json.loads(path.read_text())["phase_seconds"]
        assert phases["predecode"] > 0
