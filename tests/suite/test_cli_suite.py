"""The ``repro suite`` command family."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def spec_file(tmp_path, tiny_spec_doc):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(tiny_spec_doc))
    return path


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


class TestSuiteRun:
    def test_cold_then_warm(self, spec_file, store_dir, capsys):
        assert main(
            ["suite", "run", str(spec_file), "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "3 executed, 0 cached" in out
        assert main(
            ["suite", "run", str(spec_file), "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 executed, 3 cached" in out

    def test_stats_flag(self, spec_file, store_dir, capsys):
        assert main(
            ["suite", "run", str(spec_file), "--store", str(store_dir),
             "--stats"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "repro_suite_nodes_run_total 3" in lines
        assert any(
            line.startswith("repro_suite_solve_cache_saved_total ")
            for line in lines
        )

    def test_force(self, spec_file, store_dir, capsys):
        main(["suite", "run", str(spec_file), "--store", str(store_dir)])
        capsys.readouterr()
        assert main(
            ["suite", "run", str(spec_file), "--store", str(store_dir),
             "--force"]
        ) == 0
        assert "3 executed" in capsys.readouterr().out

    def test_bad_spec_file(self, tmp_path, store_dir):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"suite": "s", "cases": []}))
        with pytest.raises(SystemExit, match="non-empty 'cases'"):
            main(["suite", "run", str(bad), "--store", str(store_dir)])

    def test_bad_workers(self, spec_file, store_dir):
        with pytest.raises(SystemExit, match="--workers"):
            main(["suite", "run", str(spec_file), "--store", str(store_dir),
                  "--workers", "0"])

    def test_trace_flag_writes_spans(self, spec_file, store_dir, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["suite", "run", str(spec_file), "--store", str(store_dir),
             "--trace", str(trace)]
        ) == 0
        data = json.loads(trace.read_text())
        events = data["traceEvents"] if isinstance(data, dict) else data
        names = {e.get("name") for e in events}
        assert "suite.run" in names and "suite.node" in names


class TestSuiteStatus:
    def test_before_and_after(self, spec_file, store_dir, capsys):
        assert main(
            ["suite", "status", str(spec_file), "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 cached" in out and "3 to run" in out
        main(["suite", "run", str(spec_file), "--store", str(store_dir)])
        capsys.readouterr()
        assert main(
            ["suite", "status", str(spec_file), "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "3 cached" in out and "0 to run" in out


class TestSuiteExplain:
    def test_all_nodes(self, spec_file, store_dir, capsys):
        main(["suite", "run", str(spec_file), "--store", str(store_dir)])
        capsys.readouterr()
        assert main(
            ["suite", "explain", str(spec_file), "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "collect:base" in out and "eval:base" in out

    def test_single_node(self, spec_file, store_dir, capsys):
        main(["suite", "run", str(spec_file), "--store", str(store_dir)])
        capsys.readouterr()
        assert main(
            ["suite", "explain", str(spec_file), "--store", str(store_dir),
             "--node", "collect:base"]
        ) == 0
        out = capsys.readouterr().out
        assert "artifact:" in out

    def test_unknown_node(self, spec_file, store_dir):
        with pytest.raises(SystemExit, match="no node"):
            main(["suite", "explain", str(spec_file), "--store",
                  str(store_dir), "--node", "collect:nope"])


class TestSuiteGC:
    def test_gc_after_edit(self, tmp_path, tiny_spec_doc, store_dir, capsys):
        spec = tmp_path / "suite.json"
        spec.write_text(json.dumps(tiny_spec_doc))
        main(["suite", "run", str(spec), "--store", str(store_dir)])
        tiny_spec_doc["cases"][0]["seed"] = 7
        spec.write_text(json.dumps(tiny_spec_doc))
        main(["suite", "run", str(spec), "--store", str(store_dir)])
        capsys.readouterr()
        assert main(
            ["suite", "gc", str(spec), "--store", str(store_dir), "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 3 node manifest(s)" in out
        assert main(
            ["suite", "gc", str(spec), "--store", str(store_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 3 node manifest(s)" in out
        # Survivors still give a zero-node warm run.
        assert main(
            ["suite", "run", str(spec), "--store", str(store_dir)]
        ) == 0
        assert "0 executed, 3 cached" in capsys.readouterr().out
