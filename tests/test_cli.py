"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import _serve_until_interrupted, build_parser, main
from repro.core.fitstats import FitStats
from repro.obs import samples_text
from repro.obs.collector import CollectorServer
from repro.registry import ModelRegistry
from repro.registry.server import RegistryServer
from repro.serve.metrics import ServingMetrics
from repro.sim.solve_cache import EngineStats
from repro.suite.stats import SuiteStats

_SHARED_FLAGS = {"--trace", "--otlp", "--trace-collector", "--stats"}
_TRACING = {"--trace", "--otlp", "--trace-collector"}


def _subcommand(path):
    parser = build_parser()
    for name in path:
        (subparsers,) = (
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return parser


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        ("command", "flags"),
        [
            ("machines", set()),
            ("apps", set()),
            ("baseline", set()),
            ("collect", _TRACING | {"--stats"}),
            ("train", _TRACING),
            ("evaluate", _TRACING | {"--stats"}),
            ("predict", set()),
            ("serve", _TRACING),
            ("registry push", set()),
            ("registry list", set()),
            ("registry show", set()),
            ("registry serve", set()),
            ("registry gc", set()),
            ("registry tombstone", set()),
            ("registry pull", set()),
            ("sched serve", _TRACING),
            ("sched submit", set()),
            ("sched status", set()),
            ("suite run", _TRACING | {"--stats"}),
            ("suite status", set()),
            ("suite explain", set()),
            ("suite gc", set()),
            ("table", set()),
            ("figure", set()),
            ("report", set()),
            ("obs summary", set()),
            # The collector's own --otlp: write the collected spans on exit.
            ("obs collector", {"--otlp"}),
        ],
    )
    def test_shared_flags_per_subcommand(self, command, flags):
        parser = _subcommand(command.split())
        accepted = {
            option for action in parser._actions
            for option in action.option_strings
        }
        assert accepted & _SHARED_FLAGS == flags


class TestInspectionCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "e5649" in out and "e5-2697v2" in out
        assert "12MB" in out and "30MB" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "canneal" in out and "ep" in out
        assert out.count("\n") >= 12

    def test_apps_unknown_machine(self):
        with pytest.raises(SystemExit, match="unknown processor"):
            main(["apps", "--machine", "i9"])

    def test_baseline(self, capsys):
        assert main(["baseline", "--app", "ep", "--machine", "e5649"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 9  # title + header + rule + 6 P-states + final
        assert "2.530" in out and "1.600" in out

    def test_baseline_unknown_app(self):
        with pytest.raises(SystemExit, match="unknown application"):
            main(["baseline", "--app", "doom"])


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    code = main(
        [
            "collect",
            "--machine", "e5649",
            "-o", str(path),
            "--targets", "canneal,sp,ep",
            "--co-apps", "cg,ep",
            "--counts", "1,3,5",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_json(dataset_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    code = main(
        [
            "train",
            "--data", str(dataset_csv),
            "--model", "linear",
            "--features", "d",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


class TestPipelineCommands:
    def test_collect_output(self, dataset_csv, capsys):
        text = dataset_csv.read_text()
        # 6 pstates x 3 targets x 2 co-apps x 3 counts = 108 rows (+header)
        assert len(text.strip().splitlines()) == 109

    def test_collect_bad_counts(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid counts"):
            main(["collect", "-o", str(tmp_path / "x.csv"), "--counts", "1,a"])

    def test_collect_overfull_counts(self, tmp_path):
        with pytest.raises(SystemExit, match="at most 5"):
            main(["collect", "-o", str(tmp_path / "x.csv"), "--counts", "9"])

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--counts", "0"], "counts: .* must be >= 1"),
            (["--counts", "3,3"], "counts: .* only once"),
        ],
        ids=["zero", "repeated"],
    )
    def test_collect_degenerate_counts(self, tmp_path, capsys, flags, message):
        path = tmp_path / "x.csv"
        argv = ["collect", "-o", str(path), "--targets", "ep", "--co-apps", "cg"]
        with pytest.raises(SystemExit, match=f"^error: {message}") as exc:
            main(argv + flags)
        assert exc.value.code != 0
        assert not path.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--targets", "--co-apps"])
    def test_collect_repeated_app(self, tmp_path, capsys, flag):
        path = tmp_path / "x.csv"
        argv = ["collect", "-o", str(path), "--counts", "1",
                "--targets", "sp", "--co-apps", "cg", flag, "ep,ep"]
        name = flag[2:].replace("-", "_")
        with pytest.raises(SystemExit, match=f"^error: {name}: .* only once") as exc:
            main(argv)
        assert "\n" not in exc.value.code
        assert not path.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_collect_bad_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="workers"):
            main(["collect", "-o", str(tmp_path / "x.csv"), "--workers", "0"])

    def test_collect_parallel_with_stats(self, dataset_csv, tmp_path, capsys):
        path = tmp_path / "parallel.csv"
        code = main(
            [
                "collect",
                "--machine", "e5649",
                "-o", str(path),
                "--targets", "canneal,sp,ep",
                "--co-apps", "cg,ep",
                "--counts", "1,3,5",
                "--workers", "2",
                "--stats",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        # 108 co-location scenarios plus 4 apps' baselines at 6 P-states.
        assert "repro_engine_solves_total 132" in lines
        assert "repro_engine_solve_iterations_count 132" in lines
        # Any worker count must reproduce the serial dataset bit-for-bit.
        assert path.read_text() == dataset_csv.read_text()

    def test_train_output(self, model_json, capsys):
        payload = json.loads(model_json.read_text())
        assert payload["kind"] == "linear"
        assert payload["feature_set"] == "D"

    def test_train_missing_data(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read dataset"):
            main(["train", "--data", "/nonexistent.csv", "-o", str(tmp_path / "m.json")])

    def test_train_bad_feature_set(self, dataset_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["train", "--data", str(dataset_csv), "--features", "Z",
                 "-o", str(tmp_path / "m.json")]
            )

    def test_predict(self, model_json, capsys):
        code = main(
            [
                "predict",
                "--model", str(model_json),
                "--target", "canneal",
                "--co-apps", "cg,cg,cg",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted with 3 co-runner(s)" in out
        assert "x baseline" in out

    def test_predict_solo(self, model_json, capsys):
        assert main(["predict", "--model", str(model_json), "--target", "ep"]) == 0
        assert "0 co-runner(s)" in capsys.readouterr().out

    def test_predict_bad_frequency(self, model_json):
        with pytest.raises(SystemExit, match="no P-state"):
            main(
                ["predict", "--model", str(model_json), "--target", "ep",
                 "--frequency", "9.9"]
            )

    def test_predict_corrupt_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="cannot load model"):
            main(["predict", "--model", str(bad), "--target", "ep"])

    def test_evaluate(self, dataset_csv, capsys):
        code = main(
            ["evaluate", "--data", str(dataset_csv), "--repetitions", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linear" in out and "neural" in out
        assert out.count("\n") >= 14  # 12 model rows + header

    @pytest.mark.parametrize(
        "command, rows, message",
        [
            (["train", "--model", "neural"], 1,
             "error: cannot fit model: need at least two training samples"),
            (["evaluate"], 3,
             "error: cannot evaluate dataset: need at least four samples"),
        ],
    )
    def test_degenerate_dataset_is_one_error_line(
        self, dataset_csv, tmp_path, command, rows, message
    ):
        tiny = tmp_path / "tiny.csv"
        lines = dataset_csv.read_text().splitlines()
        tiny.write_text("\n".join(lines[: 1 + rows]) + "\n")
        args = command + ["--data", str(tiny), "--verify-manifest", "skip"]
        if command[0] == "train":
            args += ["-o", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit, match=message):
            main(args)


class TestStatsOutput:
    """``--stats`` prints its run's record as exposition samples."""

    @pytest.mark.parametrize(
        ("command", "record_type"),
        [
            ("collect", EngineStats),
            ("evaluate", FitStats),
            ("suite run", SuiteStats),
        ],
    )
    def test_stats_lines_are_the_records_samples(
        self, command, record_type, dataset_csv, tmp_path, monkeypatch, capsys
    ):
        if command == "collect":
            argv = ["collect", "-o", str(tmp_path / "d.csv"),
                    "--targets", "ep", "--co-apps", "cg", "--counts", "1,2"]
        elif command == "evaluate":
            data = tmp_path / "d.csv"
            rows = dataset_csv.read_text().splitlines()[:25]
            data.write_text("\n".join(rows) + "\n")
            argv = ["evaluate", "--data", str(data), "--repetitions", "1",
                    "--verify-manifest", "skip"]
        else:
            spec = tmp_path / "suite.json"
            spec.write_text(json.dumps({
                "suite": "tiny",
                "defaults": {"machine": "e5649", "repetitions": 1,
                             "model_kinds": ["linear"], "feature_sets": ["F"]},
                "cases": [{"name": "base", "targets": ["cg", "sp"],
                           "co_apps": ["ep", "lu"], "counts": [1, 2, 3],
                           "frequencies_ghz": [2.53, 1.6]}],
            }))
            argv = ["suite", "run", str(spec), "--store", str(tmp_path / "s")]
        rendered = []
        render = record_type.render_prometheus

        def spy(record):
            rendered.append(render(record))
            return rendered[-1]

        monkeypatch.setattr(record_type, "render_prometheus", spy)
        assert main(argv + ["--stats"]) == 0
        out = capsys.readouterr().out.splitlines()
        (exposition,) = rendered
        samples = [
            line for line in exposition.splitlines()
            if not line.startswith("#") and "_bucket{" not in line
        ]
        assert out[-len(samples):] == samples
        assert not any(line.startswith("#") or "_bucket" in line for line in out)

    def test_server_prints_its_record_at_shutdown(self, capsys, tmp_path):
        class Server:
            def __init__(self, metrics):
                self.metrics = metrics
                self.stopped = False

            async def start(self):
                pass

            async def serve_forever(self):
                pass  # Ctrl-C cancels the serve loop, which then returns

            async def stop(self):
                self.stopped = True

        metrics = ServingMetrics()
        metrics.record_request("/v1/predict", 200, 0.002)
        server = Server(metrics)
        _serve_until_interrupted(server, lambda: "listening")
        lines = capsys.readouterr().out.splitlines()
        assert server.stopped
        assert lines[0] == "listening"
        assert lines[1:] == samples_text(metrics.render_prometheus()).splitlines()
        assert (
            'repro_serve_requests_total{endpoint="/v1/predict",status="200"} 1'
            in lines
        )
        assert not any("_bucket" in line for line in lines)
        # Every server keeps a request record, the span collector's
        # included; only the prediction server's has prediction families.
        for server in (CollectorServer(), RegistryServer(ModelRegistry(tmp_path))):
            server.serve_forever = Server(None).serve_forever
            server.metrics.record_request("/healthz", 200, 0.002)
            _serve_until_interrupted(server, lambda: "listening")
            lines = capsys.readouterr().out.splitlines()
            assert lines[1:] == samples_text(
                server.metrics.render_prometheus()
            ).splitlines()
            assert (
                f'{server.metrics_prefix}_requests_total{{endpoint="/healthz",'
                f'status="200"}} 1'
            ) in lines
            assert not any(
                unexpected in line
                for line in lines
                for unexpected in ("_predictions_total", "_model_cache_",
                                   "_batch_size", "_phase_latency", "NaN")
            )


class TestServingCommands:
    @pytest.fixture(scope="class")
    def ensemble_json(self, dataset_csv, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "ensemble.json"
        code = main(
            [
                "train",
                "--data", str(dataset_csv),
                "--model", "linear",
                "--features", "d",
                "--ensemble", "3",
                "-o", str(path),
            ]
        )
        assert code == 0
        return path

    @pytest.fixture(scope="class")
    def registry_dir(self, ensemble_json, model_json, tmp_path_factory):
        registry = tmp_path_factory.mktemp("cli") / "registry"
        assert main(
            ["registry", "push", "--registry", str(registry),
             "--name", "band", "--model", str(ensemble_json)]
        ) == 0
        assert main(
            ["registry", "push", "--registry", str(registry),
             "--name", "point", "--model", str(model_json)]
        ) == 0
        return registry

    def test_train_ensemble_output(self, ensemble_json, capsys):
        payload = json.loads(ensemble_json.read_text())
        assert payload["artifact"] == "ensemble"
        assert len(payload["members"]) == 3

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_serve_rejects_bad_workers(self, tmp_path, monkeypatch, workers):
        def serve_forever(_server, _banner):
            raise AssertionError("serve started a server")

        monkeypatch.setattr("repro.cli._serve_until_interrupted", serve_forever)
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(
                ["serve", "--registry", str(tmp_path), "--workers", workers,
                 "--port", "0"]
            )

    def test_train_ensemble_too_small(self, dataset_csv, tmp_path):
        with pytest.raises(SystemExit, match="at least 2"):
            main(
                ["train", "--data", str(dataset_csv), "--ensemble", "1",
                 "-o", str(tmp_path / "m.json")]
            )

    def test_predict_interval(self, ensemble_json, capsys):
        code = main(
            [
                "predict",
                "--model", str(ensemble_json),
                "--target", "canneal",
                "--co-apps", "cg,cg",
                "--interval",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ensemble disagreement" in out
        assert "2-sigma band" in out

    def test_predict_interval_needs_ensemble(self, model_json):
        with pytest.raises(SystemExit, match="needs an ensemble"):
            main(
                ["predict", "--model", str(model_json), "--target", "ep",
                 "--interval"]
            )

    def test_registry_push_reports_ref(self, registry_dir, model_json, capsys):
        assert main(
            ["registry", "push", "--registry", str(registry_dir),
             "--name", "point", "--model", str(model_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "pushed point@2" in out
        assert "sha256" in out

    def test_registry_push_bad_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit, match="cannot load model"):
            main(
                ["registry", "push", "--registry", str(tmp_path / "r"),
                 "--name", "m", "--model", str(bad)]
            )

    def test_registry_list(self, registry_dir, capsys):
        assert main(["registry", "list", "--registry", str(registry_dir)]) == 0
        out = capsys.readouterr().out
        assert "band@1" in out and "point@1" in out
        assert "ensemble" in out and "predictor" in out

    def test_registry_list_empty(self, tmp_path, capsys):
        assert main(["registry", "list", "--registry", str(tmp_path / "r")]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_registry_show(self, registry_dir, capsys):
        assert main(
            ["registry", "show", "band@1", "--registry", str(registry_dir)]
        ) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["name"] == "band"
        assert manifest["artifact"] == "ensemble"
        assert len(manifest["content_hash"]) == 64

    def test_registry_show_unknown(self, registry_dir):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["registry", "show", "ghost", "--registry", str(registry_dir)])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--registry", "/tmp/r"])
        assert args.port == 8391
        assert args.max_batch == 32
        assert args.max_wait_ms == 2.0

    def test_registry_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry"])


class TestPaperArtifacts:
    @pytest.mark.parametrize("number", [1, 2, 4, 5])
    def test_static_tables(self, number, capsys):
        assert main(["table", str(number)]) == 0
        assert f"Table" in capsys.readouterr().out

    def test_unknown_table(self):
        with pytest.raises(SystemExit, match="no Table 9"):
            main(["table", "9"])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit, match="no Figure 7"):
            main(["figure", "7"])


class TestReport:
    def test_report_collates_artifacts(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1_x.txt").write_text("TABLE ONE\n")
        (results / "fig1_y.txt").write_text("FIGURE ONE\n")
        (results / "ablation_z.txt").write_text("ABLATION\n")
        assert main(["report", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        # Tables come before figures before ablations.
        assert out.index("TABLE ONE") < out.index("FIGURE ONE") < out.index("ABLATION")
        assert "3 artifacts" in out

    def test_report_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1_x.txt").write_text("CONTENT\n")
        out_file = tmp_path / "report.txt"
        assert main(["report", "--results", str(results), "-o", str(out_file)]) == 0
        assert "CONTENT" in out_file.read_text()

    def test_report_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no results directory"):
            main(["report", "--results", str(tmp_path / "absent")])

    def test_report_empty_dir(self, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        with pytest.raises(SystemExit, match="no artifacts"):
            main(["report", "--results", str(empty)])


class TestObsCommands:
    def _write_trace(self, tmp_path):
        from repro.obs.trace import Tracer

        tracer = Tracer(service="cli-test")
        with tracer.span("outer", machine="e5649"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        return path

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["obs"])

    def test_summary_renders_tree(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert main(["obs", "summary", str(path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "trace summary: 2 spans" in out
        assert "machine=e5649" in out

    def test_summary_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["obs", "summary", str(tmp_path / "absent.json")])

    def test_summary_rejects_non_trace(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"traceEvents": []}')
        with pytest.raises(SystemExit, match="no complete-span"):
            main(["obs", "summary", str(bogus)])

    def test_trace_flag_exports_and_uninstalls(self, tmp_path, capsys):
        from repro.obs.trace import NullTracer, get_tracer

        trace_path = tmp_path / "collect.json"
        assert main([
            "collect", "--machine", "e5649",
            "--targets", "ep", "--co-apps", "ep", "--counts", "1",
            "-o", str(tmp_path / "ds.csv"),
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace span(s) to {trace_path}" in out
        assert isinstance(get_tracer(), NullTracer)
        payload = json.loads(trace_path.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e.get("ph") == "X"}
        # A sweep goes through the stacked solver.
        assert "collect.dataset" in names and "engine.solve_batch" in names


class TestRegistryLifecycleCLI:
    """The registry lifecycle commands: gc, tombstone, pull, remote backends."""

    @pytest.fixture
    def store_dir(self, model_json, tmp_path):
        store = tmp_path / "store"
        for _ in range(3):
            assert main(
                ["registry", "push", "--registry", str(store),
                 "--name", "m", "--model", str(model_json)]
            ) == 0
        return store

    def test_gc_dry_run(self, store_dir, capsys):
        capsys.readouterr()
        assert main(
            ["registry", "gc", "--registry", str(store_dir),
             "--keep", "1", "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "would remove 2 version(s)" in out
        assert "would remove m@1" in out and "would remove m@2" in out
        assert (store_dir / "m" / "1" / "model.json").is_file()

    def test_gc_removes_old_versions(self, store_dir, capsys):
        capsys.readouterr()
        assert main(
            ["registry", "gc", "--registry", str(store_dir), "--keep", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 1 version(s)" in out and "removed m@1" in out
        assert not (store_dir / "m" / "1").exists()
        assert (store_dir / "m" / "3" / "model.json").is_file()

    def test_gc_rejects_zero_keep(self, store_dir):
        with pytest.raises(SystemExit, match="at least 1"):
            main(["registry", "gc", "--registry", str(store_dir), "--keep", "0"])

    def test_tombstone_blocks_and_undo_restores(self, store_dir, capsys):
        capsys.readouterr()
        assert main(
            ["registry", "tombstone", "m@3", "--registry", str(store_dir),
             "--reason", "bad calibration"]
        ) == 0
        out = capsys.readouterr().out
        assert "tombstoned m@3 (bad calibration)" in out
        assert "bytes retained" in out
        assert main(
            ["registry", "show", "m", "--registry", str(store_dir)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 2
        with pytest.raises(SystemExit, match="tombstoned"):
            main(["registry", "show", "m@3", "--registry", str(store_dir)])
        assert main(
            ["registry", "tombstone", "m@3", "--registry", str(store_dir),
             "--undo"]
        ) == 0
        assert "untombstoned m@3" in capsys.readouterr().out
        assert main(
            ["registry", "show", "m", "--registry", str(store_dir)]
        ) == 0
        assert json.loads(capsys.readouterr().out)["version"] == 3

    def test_tombstone_needs_pinned_ref(self, store_dir):
        with pytest.raises(SystemExit, match="explicit name@version"):
            main(["registry", "tombstone", "m", "--registry", str(store_dir)])

    def test_pull_caches_and_remote_list(self, store_dir, tmp_path, capsys):
        from repro.registry import ModelRegistry, RegistryServerThread

        cache = tmp_path / "cache"
        with RegistryServerThread(ModelRegistry(store_dir)) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            capsys.readouterr()
            assert main(
                ["registry", "pull", "m@2", "--registry-url", url,
                 "--cache", str(cache)]
            ) == 0
            out = capsys.readouterr().out
            assert "pulled m@2" in out and f"cached under {cache}" in out
            assert main(
                ["registry", "list", "--registry-url", url,
                 "--cache", str(cache)]
            ) == 0
            out = capsys.readouterr().out
            assert "m@1" in out and "m@3" in out and url in out

    def test_remote_push_with_token(
        self, store_dir, model_json, tmp_path, capsys
    ):
        from repro.registry import ModelRegistry, RegistryServerThread

        with RegistryServerThread(
            ModelRegistry(store_dir), token="s3cret"
        ) as handle:
            url = f"http://127.0.0.1:{handle.port}"
            capsys.readouterr()
            assert main(
                ["registry", "push", "--registry-url", url,
                 "--cache", str(tmp_path / "cache"), "--token", "s3cret",
                 "--name", "m", "--model", str(model_json)]
            ) == 0
            assert "pushed m@4" in capsys.readouterr().out
        assert (store_dir / "m" / "4" / "model.json").is_file()

    def test_pull_requires_remote_backend(self, store_dir):
        with pytest.raises(SystemExit, match="registry-url"):
            main(
                ["registry", "pull", "m@1", "--registry", str(store_dir)]
            )

    def test_backend_flags_are_exclusive(self, store_dir):
        with pytest.raises(SystemExit, match="not both"):
            main(
                ["registry", "list", "--registry", str(store_dir),
                 "--registry-url", "http://127.0.0.1:1"]
            )

    def test_registry_url_needs_cache(self):
        with pytest.raises(SystemExit, match="--cache"):
            main(["registry", "list", "--registry-url", "http://127.0.0.1:1"])

    def test_some_backend_is_required(self):
        with pytest.raises(SystemExit, match="pass --registry"):
            main(["registry", "list"])

    def test_serve_parser_new_flags(self):
        args = build_parser().parse_args(["serve", "--registry", "/tmp/r"])
        assert args.max_backlog is None and args.hot_reload is None
        args = build_parser().parse_args(
            ["serve", "--registry-url", "http://h:1", "--cache", "/tmp/c",
             "--max-backlog", "64", "--hot-reload", "5"]
        )
        assert args.max_backlog == 64 and args.hot_reload == 5.0

    def test_registry_serve_parser_defaults(self):
        args = build_parser().parse_args(
            ["registry", "serve", "--registry", "/tmp/r"]
        )
        assert args.port == 8100 and args.token is None
