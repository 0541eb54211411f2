"""Incremental suite runs: skip, re-key, resume, and determinism."""

import copy

import pytest

from repro.obs import samples_text
from repro.suite import (
    ArtifactStore,
    SuiteRunner,
    SuiteStats,
    build_nodes,
    node_input_key,
    parse_suite,
)


def _blob_map(store: ArtifactStore) -> dict[str, bytes]:
    """Every stored artifact, keyed by node id, as raw bytes."""
    out = {}
    for key in store.node_keys():
        payload, manifest = store.read_node_payload(key)
        out[manifest.node_id] = payload
    return out


class TestDagShape:
    def test_nodes_per_case(self, tiny_suite):
        nodes = build_nodes(tiny_suite)
        assert [n.node_id for n in nodes] == [
            "collect:base",
            "train:base:linear-F",
            "eval:base",
        ]
        assert nodes[1].inputs == ("collect:base",)
        assert nodes[2].inputs == ("collect:base",)

    def test_key_needs_upstream_manifest(self, tiny_suite):
        nodes = build_nodes(tiny_suite)
        with pytest.raises(KeyError):
            node_input_key(nodes[1], {}, "1.0.0")

    def test_key_is_stable(self, tiny_suite):
        node = build_nodes(tiny_suite)[0]
        a = node_input_key(node, {}, "1.0.0")
        b = node_input_key(node, {}, "1.0.0")
        assert a == b and len(a) == 64

    def test_key_depends_on_library_version(self, tiny_suite):
        node = build_nodes(tiny_suite)[0]
        assert node_input_key(node, {}, "1.0.0") != node_input_key(
            node, {}, "2.0.0"
        )


class TestIncrementalRuns:
    def test_cold_run_executes_everything(self, runner):
        report = runner.run()
        assert report.ok
        assert report.executed == 3
        assert report.skipped == 0
        assert runner.stats.nodes_run == 3

    def test_warm_rerun_executes_zero_nodes(self, tiny_suite, store):
        SuiteRunner(tiny_suite, store).run()
        rerun = SuiteRunner(tiny_suite, store)
        report = rerun.run()
        assert report.ok
        assert report.executed == 0
        assert report.skipped == 3
        assert rerun.stats.nodes_run == 0
        assert rerun.stats.nodes_resumed == 3

    def test_warm_artifacts_bit_identical(self, tiny_suite, store, tmp_path):
        SuiteRunner(tiny_suite, store).run()
        first = _blob_map(store)
        other = ArtifactStore(tmp_path / "other")
        SuiteRunner(tiny_suite, other).run()
        assert _blob_map(other) == first

    def test_editing_one_case_reruns_only_that_case(
        self, two_case_spec_doc, store
    ):
        suite = parse_suite(two_case_spec_doc)
        SuiteRunner(suite, store).run()
        edited_doc = copy.deepcopy(two_case_spec_doc)
        for case in edited_doc["cases"]:
            if case["name"] == "other":
                case["counts"] = [1, 2]
        edited = parse_suite(edited_doc)
        report = SuiteRunner(edited, store).run()
        statuses = {r.node_id: r.status for r in report.results}
        assert statuses == {
            "collect:base": "cached",
            "train:base:linear-F": "cached",
            "eval:base": "cached",
            "collect:other": "run",
            "train:other:linear-F": "run",
            "eval:other": "run",
        }

    def test_downstream_reruns_when_dataset_changes(
        self, tiny_spec_doc, store
    ):
        suite = parse_suite(tiny_spec_doc)
        SuiteRunner(suite, store).run()
        edited_doc = copy.deepcopy(tiny_spec_doc)
        edited_doc["cases"][0]["seed"] = 7
        report = SuiteRunner(parse_suite(edited_doc), store).run()
        assert report.executed == 3  # collect re-keys, so train/eval do too

    def test_force_reexecutes_cached_nodes(self, tiny_suite, store):
        SuiteRunner(tiny_suite, store).run()
        report = SuiteRunner(tiny_suite, store, force=True).run()
        assert report.executed == 3
        assert report.skipped == 0

    def test_parallel_run_matches_serial(self, tiny_suite, store, tmp_path):
        SuiteRunner(tiny_suite, store, workers=1).run()
        other = ArtifactStore(tmp_path / "par")
        SuiteRunner(tiny_suite, other, workers=2).run()
        assert _blob_map(other) == _blob_map(store)

    def test_solve_cache_shared_across_runs(self, tiny_suite, store):
        first = SuiteRunner(tiny_suite, store)
        first.run()
        assert first.stats.solve_cache_entries_saved > 0
        assert store.solve_cache_path("e5649").is_file()
        # A force re-run must *load* the persisted solves.
        second = SuiteRunner(tiny_suite, store, force=True)
        second.run()
        assert second.stats.solve_cache_entries_loaded > 0


class TestFailureHandling:
    def test_failed_node_blocks_downstream_and_resumes(
        self, tiny_suite, store, monkeypatch
    ):
        broken = SuiteRunner(tiny_suite, store)
        monkeypatch.setattr(
            broken,
            "_execute_collect",
            lambda case: (_ for _ in ()).throw(RuntimeError("sim exploded")),
        )
        report = broken.run()
        statuses = {r.node_id: r.status for r in report.results}
        assert statuses["collect:base"] == "failed"
        assert statuses["train:base:linear-F"] == "blocked"
        assert statuses["eval:base"] == "blocked"
        assert not report.ok
        assert broken.stats.nodes_failed == 1
        # Nothing was committed, so a healthy runner does the whole chain.
        healthy = SuiteRunner(tiny_suite, store).run()
        assert healthy.ok and healthy.executed == 3

    def test_failure_detail_is_reported(self, tiny_suite, store, monkeypatch):
        broken = SuiteRunner(tiny_suite, store)
        monkeypatch.setattr(
            broken,
            "_execute_collect",
            lambda case: (_ for _ in ()).throw(RuntimeError("sim exploded")),
        )
        report = broken.run()
        failed = report.by_status("failed")[0]
        assert "sim exploded" in failed.detail
        assert "failed/blocked" in report.summary()


class TestPlanAndExplain:
    def test_plan_before_any_run(self, runner):
        rows = runner.plan()
        assert [(n.node_id, hit) for n, _, hit in rows] == [
            ("collect:base", False),
            ("train:base:linear-F", False),
            ("eval:base", False),
        ]
        # Downstream keys are unknowable before collect exists.
        assert rows[0][1] is not None
        assert rows[1][1] is None and rows[2][1] is None

    def test_plan_after_run_is_all_hits(self, tiny_suite, store):
        SuiteRunner(tiny_suite, store).run()
        rows = SuiteRunner(tiny_suite, store).plan()
        assert all(hit for _, _, hit in rows)
        assert all(key is not None for _, key, _ in rows)

    def test_explain_mentions_every_node(self, tiny_suite, store):
        SuiteRunner(tiny_suite, store).run()
        text = SuiteRunner(tiny_suite, store).explain()
        for node_id in ("collect:base", "train:base:linear-F", "eval:base"):
            assert node_id in text
        assert "cached" in text

    def test_explain_single_node_detail(self, tiny_suite, store):
        SuiteRunner(tiny_suite, store).run()
        text = SuiteRunner(tiny_suite, store).explain("eval:base")
        assert "artifact:" in text and "spec:" in text
        assert "collect:base" in text  # its input

    def test_explain_unknown_node(self, runner):
        with pytest.raises(ValueError, match="no node"):
            runner.explain("eval:nope")

    def test_gc_after_edit_drops_stale_chain(self, tiny_spec_doc, store):
        suite = parse_suite(tiny_spec_doc)
        SuiteRunner(suite, store).run()
        edited_doc = copy.deepcopy(tiny_spec_doc)
        edited_doc["cases"][0]["seed"] = 7
        edited = parse_suite(edited_doc)
        SuiteRunner(edited, store).run()
        assert len(store.node_keys()) == 6
        keep = SuiteRunner(edited, store).keep_keys()
        report = store.gc(keep)
        assert report.kept_nodes == 3
        assert len(report.removed_nodes) == 3
        # The surviving chain still resolves: zero-node re-run.
        rerun = SuiteRunner(edited, store).run()
        assert rerun.executed == 0


class TestStats:
    def test_stats_summary_counts(self, tiny_suite, store):
        stats = SuiteStats()
        SuiteRunner(tiny_suite, store, stats=stats).run()
        SuiteRunner(tiny_suite, store, stats=stats).run()
        assert stats.runs == 2
        assert stats.nodes_run == 3
        assert stats.nodes_skipped == 3
        assert stats.store_hits == 3
        assert stats.store_misses == 3
        lines = samples_text(stats.render_prometheus()).splitlines()
        assert "repro_suite_nodes_run_total 3" in lines
        assert "repro_suite_store_hits_total 3" in lines

    def test_global_aggregate_mirrors(self, tiny_suite, store):
        from repro.suite import GLOBAL_SUITE_STATS

        before = GLOBAL_SUITE_STATS.nodes_run
        SuiteRunner(tiny_suite, store).run()
        assert GLOBAL_SUITE_STATS.nodes_run == before + 3

    def test_prometheus_rendering(self):
        stats = SuiteStats(nodes_run=4, nodes_skipped=2, store_hits=2)
        text = stats.render_prometheus()
        assert "repro_suite_nodes_run_total 4" in text
        assert "repro_suite_nodes_skipped_total 2" in text
        assert "# TYPE repro_suite_store_hits_total counter" in text

    def test_registry_scrape_includes_suite_family(self):
        from repro.obs import MetricsRegistry, install_default_sources

        registry = install_default_sources(MetricsRegistry())
        text = registry.render()
        assert "repro_suite_nodes_run_total" in text
