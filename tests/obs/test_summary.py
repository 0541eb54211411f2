"""Offline trace analysis: loading, tree reconstruction, rendering."""

import json

import pytest

from repro.obs.summary import (
    load_trace,
    render_summary,
    self_time_us,
    span_forest,
)
from repro.obs.trace import Tracer


def _capture(tmp_path):
    """A small real trace: request -> (solve, solve), plus a lone root."""
    tracer = Tracer(service="summary-test")
    with tracer.span("serve.request", request_id="req-42"):
        with tracer.span("engine.solve", iterations=17):
            pass
        with tracer.span("engine.solve", iterations=23):
            pass
    with tracer.span("fit.neural"):
        pass
    path = tmp_path / "trace.json"
    tracer.export_chrome(path)
    return path


class TestLoadTrace:
    def test_loads_envelope_and_filters_metadata(self, tmp_path):
        events = load_trace(_capture(tmp_path))
        assert [e["name"] for e in events] == [
            "engine.solve", "engine.solve", "serve.request", "fit.neural",
        ]
        assert all(e["ph"] == "X" for e in events)

    def test_accepts_bare_event_array(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([
            {"name": "a", "ph": "X", "ts": 0, "dur": 5, "args": {}},
        ]))
        assert len(load_trace(path)) == 1

    def test_rejects_non_trace_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(path)
        path.write_text('{"traceEvents": []}')
        with pytest.raises(ValueError, match="no complete-span"):
            load_trace(path)


class TestSpanForest:
    def test_reconstructs_nesting(self, tmp_path):
        roots = span_forest(load_trace(_capture(tmp_path)))
        assert [r.name for r in roots] == ["serve.request", "fit.neural"]
        request = roots[0]
        assert [c.name for c in request.children] == [
            "engine.solve", "engine.solve",
        ]
        assert request.attributes == {"request_id": "req-42"}
        assert request.children[0].attributes["iterations"] == 17
        assert request.children[0].start_us <= request.children[1].start_us
        assert request.duration_ms >= 0.0

    def test_orphans_become_roots(self):
        events = [
            {"name": "child", "ph": "X", "ts": 1.0, "dur": 2.0,
             "args": {"span_id": "b", "parent_id": "missing", "trace_id": "t"}},
        ]
        (root,) = span_forest(events)
        assert root.name == "child"


def _span(name, ts, dur, span_id, parent_id=None):
    args = {"trace_id": "t", "span_id": span_id}
    if parent_id is not None:
        args["parent_id"] = parent_id
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "args": args}


class TestSelfTime:
    def test_childless_span_is_all_self(self):
        (root,) = span_forest([_span("a", 0.0, 40.0, "a")])
        assert self_time_us(root) == 40.0

    def test_overlapping_children_count_once(self):
        # Parent [0, 100); children [10, 40) and [30, 60) overlap on
        # [30, 40), so together they cover [10, 60): 50 us, not 60.
        (root,) = span_forest([
            _span("parent", 0.0, 100.0, "p"),
            _span("child", 10.0, 30.0, "c1", "p"),
            _span("child", 30.0, 30.0, "c2", "p"),
        ])
        assert self_time_us(root) == 50.0

    def test_child_outrunning_its_parent_is_clipped(self):
        # Parent [0, 100); an async child [80, 150) only covers [80, 100)
        # and one starting before the parent (clock skew) only [0, 5).
        (root,) = span_forest([
            _span("parent", 0.0, 100.0, "p"),
            _span("late", 80.0, 70.0, "c1", "p"),
            _span("early", -10.0, 15.0, "c2", "p"),
        ])
        assert self_time_us(root) == 75.0

    def test_children_covering_everything_leave_zero(self):
        (root,) = span_forest([
            _span("parent", 0.0, 100.0, "p"),
            _span("child", 0.0, 60.0, "c1", "p"),
            _span("child", 50.0, 70.0, "c2", "p"),
        ])
        assert self_time_us(root) == 0.0

    def test_summary_reports_self_ms_per_name(self):
        events = [
            _span("parent", 0.0, 100.0, "p"),
            _span("child", 10.0, 30.0, "c1", "p"),
            _span("child", 30.0, 30.0, "c2", "p"),
        ]
        lines = render_summary(events).splitlines()
        header = next(line for line in lines if line.startswith("span "))
        assert header.split()[:5] == ["span", "count", "total", "ms", "self"]
        rows = {
            line.split()[0]: line.split()
            for line in lines
            if line.startswith(("parent ", "child "))
        }
        # name, count, total, self, mean, max (ms)
        assert rows["parent"][1:4] == ["1", "0.100", "0.050"]
        assert rows["child"][1:4] == ["2", "0.060", "0.060"]


class TestRenderSummary:
    def test_aggregate_and_tree(self, tmp_path):
        events = load_trace(_capture(tmp_path))
        text = render_summary(events)
        assert "trace summary: 4 spans across 2 trace(s)" in text
        assert "engine.solve" in text
        assert "request_id=req-42" in text  # attrs shown on the tree
        # engine.solve aggregates both children into one row.
        (solve_row,) = [
            line for line in text.splitlines()
            if line.startswith("engine.solve")
        ]
        assert solve_row.split()[1] == "2"

    def test_top_caps_aggregate_rows(self, tmp_path):
        events = load_trace(_capture(tmp_path))
        text = render_summary(events, top=1)
        assert "more span name(s)" in text

    def test_tree_budget_caps_output(self, tmp_path):
        events = load_trace(_capture(tmp_path))
        text = render_summary(events, tree_spans=2)
        assert "2 more span(s) not shown" in text

    def test_bad_limits_rejected(self, tmp_path):
        events = load_trace(_capture(tmp_path))
        with pytest.raises(ValueError):
            render_summary(events, top=0)
        with pytest.raises(ValueError):
            render_summary(events, tree_spans=0)
