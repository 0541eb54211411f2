"""Span streaming: the sender's shed-don't-block contract, end to end."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.obs.collector import CollectorThread
from repro.obs.stream import SpanSender, StreamingTracer, parse_endpoint
from repro.obs.summary import load_trace, span_forest


@pytest.fixture
def collector():
    thread = CollectorThread().start()
    yield thread
    thread.stop()


def _wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestParseEndpoint:
    @pytest.mark.parametrize(
        "endpoint",
        ["127.0.0.1:8600", "http://127.0.0.1:8600", "http://127.0.0.1:8600/",
         "https://obs.example:443/v1/spans"],
    )
    def test_accepted_forms(self, endpoint):
        host, port = parse_endpoint(endpoint)
        assert host and isinstance(port, int)

    @pytest.mark.parametrize("endpoint", ["", "nohost", "http://nop:port"])
    def test_rejected_forms(self, endpoint):
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint(endpoint)


class TestSpanSender:
    def test_batches_reach_collector_with_resource(self, collector):
        with SpanSender(
            collector.endpoint, resource={"service": "unit", "worker": 3}
        ) as sender:
            assert sender.resource["pid"]  # filled in automatically
            for i in range(5):
                assert sender.enqueue(
                    {"name": f"s{i}", "trace_id": "t", "span_id": f"s{i}",
                     "start_unix_s": 1.0, "end_unix_s": 2.0}
                )
            sender.flush()
            assert sender.sent == 5
            assert sender.send_errors == 0
        records = collector.records()
        assert len(records) == 5
        assert all(r["resource"]["service"] == "unit" for r in records)
        assert collector.server.batches.get("unit", 0) >= 1

    def test_enqueue_after_close_sheds_and_counts(self, collector):
        sender = SpanSender(collector.endpoint)
        sender.close()
        assert sender.enqueue({"name": "late"}) is False
        assert sender.dropped == 1

    def test_shed_counts_reported_to_collector(self, collector):
        with SpanSender(
            collector.endpoint, resource={"service": "sheddy"}
        ) as sender:
            sender.dropped += 3  # as if the queue had been full three times
            sender.enqueue({"name": "survivor"})
            sender.flush()
        assert collector.server.client_dropped == 3

    def test_dead_collector_costs_spans_not_blocking(self):
        # A bound-then-closed socket yields a port that refuses connections.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with SpanSender(f"127.0.0.1:{port}", flush_interval_s=0.01) as sender:
            started = time.perf_counter()
            assert sender.enqueue({"name": "doomed"})  # hot path never blocks
            assert time.perf_counter() - started < 1.0
            assert _wait_for(lambda: sender.send_errors >= 1)
        assert sender.sent == 0


class TestStreamingTracer:
    def test_finished_spans_stream_and_stay_local(self, collector):
        tracer = StreamingTracer(
            SpanSender(collector.endpoint, resource={"service": "svc"})
        )
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        tracer.flush()
        # Local ring retained both, collector received both.
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]
        records = {r["name"]: r for r in collector.records()}
        assert set(records) == {"inner", "outer"}
        # Parent linkage survives the wire.
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["inner"]["trace_id"] == records["outer"]["trace_id"]
        tracer.close()

    def test_service_defaults_from_sender_resource(self, collector):
        tracer = StreamingTracer(
            SpanSender(collector.endpoint, resource={"service": "router"})
        )
        assert tracer.service == "router"
        tracer.close()

    def test_ingested_spans_are_not_restreamed(self, collector):
        tracer = StreamingTracer(SpanSender(collector.endpoint))
        ingested = tracer.ingest(
            [{"name": "remote", "trace_id": "t", "span_id": "s",
              "start_unix_s": 1.0, "end_unix_s": 2.0,
              "resource": {"service": "worker", "pid": 123}}]
        )
        tracer.flush()
        tracer.close()
        assert ingested == 1
        assert [s.name for s in tracer.spans()] == ["remote"]
        # The origin process already streamed it; re-sending would
        # duplicate every span a parent both ingests and streams.
        assert collector.records() == []


def _chrome_spans(path) -> list[dict]:
    events = json.loads(path.read_text())["traceEvents"]
    return [
        {key: e[key] for key in ("name", "ts", "dur", "pid", "tid", "args")}
        for e in events
        if e["ph"] == "X"
    ]


def _tree(nodes) -> list:
    """A span forest's shape: names, attributes and children, ids aside.

    The OTLP reader adds each span's ``service`` to its attributes, so
    that one is left out.
    """
    return sorted(
        (
            node.name,
            sorted((k, v) for k, v in node.attributes.items() if k != "service"),
            _tree(node.children),
        )
        for node in nodes
    )


class TestOneChromeWriter:
    def test_tracer_and_collector_exports_agree(self, collector, tmp_path):
        # The sender names its pid, so the two Chrome files agree on
        # every field, pid included.
        tracer = StreamingTracer(
            SpanSender(collector.endpoint, resource={"service": "unit"})
        )
        with tracer.span("outer", machine="e5649"):
            with tracer.span("inner", payload=[1, 2]):
                pass
            with tracer.span("sibling"):
                pass
        tracer.flush()
        tracer.close()
        paths = {name: tmp_path / f"{name}.json" for name in ("local", "chrome", "otlp")}
        assert tracer.export_chrome(paths["local"]) == 3
        assert collector.export_chrome(paths["chrome"]) == 3
        assert collector.export_otlp(paths["otlp"]) == 3

        local = _chrome_spans(paths["local"])
        assert local == _chrome_spans(paths["chrome"])
        # Timestamps count from the earliest exported span.
        assert min(span["ts"] for span in local) == 0.0
        trees = [_tree(span_forest(load_trace(path))) for path in paths.values()]
        assert trees[0] == trees[1] == trees[2] == [
            (
                "outer",
                [("machine", "e5649")],
                [("inner", [("payload", "[1, 2]")], []), ("sibling", [], [])],
            )
        ]
