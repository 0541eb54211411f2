"""The span collector service: ingest protocol, bounds, metrics, export."""

from __future__ import annotations

import http.client
import json
import math

import pytest

from repro.obs.collector import CollectorServer, CollectorThread
from repro.obs.registry import escape_label_value
from repro.serve.client import _parse_sample, parse_prometheus


@pytest.fixture
def collector():
    thread = CollectorThread(max_spans=100).start()
    yield thread
    thread.stop()


def _post(collector, body: bytes, path="/v1/spans"):
    conn = http.client.HTTPConnection(collector.host, collector.port, timeout=5)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def _get(collector, path):
    conn = http.client.HTTPConnection(collector.host, collector.port, timeout=5)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _span(name, span_id, **extra):
    return {"name": name, "trace_id": "t1", "span_id": span_id,
            "start_unix_s": 1.0, "end_unix_s": 2.0, **extra}


class TestIngestProtocol:
    def test_batch_object(self, collector):
        status, body = _post(collector, json.dumps({
            "resource": {"service": "w0", "pid": 42},
            "spans": [_span("a", "s1"), _span("b", "s2")],
            "dropped": 1,
        }).encode())
        assert status == 200
        assert body == {"accepted": 2}
        records = collector.records()
        assert [r["name"] for r in records] == ["a", "b"]
        # The batch resource is stamped onto spans that lack their own.
        assert records[0]["resource"] == {"service": "w0", "pid": 42}
        assert collector.server.client_dropped == 1

    def test_json_lines_of_bare_records(self, collector):
        lines = b"\n".join(
            json.dumps(_span(name, f"s{i}")).encode()
            for i, name in enumerate(["x", "y", "z"])
        )
        status, body = _post(collector, lines)
        assert status == 200
        assert body == {"accepted": 3}
        assert len(collector.records()) == 3

    def test_json_lines_of_batch_objects(self, collector):
        lines = b"\n".join(
            json.dumps({"resource": {"service": s}, "spans": [_span(s, s)]})
            .encode()
            for s in ("w0", "w1")
        )
        status, body = _post(collector, lines)
        assert status == 200 and body == {"accepted": 2}
        assert collector.server.batches == {"w0": 1, "w1": 1}

    def test_json_lines_split_on_newline_only(self, collector):
        """A raw U+2028 inside a JSON string is not a line break."""
        lines = b"\n".join(
            json.dumps(_span(name, f"s{i}"), ensure_ascii=False).encode()
            for i, name in enumerate(["a\u2028b", "c\u0085d"])
        )
        status, body = _post(collector, lines)
        assert status == 200 and body == {"accepted": 2}
        assert [r["name"] for r in collector.records()] == ["a\u2028b", "c\u0085d"]

    @pytest.mark.parametrize(
        "payload", [b"", b"not json", b"[1,2]", b'{"spans": 4}']
    )
    def test_malformed_payloads_rejected(self, collector, payload):
        status, _body = _post(collector, payload)
        assert status == 400
        assert collector.records() == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dropped", "abc"),
            ("dropped", [1]),
            ("dropped", 1e999),
            ("dropped", math.nan),
            ("resource", "abc"),
            ("resource", [1, 2]),
        ],
        ids=[
            "dropped-string", "dropped-list", "dropped-overflow",
            "dropped-nan", "resource-string", "resource-list",
        ],
    )
    def test_bad_batch_fields_are_400_naming_the_field(
        self, collector, field, value
    ):
        batch = {"resource": {"service": "w0"}, "spans": [_span("a", "s1")]}
        batch[field] = value
        status, body = _post(collector, json.dumps(batch).encode())
        assert status == 400
        assert field in body["error"]
        assert collector.records() == []

    def test_get_spans_and_healthz(self, collector):
        _post(collector, json.dumps(_span("a", "s1")).encode())
        status, raw = _get(collector, "/v1/spans")
        assert status == 200
        assert [s["name"] for s in json.loads(raw)["spans"]] == ["a"]
        status, raw = _get(collector, "/healthz")
        assert status == 200
        assert json.loads(raw) == {"status": "ok", "spans": 1}


class TestBoundedStorage:
    def test_ring_wrap_evicts_oldest_and_counts(self):
        server = CollectorServer(max_spans=2)
        server.ingest([_span(f"s{i}", f"s{i}") for i in range(5)],
                      resource={"service": "w"})
        assert [r["name"] for r in server.records()] == ["s3", "s4"]
        assert server.received == 5
        assert server.dropped == 3

    def test_max_spans_validated(self):
        with pytest.raises(ValueError, match="max_spans"):
            CollectorServer(max_spans=0)


class TestCollectorMetrics:
    def test_scrape_shows_fleet_drop_accounting(self, collector):
        _post(collector, json.dumps({
            "resource": {"service": "w0"},
            "spans": [_span("a", "s1")],
            "dropped": 4,
        }).encode())
        status, raw = _get(collector, "/metrics")
        assert status == 200
        samples = parse_prometheus(raw.decode())
        assert samples["repro_obs_collector_spans_received_total"] == 1
        assert samples["repro_obs_collector_spans_stored"] == 1
        assert samples['repro_obs_collector_batches_total{service="w0"}'] == 1
        assert samples[
            'repro_obs_collector_spans_dropped_total{reason="sender_shed"}'
        ] == 4
        assert samples[
            'repro_obs_collector_spans_dropped_total{reason="ring_wrap"}'
        ] == 0

    def test_hostile_service_name_cannot_inject_samples(self, collector):
        hostile = 'evil"} 1\nrepro_fake_total 99\n#'
        _post(collector, json.dumps({
            "resource": {"service": hostile},
            "spans": [_span("a", "s1")],
        }).encode())
        _status, raw = _get(collector, "/metrics")
        text = raw.decode()
        samples = parse_prometheus(text)
        assert not any(key.startswith("repro_fake_total") for key in samples)
        key = (
            'repro_obs_collector_batches_total{service="'
            + escape_label_value(hostile) + '"}'
        )
        assert samples[key] == 1
        # The name round-trips as one label value of one series.
        batches = [
            labels
            for name, labels, _value in filter(
                None, map(_parse_sample, text.splitlines())
            )
            if name == "repro_obs_collector_batches_total"
        ]
        assert batches == [{"service": hostile}]
        families = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        assert "repro_fake_total" not in families

    def test_no_family_repeats_in_one_exposition(self, collector):
        # Prometheus forbids a metric family appearing twice in a scrape;
        # the collector's own families must not collide with the default
        # obs source's repro_obs_spans_dropped_total.
        _status, raw = _get(collector, "/metrics")
        types = [line.split()[2] for line in raw.decode().splitlines()
                 if line.startswith("# TYPE ")]
        assert len(types) == len(set(types))


class TestExports:
    def _fill(self, server):
        server.ingest(
            [_span("route.request", "r1"),
             _span("serve.request", "w1", parent_id="r1")],
            resource={"service": "router", "pid": 10},
        )

    def test_chrome_export_names_process_rows(self, tmp_path):
        server = CollectorServer()
        self._fill(server)
        path = tmp_path / "trace.json"
        assert server.export_chrome(path) == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"router"}
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert spans["serve.request"]["args"]["parent_id"] == "r1"

    def test_otlp_export(self, tmp_path):
        server = CollectorServer()
        self._fill(server)
        path = tmp_path / "trace.otlp.json"
        assert server.export_otlp(path) == 2
        payload = json.loads(path.read_text())
        assert "resourceSpans" in payload


class TestSelfFeedingGuard:
    def test_collector_does_not_trace_its_own_requests(self, collector):
        # trace_requests=False: ingest POSTs must not create spans even
        # with a recording tracer installed in the collector's process.
        from repro.obs.trace import disable, enable

        tracer = enable(service="host")
        try:
            _post(collector, json.dumps(_span("a", "s1")).encode())
            assert tracer.spans() == []
        finally:
            disable()
