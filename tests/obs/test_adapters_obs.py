"""Default-source coverage: engine batch counters and tracer health.

The batched-solver counters (``repro_engine_batches_total`` and
friends) ride the engine source onto every server's ``/metrics``; these
tests pin their rendering and that the tier's merged multi-worker scrape
sums them correctly.  The ``obs`` source is the drop accounting:
ring-buffer wraps and streaming-queue sheds become
``repro_obs_spans_dropped_total``.
"""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    install_default_sources,
    obs_stats_exposition,
)
from repro.obs.stream import SpanSender
from repro.obs.trace import Tracer, disable, set_tracer
from repro.serve.client import parse_prometheus
from repro.serve.metrics import merge_prometheus_texts
from repro.sim.solve_cache import EngineStats


def _stats(batches, scenarios, dedupe, frozen):
    stats = EngineStats()
    for _ in range(batches):
        stats.record_batch(
            scenarios=scenarios, dedupe_hits=dedupe, iterations_saved=frozen
        )
    return stats


class TestEngineBatchCounters:
    def test_rendered_with_values(self):
        stats = _stats(batches=3, scenarios=64, dedupe=5, frozen=120)
        samples = parse_prometheus(stats.render_prometheus())
        assert samples["repro_engine_batches_total"] == 3
        assert samples["repro_engine_batched_scenarios_total"] == 192
        assert samples["repro_engine_batch_dedupe_hits_total"] == 15
        assert samples["repro_engine_frozen_iterations_saved_total"] == 360

    def test_families_have_help_and_type(self):
        text = EngineStats().render_prometheus()
        for family in (
            "repro_engine_batches_total",
            "repro_engine_batched_scenarios_total",
            "repro_engine_batch_dedupe_hits_total",
            "repro_engine_frozen_iterations_saved_total",
        ):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} counter" in text

    def test_multi_worker_merged_scrape_sums_counters(self):
        # The router merges per-worker expositions; the batch counters
        # must sum across workers like any other counter family.
        worker_texts = [
            _stats(2, 32, 1, 50).render_prometheus(),
            _stats(1, 16, 0, 10).render_prometheus(),
        ]
        merged = parse_prometheus(merge_prometheus_texts(worker_texts))
        assert merged["repro_engine_batches_total"] == 3
        assert merged["repro_engine_batched_scenarios_total"] == 80
        assert merged["repro_engine_batch_dedupe_hits_total"] == 2
        assert merged["repro_engine_frozen_iterations_saved_total"] == 110
        # The iteration histogram stays structurally intact after merging.
        assert merged['repro_engine_solve_iterations_bucket{le="+Inf"}'] == 0


class TestObsSource:
    def test_ring_wrap_drops_exposed(self):
        tracer = Tracer(max_spans=2)
        previous = set_tracer(tracer)
        try:
            for i in range(5):
                with tracer.span(f"s{i}"):
                    pass
            samples = parse_prometheus(obs_stats_exposition())
        finally:
            set_tracer(previous)
        assert samples[
            'repro_obs_spans_dropped_total{reason="ring_wrap"}'
        ] == 3
        assert samples[
            'repro_obs_spans_dropped_total{reason="stream_shed"}'
        ] == 0

    def test_streaming_tracer_exposes_sender_counters(self):
        class _FakeSenderTracer(Tracer):
            pass

        tracer = _FakeSenderTracer()
        tracer.sender = type(
            "S", (), {"dropped": 7, "sent": 40, "send_errors": 2}
        )()
        previous = set_tracer(tracer)
        try:
            samples = parse_prometheus(obs_stats_exposition())
        finally:
            set_tracer(previous)
        assert samples[
            'repro_obs_spans_dropped_total{reason="stream_shed"}'
        ] == 7
        assert samples["repro_obs_spans_streamed_total"] == 40
        assert samples["repro_obs_span_send_errors_total"] == 2

    def test_null_tracer_renders_zeros(self):
        disable()
        samples = parse_prometheus(obs_stats_exposition())
        assert samples[
            'repro_obs_spans_dropped_total{reason="ring_wrap"}'
        ] == 0

    def test_registered_as_default_source(self):
        registry = install_default_sources(MetricsRegistry())
        assert "repro_obs_spans_dropped_total" in registry.render()


class TestStreamShedEndToEnd:
    def test_real_sender_shed_appears_in_exposition(self):
        # Unroutable but well-formed endpoint; the sender never connects,
        # and a closed sender sheds synchronously.
        sender = SpanSender("127.0.0.1:9")
        sender.close()
        from repro.obs.stream import StreamingTracer

        tracer = StreamingTracer(sender)
        previous = set_tracer(tracer)
        try:
            with tracer.span("shed-me"):
                pass
            samples = parse_prometheus(obs_stats_exposition())
        finally:
            set_tracer(previous)
        assert samples[
            'repro_obs_spans_dropped_total{reason="stream_shed"}'
        ] == 1
