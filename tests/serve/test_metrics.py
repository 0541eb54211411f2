"""Tests for serving metrics and the Prometheus exposition."""

import math

import pytest

from repro.serve.metrics import LatencyHistogram, ServingMetrics


class TestLatencyHistogram:
    def test_counts_and_mean(self):
        hist = LatencyHistogram()
        for v in (0.001, 0.002, 0.003):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == pytest.approx(0.006)

    def test_empty_percentile_is_nan(self):
        assert math.isnan(LatencyHistogram().percentile(50))

    def test_percentile_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            LatencyHistogram().percentile(101)

    def test_nearest_rank_percentiles(self):
        hist = LatencyHistogram()
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0

    def test_bucketing(self):
        hist = LatencyHistogram(buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            hist.observe(v)
        assert hist.bucket_counts == [2, 1, 1]  # <=1, <=10, overflow

    def test_sample_window_caps_memory(self):
        hist = LatencyHistogram(max_samples=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100          # counters stay exact
        assert len(hist._samples) == 10   # window capped
        assert hist.percentile(100) == 99.0  # recent values retained


class TestServingMetrics:
    def test_request_accounting(self):
        metrics = ServingMetrics()
        metrics.record_request("/v1/predict", 200, 0.001)
        metrics.record_request("/v1/predict", 200, 0.002)
        metrics.record_request("/healthz", 200, 0.0005)
        metrics.record_request("/v1/predict", 400, 0.0001)
        assert metrics.requests_total[("/v1/predict", 200)] == 2
        assert metrics.request_count == 4
        assert metrics.latency.count == 4

    def test_error_and_prediction_counters(self):
        metrics = ServingMetrics()
        metrics.record_error("bad_request")
        metrics.record_error("bad_request")
        metrics.record_predictions(5)
        assert metrics.errors_total == {"bad_request": 2}
        assert metrics.predictions_total == 5

    def test_model_cache_hit_rate(self):
        metrics = ServingMetrics()
        metrics.record_model_cache(hit=False)
        metrics.record_model_cache(hit=True)
        metrics.record_model_cache(hit=True)
        assert metrics.model_cache_hits == 2
        assert metrics.model_cache_misses == 1


class TestPrometheusRendering:
    @pytest.fixture
    def rendered(self):
        metrics = ServingMetrics()
        for _ in range(3):
            metrics.record_request("/v1/predict", 200, 0.002)
        metrics.record_request("/v1/predict", 404, 0.0001)
        metrics.record_error("unknown_model")
        metrics.record_predictions(3)
        metrics.record_model_cache(hit=False)
        metrics.record_model_cache(hit=True)
        metrics.record_batch(1)
        metrics.record_batch(3)
        return metrics.render_prometheus()

    def test_counter_lines(self, rendered):
        assert (
            'repro_serve_requests_total{endpoint="/v1/predict",status="200"} 3'
            in rendered
        )
        assert (
            'repro_serve_requests_total{endpoint="/v1/predict",status="404"} 1'
            in rendered
        )
        assert 'repro_serve_errors_total{reason="unknown_model"} 1' in rendered
        assert "repro_serve_predictions_total 3" in rendered
        assert "repro_serve_model_cache_hits_total 1" in rendered
        assert "repro_serve_model_cache_misses_total 1" in rendered

    def test_help_and_type_comments(self, rendered):
        assert "# TYPE repro_serve_requests_total counter" in rendered
        assert "# TYPE repro_serve_request_latency_seconds histogram" in rendered

    def test_histogram_buckets_cumulative(self, rendered):
        assert 'repro_serve_request_latency_seconds_bucket{le="+Inf"} 4' in rendered
        assert "repro_serve_request_latency_seconds_count 4" in rendered
        # Batch-size histogram: both flushes land at or below the le=4 bound.
        assert 'repro_serve_batch_size_bucket{le="4.0"} 2' in rendered
        assert "repro_serve_batch_size_count 2" in rendered

    def test_quantile_gauges_present(self, rendered):
        for line in rendered.splitlines():
            if line.startswith("repro_serve_request_latency_seconds_p50"):
                assert float(line.split()[-1]) == pytest.approx(0.002)
                break
        else:
            raise AssertionError("no p50 gauge rendered")
        assert "repro_serve_request_latency_seconds_p95" in rendered
        assert "repro_serve_request_latency_seconds_p99" in rendered

    def test_every_sample_line_parses(self, rendered):
        for line in rendered.splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _sep, value = line.rpartition(" ")
            assert name_and_labels
            float(value)  # must parse
