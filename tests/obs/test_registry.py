"""The exposition writer and the source registry: semantics and rendering."""

import math
from pathlib import Path

import pytest

import repro
from repro.obs import registry as writer_module
from repro.obs.registry import (
    Exposition,
    MetricsRegistry,
    escape_label_value,
    format_value,
    install_default_sources,
    samples_text,
)


class TestCounter:
    def test_labelled_series_are_independent(self):
        text = Exposition().family(
            "hits_total", "counter", "Hits.",
            [({"kind": "a"}, 1), ({"kind": "b"}, 3)],
        ).text()
        assert 'hits_total{kind="a"} 1' in text
        assert 'hits_total{kind="b"} 3' in text

    def test_render_has_header_and_zero_default(self):
        lines = Exposition().counter("jobs_total", "Jobs  seen.", 0).text().splitlines()
        assert lines[0] == "# HELP jobs_total Jobs seen."  # whitespace folded
        assert lines[1] == "# TYPE jobs_total counter"
        assert lines[2] == "jobs_total 0"

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Exposition().counter("0bad", "x", 1)
        with pytest.raises(ValueError, match="invalid label name"):
            Exposition().family("ok_total", "counter", "x", [({"bad-label": "v"}, 1)])


class TestHistogram:
    def test_cumulative_buckets_and_inf(self):
        # Per-bucket counts for observations 0.05, 0.5, 0.7, 5.0 and 50.0;
        # the last entry is the overflow past the final bound.
        lines = Exposition().histogram(
            "lat", "Latency.", [({}, (0.1, 1.0, 10.0), [1, 2, 1, 1], 56.25)]
        ).text().splitlines()
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1.0"} 3' in lines
        assert 'lat_bucket{le="10.0"} 4' in lines
        assert 'lat_bucket{le="+Inf"} 5' in lines
        assert "lat_sum 56.25" in lines
        assert "lat_count 5" in lines

    def test_labelled_series(self):
        lines = Exposition().histogram(
            "lat", "Latency.",
            [({"phase": "queue"}, (1.0,), [1, 1], 2.5),
             ({"phase": "predict"}, (1.0,), [0, 0], 0.0)],
        ).text().splitlines()
        assert lines.count("# TYPE lat histogram") == 1
        # Labels render in sorted order, so ``le`` precedes ``phase``.
        assert 'lat_bucket{le="1.0",phase="queue"} 1' in lines
        assert 'lat_bucket{le="+Inf",phase="queue"} 2' in lines
        assert 'lat_count{phase="predict"} 0' in lines


class TestSamplesText:
    def test_samples_in_order_without_metadata_or_buckets(self):
        text = (
            Exposition()
            .counter("jobs_total", "Jobs.", 3)
            .histogram(
                "lat", "Latency.", [({"phase": "queue"}, (1.0,), [1, 1], 2.5)]
            )
            .gauge("lat_p50", "Median latency.", 0.5)
            .text()
        )
        assert samples_text(text).splitlines() == [
            "jobs_total 3",
            'lat_sum{phase="queue"} 2.5',
            'lat_count{phase="queue"} 2',
            "lat_p50 0.5",
        ]


class TestFormatting:
    def test_escape_label_value(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        assert escape_label_value("plain") == "plain"

    def test_format_value(self):
        assert format_value(3.0) == "3.0"
        assert format_value(3) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.nan) == "NaN"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"


class TestMetricsRegistry:
    def test_render_merges_families_and_sources(self):
        registry = MetricsRegistry()
        registry.register_source(
            "native", lambda: Exposition().counter("native_total", "Native.", 4).text()
        )
        registry.register_source(
            "extern", lambda: "# HELP ext_total X.\n# TYPE ext_total counter\next_total 7\n"
        )
        text = registry.render()
        assert text.index("native_total 4") < text.index("ext_total 7")
        assert text.endswith("\n")

    def test_failing_source_counted_not_fatal(self):
        registry = MetricsRegistry()

        def broken() -> str:
            raise RuntimeError("source died")

        registry.register_source("sim", broken)
        text = registry.render()
        assert 'repro_obs_source_errors_total{source="sim"} 1' in text

    def test_source_replacement(self):
        registry = MetricsRegistry()
        registry.register_source("s", lambda: "a 1")
        registry.register_source("s", lambda: "b 2")
        assert "b 2" in registry.render() and "a 1" not in registry.render()

    def test_default_registry_has_builtin_sources(self):
        text = install_default_sources(MetricsRegistry()).render()
        for family in (
            "repro_engine_solves_total",
            "repro_fit_fits_total",
            "repro_obs_spans_dropped_total",
            "repro_suite_runs_total",
        ):
            assert f"# TYPE {family} counter" in text


def test_only_the_writer_module_spells_help_and_type():
    """Every ``/metrics`` family goes through :class:`Exposition`."""
    package = Path(repro.__file__).parent
    writer = Path(writer_module.__file__)
    offenders = []
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path != writer and ("# HELP" in text or "# TYPE" in text):
            offenders.append(str(path.relative_to(package)))
    assert offenders == []
