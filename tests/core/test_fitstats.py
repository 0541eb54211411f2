"""Tests for the fit-statistics observability counters."""

from repro.core.fitstats import FitStats
from repro.obs import samples_text


class TestRecording:
    def test_starts_at_zero(self):
        stats = FitStats()
        assert stats.fits == 0
        assert stats.restarts == 0
        assert stats.scg_iterations == 0
        assert stats.wall_time_s == 0.0

    def test_record_fit_accumulates(self):
        stats = FitStats()
        stats.record_fit(restarts=2, scg_iterations=100, gradient_evals=180,
                         function_evals=180, wall_time_s=0.5)
        stats.record_fit(restarts=2, scg_iterations=50, gradient_evals=90,
                         function_evals=90, wall_time_s=0.25)
        assert stats.fits == 2
        assert stats.restarts == 4
        assert stats.scg_iterations == 150
        assert stats.gradient_evals == 270
        assert stats.wall_time_s == 0.75

    def test_record_fit_defaults_count_one_fit(self):
        stats = FitStats()
        stats.record_fit()
        assert stats.fits == 1
        assert stats.restarts == 1
        assert stats.scg_iterations == 0

    def test_merge(self):
        a, b = FitStats(), FitStats()
        a.record_fit(restarts=3, scg_iterations=30)
        b.record_fit(restarts=1, scg_iterations=10, wall_time_s=1.0)
        a.merge(b)
        assert a.fits == 2
        assert a.restarts == 4
        assert a.scg_iterations == 40
        assert a.wall_time_s == 1.0
        assert b.fits == 1  # merge does not mutate the source


class TestDerived:
    def test_summary_mentions_counts(self):
        stats = FitStats()
        stats.record_fit(restarts=2, scg_iterations=120, gradient_evals=200,
                         wall_time_s=0.5)
        lines = samples_text(stats.render_prometheus()).splitlines()
        assert "repro_fit_fits_total 1" in lines
        assert "repro_fit_restarts_total 2" in lines
        assert "repro_fit_scg_iterations_total 120" in lines
        assert "repro_fit_wall_seconds_total 0.5" in lines
