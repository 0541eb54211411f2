"""Tests for the DRAM contention model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.processor import DRAMConfig
from repro.memsys.dram import MAX_UTILIZATION, DRAMModel


@pytest.fixture
def model():
    return DRAMModel(DRAMConfig(idle_latency_ns=80.0, peak_bandwidth_gbs=10.0, queue_shape=0.5))


class TestUtilization:
    def test_zero_demand(self, model):
        assert model.utilization(0.0) == 0.0

    def test_linear_below_ceiling(self, model):
        assert model.utilization(5e9) == pytest.approx(0.5)

    def test_clamped_at_ceiling(self, model):
        assert model.utilization(1e12) == pytest.approx(MAX_UTILIZATION)

    def test_rejects_negative(self, model):
        with pytest.raises(ValueError):
            model.utilization(-1.0)

    def test_vectorized(self, model):
        demands = np.array([0.0, 5e9, 1e12])
        out = np.asarray(model.utilization(demands))
        np.testing.assert_allclose(out, [0.0, 0.5, MAX_UTILIZATION])


class TestEffectiveLatency:
    def test_idle_at_zero_load(self, model):
        assert model.effective_latency_ns(0.0) == pytest.approx(80.0)

    def test_monotone_nondecreasing(self, model):
        demands = np.linspace(0.0, 2e10, 100)
        lat = np.asarray(model.effective_latency_ns(demands))
        assert np.all(np.diff(lat) >= -1e-9)

    def test_convex_in_load(self, model):
        demands = np.linspace(0.0, 9e9, 50)
        lat = np.asarray(model.effective_latency_ns(demands))
        second_diff = np.diff(lat, 2)
        assert np.all(second_diff >= -1e-9)

    def test_bounded_at_saturation(self, model):
        # The utilization clamp keeps latency finite at any demand.
        assert np.isfinite(model.effective_latency_ns(1e15))

    def test_latency_at_half_load_matches_the_formula(self, model):
        """At half the peak demand the latency is the queueing formula at
        rho = 0.5: idle * (1 + shape * 0.5 / 0.5)."""
        assert model.effective_latency_ns(0.5 * 10e9) == pytest.approx(80.0 * 1.5)

    def test_zero_queue_shape_flat_latency(self):
        flat = DRAMModel(DRAMConfig(idle_latency_ns=50.0, peak_bandwidth_gbs=1.0, queue_shape=0.0))
        assert flat.effective_latency_ns(9e8) == pytest.approx(50.0)

    def test_saturation_demand(self, model):
        """The utilization ceiling is reached exactly at its demand."""
        d = MAX_UTILIZATION * 10e9
        assert model.utilization(d) == pytest.approx(MAX_UTILIZATION)
        assert model.utilization(0.99 * d) < MAX_UTILIZATION

    @given(
        demand=st.floats(min_value=0.0, max_value=1e13),
        shape=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_property_latency_at_least_idle(self, demand, shape):
        m = DRAMModel(DRAMConfig(idle_latency_ns=60.0, peak_bandwidth_gbs=20.0, queue_shape=shape))
        assert m.effective_latency_ns(demand) >= 60.0 - 1e-9
