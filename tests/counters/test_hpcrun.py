"""Tests for the hpcrun-flat profiler analog."""

import numpy as np
import pytest

from repro.counters.hpcrun import (
    DEFAULT_EVENTS,
    FlatProfile,
    hpcrun_flat,
    profile_from_dict,
    profile_to_dict,
)
from repro.counters.papi import PresetEvent
from repro.workloads.suite import get_application


class TestHpcrunFlat:
    def test_default_events_collected(self, engine_6core):
        profile = hpcrun_flat(engine_6core, get_application("canneal"))
        assert set(profile.counts) == {e.value for e in DEFAULT_EVENTS}

    def test_metadata(self, engine_6core):
        profile = hpcrun_flat(engine_6core, get_application("sp"))
        assert profile.app_name == "sp"
        assert profile.processor_name == "Xeon E5649"
        assert profile.frequency_ghz == pytest.approx(2.53)
        assert profile.wall_time_s > 0

    def test_derived_metrics(self, engine_6core):
        profile = hpcrun_flat(engine_6core, get_application("cg"))
        assert profile.memory_intensity == pytest.approx(
            profile.llc_misses / profile.instructions
        )
        assert profile.cm_per_ca == pytest.approx(
            profile.llc_misses / profile.llc_accesses
        )
        assert profile.ca_per_ins == pytest.approx(
            profile.llc_accesses / profile.instructions
        )

    def test_explicit_pstate(self, engine_6core):
        slow = engine_6core.processor.pstates.slowest
        profile = hpcrun_flat(engine_6core, get_application("ep"), pstate=slow)
        assert profile.frequency_ghz == pytest.approx(slow.frequency_ghz)

    def test_co_located_profiling(self, engine_6core):
        app = get_application("canneal")
        cg = get_application("cg")
        solo = hpcrun_flat(engine_6core, app)
        loaded = hpcrun_flat(engine_6core, app, co_runners=[cg] * 3)
        assert loaded.wall_time_s > solo.wall_time_s
        assert loaded.llc_misses > solo.llc_misses
        # Instructions are a property of the app, not the contention.
        assert loaded.instructions == pytest.approx(solo.instructions)

    def test_custom_event_list(self, engine_6core):
        events = (PresetEvent.PAPI_TOT_INS, PresetEvent.PAPI_TOT_CYC)
        profile = hpcrun_flat(engine_6core, get_application("lu"), events=events)
        assert set(profile.counts) == {e.value for e in events}

    def test_noise_passthrough(self, engine_6core):
        app = get_application("ft")
        clean = hpcrun_flat(engine_6core, app)
        noisy = hpcrun_flat(engine_6core, app, rng=np.random.default_rng(2))
        assert noisy.wall_time_s != clean.wall_time_s


class TestSerialization:
    def test_roundtrip(self, engine_6core):
        profile = hpcrun_flat(engine_6core, get_application("mg"))
        restored = profile_from_dict(profile_to_dict(profile))
        assert restored == profile

    def test_dict_is_plain(self, engine_6core):
        data = profile_to_dict(hpcrun_flat(engine_6core, get_application("mg")))
        assert isinstance(data["counts"], dict)
        assert all(isinstance(k, str) for k in data["counts"])
        import json

        json.dumps(data)  # must be JSON-serializable


INS = PresetEvent.PAPI_TOT_INS.value
TCA = PresetEvent.PAPI_L3_TCA.value
TCM = PresetEvent.PAPI_L3_TCM.value


def _reference_ratios(profile):
    """The counter formulas, read from ``counts`` on every call (oracle)."""
    ins, tca, tcm = (profile.counts[e] for e in (INS, TCA, TCM))
    return (
        tcm / ins if ins else 0.0,
        tcm / tca if tca else 0.0,
        tca / ins if ins else 0.0,
    )


def _ratios(profile):
    return (profile.memory_intensity, profile.cm_per_ca, profile.ca_per_ins)


def _profile(ins, tca, tcm):
    return FlatProfile(
        app_name="x",
        processor_name="p",
        frequency_ghz=2.0,
        wall_time_s=1.0,
        counts={INS: ins, TCA: tca, TCM: tcm},
    )


class TestMemoizedRatios:
    @pytest.mark.parametrize(
        "counts",
        [
            (0.0, 0.0, 0.0),        # nothing counted: every ratio is 0
            (1e9, 0.0, 0.0),        # no LLC traffic
            (0.0, 5e6, 1e6),        # zero instructions, non-zero cache counts
            (1e9, 3.3e7, 1.1e7),
        ],
    )
    def test_equal_the_counter_formulas(self, counts):
        profile = _profile(*counts)
        assert _ratios(profile) == _reference_ratios(profile)
        assert _ratios(profile) == _reference_ratios(profile)  # memo hit

    def test_profiled_runs_and_their_round_trip(self, engine_6core):
        for name in ("canneal", "cg", "ep"):
            profile = hpcrun_flat(engine_6core, get_application(name))
            expected = _reference_ratios(profile)
            assert _ratios(profile) == expected
            restored = profile_from_dict(profile_to_dict(profile))
            assert _ratios(restored) == expected
            # The memo is not a field: it neither travels nor compares.
            assert profile_to_dict(restored) == profile_to_dict(profile)
            assert restored == profile
