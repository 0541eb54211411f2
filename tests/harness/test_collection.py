"""Tests for training data collection (Table V loop nest)."""

import numpy as np
import pytest

from repro.harness.collection import (
    TRAINING_SETUPS,
    TrainingSetup,
    collect_random_training_data,
    collect_training_data,
    setup_for,
)
from repro.machine import XEON_E5649, XEON_E5_2697V2
from repro.machine.processor import CacheGeometry, DRAMConfig, MulticoreProcessor
from repro.machine.pstates import PStateLadder
from repro.workloads.suite import get_application


class TestTrainingSetup:
    def test_table5_entries(self):
        assert TRAINING_SETUPS["e5649"].co_location_counts == (1, 2, 3, 4, 5)
        assert TRAINING_SETUPS["e5-2697v2"].co_location_counts == (1, 3, 5, 7, 9, 11)

    def test_counts_fit_machines(self):
        assert max(TRAINING_SETUPS["e5649"].co_location_counts) <= XEON_E5649.max_co_located
        assert (
            max(TRAINING_SETUPS["e5-2697v2"].co_location_counts)
            <= XEON_E5_2697V2.max_co_located
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingSetup("x", ())
        with pytest.raises(ValueError):
            TrainingSetup("x", (0, 1))
        with pytest.raises(ValueError):
            TrainingSetup("x", (3, 1))

    def test_setup_for_catalog_machines(self):
        assert setup_for(XEON_E5649) is TRAINING_SETUPS["e5649"]
        assert setup_for(XEON_E5_2697V2) is TRAINING_SETUPS["e5-2697v2"]

    def test_setup_for_unknown_machine(self):
        custom = MulticoreProcessor(
            name="Custom 4-core",
            num_cores=4,
            llc=CacheGeometry(size_bytes=8 * 1024 * 1024),
            dram=DRAMConfig(),
            pstates=PStateLadder.from_frequencies([2.0, 1.0]),
        )
        setup = setup_for(custom)
        assert setup.co_location_counts == (1, 2, 3)

    def test_setup_for_many_core_machine_subsamples(self):
        big = MulticoreProcessor(
            name="Custom 32-core",
            num_cores=32,
            llc=CacheGeometry(size_bytes=64 * 1024 * 1024),
            dram=DRAMConfig(),
            pstates=PStateLadder.from_frequencies([2.0]),
        )
        setup = setup_for(big)
        assert len(setup.co_location_counts) == 8
        assert setup.co_location_counts[0] == 1
        assert setup.co_location_counts[-1] == 31


class TestCollectTrainingData:
    def test_loop_nest_size(self, engine_6core, baselines_6core):
        targets = [get_application(n) for n in ("canneal", "ep")]
        co_apps = [get_application("cg")]
        ds = collect_training_data(
            engine_6core,
            baselines=baselines_6core,
            targets=targets,
            co_apps=co_apps,
            counts=(1, 3),
        )
        # 6 pstates x 2 targets x 1 co-app x 2 counts
        assert len(ds) == 24

    def test_full_default_size_6core(self, engine_6core, baselines_6core):
        ds = collect_training_data(engine_6core, baselines=baselines_6core)
        # 6 pstates x 11 targets x 4 co-apps x 5 counts = 1320 (Section IV-B3)
        assert len(ds) == 1320

    def test_observations_reference_baselines(self, small_dataset, baselines_6core):
        obs = small_dataset.observations[0]
        base = baselines_6core.get(obs.target_name, obs.frequency_ghz)
        assert obs.base_ex_time_s == base.wall_time_s
        assert obs.target_mem == pytest.approx(base.memory_intensity)

    def test_observed_slowdowns_physical(self, small_dataset):
        slowdowns = np.array([o.slowdown for o in small_dataset])
        # Noise can dip marginally below 1; contention pushes well above.
        assert slowdowns.min() > 0.9
        assert slowdowns.max() < 4.0
        assert slowdowns.max() > 1.2

    def test_counts_validated(self, engine_6core, baselines_6core):
        with pytest.raises(ValueError, match="at most 5"):
            collect_training_data(
                engine_6core, baselines=baselines_6core, counts=(1, 6)
            )

    @pytest.mark.parametrize("argument", ["targets", "co_apps", "counts"])
    def test_empty_sweep_argument_rejected(
        self, engine_6core, baselines_6core, argument
    ):
        with pytest.raises(ValueError, match=f"^{argument}: need at least one"):
            collect_training_data(
                engine_6core, baselines=baselines_6core, **{argument: []}
            )

    @pytest.mark.parametrize("counts", [(0,), (1, 0), (2, -1)])
    def test_count_below_one_rejected(
        self, engine_6core, baselines_6core, counts
    ):
        with pytest.raises(ValueError, match=r"^counts: .* must be >= 1"):
            collect_training_data(
                engine_6core, baselines=baselines_6core, counts=counts
            )

    @pytest.mark.parametrize("counts", [(3, 3), (1, 2, 1)])
    def test_repeated_count_rejected(
        self, engine_6core, baselines_6core, counts
    ):
        with pytest.raises(ValueError, match=r"^counts: .* only once"):
            collect_training_data(
                engine_6core, baselines=baselines_6core, counts=counts
            )

    @pytest.mark.parametrize("argument", ["targets", "co_apps"])
    def test_repeated_app_rejected(
        self, engine_6core, baselines_6core, argument
    ):
        apps = [get_application(n) for n in ("ep", "cg", "ep")]
        with pytest.raises(
            ValueError,
            match=rf"^{argument}: .* only once, got \['ep', 'cg', 'ep'\]",
        ):
            collect_training_data(
                engine_6core, baselines=baselines_6core, **{argument: apps}
            )

    @pytest.mark.parametrize(
        "frequencies", [(2.53, 2.53), (1.6, 2.53, 1.6 + 1e-12)]
    )
    def test_repeated_frequency_rejected(
        self, engine_6core, baselines_6core, frequencies
    ):
        with pytest.raises(ValueError, match=r"^frequencies_ghz: .* only once"):
            collect_training_data(
                engine_6core,
                baselines=baselines_6core,
                frequencies_ghz=frequencies,
            )

    def test_distinct_apps_and_frequencies_keep_callers_order(
        self, engine_6core, baselines_6core
    ):
        ds = collect_training_data(
            engine_6core,
            baselines=baselines_6core,
            targets=[get_application("sp"), get_application("ep")],
            co_apps=[get_application("lu"), get_application("cg")],
            counts=(1,),
            frequencies_ghz=(1.6, 2.53),
        )
        assert [(o.frequency_ghz, o.target_name, o.co_app_name) for o in ds] == [
            (f, t, c)
            for f in (1.6, 2.53)
            for t in ("sp", "ep")
            for c in ("lu", "cg")
        ]

    def test_distinct_counts_keep_callers_order(
        self, engine_6core, baselines_6core
    ):
        kwargs = dict(
            baselines=baselines_6core,
            targets=[get_application("sp")],
            co_apps=[get_application("cg")],
            frequencies_ghz=(2.53,),
        )
        descending = collect_training_data(
            engine_6core, counts=(3, 1), rng=np.random.default_rng(9), **kwargs
        )
        assert [o.num_co_app for o in descending] == [3, 1]
        ascending = collect_training_data(
            engine_6core, counts=(1, 3), rng=np.random.default_rng(9), **kwargs
        )
        assert [o.num_co_app for o in ascending] == [1, 3]

    def test_frequency_subset_restricts_sweep(
        self, engine_6core, baselines_6core
    ):
        ds = collect_training_data(
            engine_6core,
            baselines=baselines_6core,
            targets=[get_application("ep")],
            co_apps=[get_application("cg")],
            counts=(1,),
            frequencies_ghz=(2.53, 1.6),
        )
        # 2 pstates x 1 target x 1 co-app x 1 count
        assert len(ds) == 2
        assert {o.frequency_ghz for o in ds} == {2.53, 1.6}

    def test_frequency_subset_validated(self, engine_6core, baselines_6core):
        with pytest.raises(ValueError, match="no P-state"):
            collect_training_data(
                engine_6core,
                baselines=baselines_6core,
                frequencies_ghz=(9.99,),
            )
        with pytest.raises(ValueError, match="at least one"):
            collect_training_data(
                engine_6core,
                baselines=baselines_6core,
                frequencies_ghz=(),
            )

    def test_deterministic_with_seed(self, engine_6core, baselines_6core):
        kwargs = dict(
            baselines=baselines_6core,
            targets=[get_application("sp")],
            co_apps=[get_application("cg")],
            counts=(1,),
        )
        d1 = collect_training_data(
            engine_6core, rng=np.random.default_rng(5), **kwargs
        )
        d2 = collect_training_data(
            engine_6core, rng=np.random.default_rng(5), **kwargs
        )
        assert [o.actual_time_s for o in d1] == [o.actual_time_s for o in d2]


class TestCollectRandomTrainingData:
    def test_budget_respected(self, engine_6core, baselines_6core):
        ds = collect_random_training_data(
            engine_6core, 30, baselines=baselines_6core
        )
        assert len(ds) == 30

    def test_counts_within_machine_limits(self, engine_6core, baselines_6core):
        ds = collect_random_training_data(
            engine_6core, 50, baselines=baselines_6core
        )
        counts = {o.num_co_app for o in ds}
        assert max(counts) <= engine_6core.processor.max_co_located
        assert min(counts) >= 1

    def test_random_selection_varies(self, engine_6core, baselines_6core):
        ds = collect_random_training_data(
            engine_6core, 50, baselines=baselines_6core,
            rng=np.random.default_rng(0),
        )
        assert len({o.target_name for o in ds}) > 3
        assert len({o.frequency_ghz for o in ds}) > 2

    @pytest.mark.parametrize("argument", ["targets", "co_apps"])
    def test_empty_apps_rejected(self, engine_6core, baselines_6core, argument):
        with pytest.raises(ValueError, match=f"^{argument}: need at least one"):
            collect_random_training_data(
                engine_6core, 10, baselines=baselines_6core, **{argument: []}
            )

    @pytest.mark.parametrize("argument", ["targets", "co_apps"])
    def test_repeated_app_rejected(
        self, engine_6core, baselines_6core, argument
    ):
        apps = [get_application(n) for n in ("cg", "cg")]
        with pytest.raises(ValueError, match=f"^{argument}: .* only once"):
            collect_random_training_data(
                engine_6core, 10, baselines=baselines_6core, **{argument: apps}
            )

    def test_budget_validation(self, engine_6core, baselines_6core):
        with pytest.raises(ValueError, match="budget"):
            collect_random_training_data(
                engine_6core, 0, baselines=baselines_6core
            )


class TestDeterministicParallelCollection:
    KW = dict(counts=(1, 3))

    def _kwargs(self, baselines):
        return dict(
            baselines=baselines,
            targets=[get_application(n) for n in ("canneal", "sp")],
            co_apps=[get_application("cg")],
            **self.KW,
        )

    def test_parallel_dataset_bit_identical(self, engine_6core, baselines_6core):
        kwargs = self._kwargs(baselines_6core)
        serial = collect_training_data(
            engine_6core, rng=np.random.default_rng(9), **kwargs
        )
        parallel = collect_training_data(
            engine_6core, rng=np.random.default_rng(9), workers=3, **kwargs
        )
        assert [o.actual_time_s for o in serial] == [
            o.actual_time_s for o in parallel
        ]

    def test_random_parallel_dataset_bit_identical(
        self, engine_6core, baselines_6core
    ):
        kwargs = dict(
            baselines=baselines_6core,
            targets=[get_application(n) for n in ("canneal", "sp")],
            co_apps=[get_application("cg")],
        )
        serial = collect_random_training_data(
            engine_6core, 20, rng=np.random.default_rng(9), **kwargs
        )
        parallel = collect_random_training_data(
            engine_6core, 20, rng=np.random.default_rng(9), workers=2, **kwargs
        )
        assert [o.actual_time_s for o in serial] == [
            o.actual_time_s for o in parallel
        ]
        assert [o.target_name for o in serial] == [
            o.target_name for o in parallel
        ]

    def test_noise_independent_of_sibling_scenarios(
        self, engine_6core, baselines_6core
    ):
        """Per-scenario RNGs: a scenario's noise is a function of its index,

        so the first scenario's draw cannot be perturbed by how many draws
        later scenarios consume (the old shared-generator failure mode).
        """
        kwargs = self._kwargs(baselines_6core)
        full = collect_training_data(
            engine_6core, rng=np.random.default_rng(9), **kwargs
        )
        trimmed_kwargs = dict(kwargs, counts=(1,))
        trimmed = collect_training_data(
            engine_6core, rng=np.random.default_rng(9), **trimmed_kwargs
        )
        # Scenario 0 is (fastest pstate, canneal, cg, count 1) in both sweeps.
        assert full.observations[0].actual_time_s == trimmed.observations[0].actual_time_s

    def test_workers_validated(self, engine_6core, baselines_6core):
        with pytest.raises(ValueError, match="workers"):
            collect_training_data(
                engine_6core, baselines=baselines_6core, workers=0
            )
