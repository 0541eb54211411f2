"""Tests for reuse profiles and miss-ratio curves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.reuse import (
    MissRatioCurve,
    ProfileStack,
    ProfileTable,
    ReuseComponent,
    ReuseProfile,
    SlotLayout,
    distinct_columns,
    distinct_index,
)

KB = 1024.0
MB = 1024.0 * 1024.0


class TestReuseComponent:
    def test_miss_fraction_half_at_working_set(self):
        comp = ReuseComponent(working_set_bytes=1 * MB, weight=1.0)
        assert comp.miss_fraction(1 * MB) == pytest.approx(0.5)

    def test_miss_fraction_limits(self):
        comp = ReuseComponent(working_set_bytes=1 * MB, weight=1.0)
        assert comp.miss_fraction(0.0) == pytest.approx(1.0)
        assert comp.miss_fraction(100 * MB) < 1e-4

    def test_sharpness_controls_knee(self):
        soft = ReuseComponent(1 * MB, 1.0, sharpness=1.0)
        sharp = ReuseComponent(1 * MB, 1.0, sharpness=6.0)
        # Above the knee the sharp component decays faster.
        assert sharp.miss_fraction(2 * MB) < soft.miss_fraction(2 * MB)

    def test_settled_capacity(self):
        comp = ReuseComponent(1 * MB, 1.0, sharpness=3.0)
        settled = comp.settled_capacity(0.05)
        assert comp.miss_fraction(settled) == pytest.approx(0.05, rel=1e-6)
        assert settled > comp.working_set_bytes

    def test_settled_capacity_epsilon_validation(self):
        comp = ReuseComponent(1 * MB, 1.0)
        with pytest.raises(ValueError):
            comp.settled_capacity(0.0)
        with pytest.raises(ValueError):
            comp.settled_capacity(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"working_set_bytes": 0.0, "weight": 1.0},
            {"working_set_bytes": 1.0, "weight": 0.0},
            {"working_set_bytes": 1.0, "weight": 1.5},
            {"working_set_bytes": 1.0, "weight": 1.0, "sharpness": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReuseComponent(**kwargs)


class TestReuseProfile:
    def test_single(self):
        p = ReuseProfile.single(1 * MB, compulsory=0.1)
        assert p.miss_ratio(1e12) == pytest.approx(0.1, abs=1e-3)
        assert p.miss_ratio(0.0) == pytest.approx(1.0)

    def test_mixture_normalizes_weights(self):
        p = ReuseProfile.mixture([(1 * MB, 2.0), (4 * MB, 2.0)])
        assert sum(c.weight for c in p.components) == pytest.approx(1.0)

    def test_mixture_with_sharpness(self):
        p = ReuseProfile.mixture([(1 * MB, 1.0, 5.0)])
        assert p.components[0].sharpness == 5.0

    def test_weights_must_sum_to_one(self):
        comps = (ReuseComponent(1 * MB, 0.5),)
        with pytest.raises(ValueError, match="sum to 1"):
            ReuseProfile(components=comps)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReuseProfile(components=())
        with pytest.raises(ValueError):
            ReuseProfile.mixture([])

    def test_compulsory_bounds(self):
        with pytest.raises(ValueError):
            ReuseProfile.single(1 * MB, compulsory=1.0)
        with pytest.raises(ValueError):
            ReuseProfile.single(1 * MB, compulsory=-0.1)

    def test_miss_ratio_monotone_nonincreasing(self, small_profile):
        caps = np.linspace(0, 1 * MB, 200)
        mrs = np.asarray(small_profile.miss_ratio(caps))
        assert np.all(np.diff(mrs) <= 1e-12)

    def test_miss_ratio_bounded(self, small_profile):
        caps = np.geomspace(1.0, 100 * MB, 50)
        mrs = np.asarray(small_profile.miss_ratio(caps))
        assert np.all(mrs >= small_profile.compulsory - 1e-12)
        assert np.all(mrs <= 1.0)

    def test_miss_ratio_scalar_and_vector_agree(self, small_profile):
        caps = np.array([0.0, 16 * KB, 64 * KB, 1 * MB])
        vec = np.asarray(small_profile.miss_ratio(caps))
        scal = np.array([small_profile.miss_ratio(float(c)) for c in caps])
        np.testing.assert_allclose(vec, scal)

    def test_footprint_is_settled_capacity(self):
        p = ReuseProfile.mixture([(1 * MB, 0.5), (4 * MB, 0.5)])
        expected = max(c.settled_capacity() for c in p.components)
        assert p.footprint_bytes == pytest.approx(expected)
        assert p.max_working_set_bytes == pytest.approx(4 * MB)

    def test_curve_tabulation(self, small_profile):
        curve = small_profile.curve(1 * MB, points=64)
        assert curve.is_monotone_nonincreasing()
        assert curve(0.0) == pytest.approx(float(small_profile.miss_ratio(0.0)))
        mid = 128 * KB
        assert curve(mid) == pytest.approx(
            float(small_profile.miss_ratio(mid)), abs=0.02
        )

    def test_stack_distance_distribution_sums_to_one(self, small_profile):
        dist, prob = small_profile.stack_distance_distribution(64)
        assert prob.sum() == pytest.approx(1.0)
        assert np.all(prob >= 0.0)
        assert dist[-1] == np.iinfo(np.int64).max

    def test_stack_distance_cdf_matches_miss_ratio(self, small_profile):
        line = 64
        dist, prob = small_profile.stack_distance_distribution(line)
        # P(distance > d) should approximate miss_ratio(d * line).
        d_query = int(32 * KB // line)
        tail = prob[dist > d_query].sum()
        expected = float(small_profile.miss_ratio(d_query * line))
        assert tail == pytest.approx(expected, abs=0.03)

    def test_stack_distance_rejects_bad_args(self, small_profile):
        with pytest.raises(ValueError):
            small_profile.stack_distance_distribution(0)
        with pytest.raises(ValueError):
            small_profile.stack_distance_distribution(64, max_distance_lines=0)

    @given(
        ws=st.floats(min_value=1 * KB, max_value=10 * MB),
        compulsory=st.floats(min_value=0.0, max_value=0.5),
        sharp=st.floats(min_value=0.5, max_value=8.0),
    )
    @settings(max_examples=50)
    def test_property_monotone_any_profile(self, ws, compulsory, sharp):
        p = ReuseProfile.mixture([(ws, 1.0, sharp)], compulsory=compulsory)
        caps = np.geomspace(1.0, 20 * ws, 64)
        mrs = np.asarray(p.miss_ratio(caps))
        assert np.all(np.diff(mrs) <= 1e-9)
        assert mrs[0] <= 1.0 and mrs[-1] >= compulsory - 1e-9


class TestMissRatioCurve:
    def test_interpolation(self):
        curve = MissRatioCurve(
            capacities=np.array([0.0, 10.0, 20.0]),
            miss_ratios=np.array([1.0, 0.5, 0.0]),
        )
        assert curve(5.0) == pytest.approx(0.75)
        assert curve(15.0) == pytest.approx(0.25)

    def test_clamps_outside_range(self):
        curve = MissRatioCurve(
            capacities=np.array([10.0, 20.0]),
            miss_ratios=np.array([0.8, 0.2]),
        )
        assert curve(0.0) == pytest.approx(0.8)
        assert curve(100.0) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MissRatioCurve(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="within"):
            MissRatioCurve(np.array([0.0, 1.0]), np.array([1.5, 0.5]))
        with pytest.raises(ValueError, match="at least two"):
            MissRatioCurve(np.array([0.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="equal-length"):
            MissRatioCurve(np.array([0.0, 1.0]), np.array([0.5]))

    def test_monotone_check(self):
        up = MissRatioCurve(np.array([0.0, 1.0]), np.array([0.2, 0.8]))
        assert not up.is_monotone_nonincreasing()


class TestProfileTable:
    def test_matches_scalar_path(self, rng):
        profiles = [
            ReuseProfile.mixture([(1 * MB, 0.7), (8 * MB, 0.3)], compulsory=0.01),
            ReuseProfile.single(512 * KB, compulsory=0.1),
            ReuseProfile.mixture([(64 * KB, 0.2, 2.0), (2 * MB, 0.8, 4.0)]),
        ]
        table = ProfileTable(profiles)
        occ = rng.uniform(0, 4 * MB, size=3)
        floats = table.miss_ratio_floats(occ.tolist())
        scalar = np.array([p.miss_ratio(float(o)) for p, o in zip(profiles, occ)])
        np.testing.assert_allclose(floats, scalar, rtol=1e-12)

    def test_footprints_match(self):
        profiles = [ReuseProfile.single(1 * MB), ReuseProfile.single(4 * MB)]
        table = ProfileTable(profiles)
        np.testing.assert_allclose(
            table.footprints, [p.footprint_bytes for p in profiles]
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProfileTable([])


def _per_cell_stack(profile_rows, pad_apps):
    """The cell-by-cell fill ``ProfileStack`` replaced (the gather's oracle).

    Footprints use the settled-capacity formula directly, so the memo on
    :attr:`ReuseProfile.footprint_bytes` is checked too.
    """
    s = len(profile_rows)
    k = max(len(p.components) for row in profile_rows for p in row)
    arrays = {
        "working_sets": np.ones((s, pad_apps, k)),
        "weights": np.zeros((s, pad_apps, k)),
        "sharpness": np.ones((s, pad_apps, k)),
        "compulsory": np.zeros((s, pad_apps)),
        "footprints": np.zeros((s, pad_apps)),
    }
    for i, row in enumerate(profile_rows):
        for j, p in enumerate(row):
            arrays["compulsory"][i, j] = p.compulsory
            arrays["footprints"][i, j] = max(
                c.settled_capacity() for c in p.components
            )
            for m, comp in enumerate(p.components):
                arrays["working_sets"][i, j, m] = comp.working_set_bytes
                arrays["weights"][i, j, m] = comp.weight
                arrays["sharpness"][i, j, m] = comp.sharpness
    return arrays


def _assert_stack_equals(stack, arrays):
    for name, expected in arrays.items():
        got = getattr(stack, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


class TestProfileStack:
    def _rows(self):
        three = ReuseProfile.mixture(
            [(64 * KB, 0.2, 2.0), (2 * MB, 0.5, 4.0), (9 * MB, 0.3)],
            compulsory=0.02,
        )
        one = ReuseProfile.single(512 * KB, compulsory=0.1)
        one_twin = ReuseProfile.single(512 * KB, compulsory=0.1)  # equal, distinct
        two = ReuseProfile.mixture([(1 * MB, 0.7), (8 * MB, 0.3)])
        assert one == one_twin and one is not one_twin
        return [
            [one],
            [three, one, one, one],     # repeated object
            [one_twin, two, one],       # equal-but-distinct objects
            [two, two, three, one_twin, one],
        ]

    def test_gather_equals_the_per_cell_fill(self):
        rows = self._rows()
        for pad in (5, 7):
            _assert_stack_equals(
                ProfileStack(rows, pad_apps=pad), _per_cell_stack(rows, pad)
            )
        _assert_stack_equals(ProfileStack(rows), _per_cell_stack(rows, 5))

    def test_gather_from_an_index_equals_the_row_form(self):
        rows = self._rows()
        profiles, index = distinct_index(rows, 6)
        _assert_stack_equals(
            ProfileStack.gather(profiles, index), _per_cell_stack(rows, 6)
        )

    def test_subset_equals_those_rows_of_the_per_cell_fill(self):
        rows = self._rows()
        stack = ProfileStack(rows, pad_apps=5)
        full = _per_cell_stack(rows, 5)
        for keep in ([1, 3], [0], [3, 2, 1, 0]):
            expected = {name: arr[keep] for name, arr in full.items()}
            _assert_stack_equals(stack.subset(np.array(keep)), expected)
        mask = np.array([True, False, True, False])
        expected = {name: arr[mask] for name, arr in full.items()}
        _assert_stack_equals(stack.subset(mask), expected)

    def test_miss_ratio_matches_profile_table_rows(self, rng):
        rows = self._rows()
        stack = ProfileStack(rows, pad_apps=5)
        valid = np.arange(5) < np.array([len(row) for row in rows])[:, None]
        occ = rng.uniform(0.0, 16 * MB, size=(len(rows), 5)) * valid
        batched = stack.miss_ratio(occ)
        for i, row in enumerate(rows):
            serial = ProfileTable(row).miss_ratio_floats(occ[i, : len(row)].tolist())
            assert np.array_equal(serial, batched[i, : len(row)])
            assert np.all(batched[i, len(row):] == 0.0)

    def test_validation(self):
        one = ReuseProfile.single(1 * MB)
        with pytest.raises(ValueError, match="at least one scenario"):
            ProfileStack([])
        with pytest.raises(ValueError, match="at least one profile"):
            ProfileStack([[one], []])
        with pytest.raises(ValueError, match="pad_apps"):
            ProfileStack([[one, one]], pad_apps=1)
        with pytest.raises(ValueError, match="expected occupancies"):
            ProfileStack([[one]]).miss_ratio(np.zeros((1, 2)))


class TestDistinctIndex:
    def test_identity_not_equality(self):
        a, b = ReuseProfile.single(1 * MB), ReuseProfile.single(1 * MB)
        items, index = distinct_index([[a, b, a], [b]], 4)
        assert items[0] is a and items[1] is b and len(items) == 2
        assert index.tolist() == [[1, 2, 1, 0], [2, 0, 0, 0]]

    def test_width_defaults_to_the_longest_row(self):
        items, index = distinct_index([["x"], ["y", "x"]])
        assert items == ["x", "y"]
        assert index.shape == (2, 2)


class TestDistinctColumns:
    def test_repeats_and_separate_rows(self):
        """One column per distinct entry of a row; a separate row keeps one
        per slot.  Slot indices are one-based, 0 for an empty slot."""
        index = np.array(
            [
                [1, 2, 1, 3, 2],
                [4, 4, 4, 0, 0],
                [2, 0, 0, 0, 0],
                [1, 2, 1, 0, 0],
            ]
        )
        separate = np.array([False, False, False, True])
        columns, slots = distinct_columns(index, separate)
        assert columns.tolist() == [[1, 2, 3], [4, 0, 0], [2, 0, 0], [1, 2, 1]]
        assert slots.tolist() == [
            [1, 2, 1, 3, 2],
            [1, 1, 1, 0, 0],
            [1, 0, 0, 0, 0],
            [1, 2, 3, 0, 0],
        ]
        layout = SlotLayout(slots, columns.shape[1])
        values = np.array(
            [[0.5, 0.25, 2.0], [3.0, 9.0, 9.0], [1.0, 9.0, 9.0], [1.0, 2.0, 4.0]]
        )
        assert layout.gather(values).tolist() == [
            [0.5, 0.25, 0.5, 2.0, 0.25],
            [3.0, 3.0, 3.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, 4.0, 0.0, 0.0],
        ]
        assert layout.sum(values).tolist() == [3.5, 9.0, 1.0, 7.0]
        assert layout.multiplicity().tolist() == [
            [2, 2, 1], [3, 0, 0], [1, 0, 0], [1, 1, 1],
        ]

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.integers(1, 9), min_size=1, max_size=12),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=80)
    def test_property_matches_a_per_row_oracle(self, rows):
        """Each row's distinct entries in first-seen order (every entry
        for a separate row), and each slot pointing at its entry."""
        width = max(len(row) for row, _ in rows)
        index = np.zeros((len(rows), width), dtype=np.intp)
        for s, (row, _) in enumerate(rows):
            index[s, : len(row)] = row
        separate = np.array([sep for _, sep in rows])
        columns, slots = distinct_columns(index, separate)
        expected = [row if sep else list(dict.fromkeys(row)) for row, sep in rows]
        assert columns.shape == (len(rows), max(map(len, expected)))
        layout = SlotLayout(slots, columns.shape[1])
        for s, ((row, sep), cols) in enumerate(zip(rows, expected)):
            assert columns[s].tolist() == cols + [0] * (columns.shape[1] - len(cols))
            assert slots[s, len(row):].tolist() == [0] * (width - len(row))
            assert layout.gather(columns.astype(float))[s, : len(row)].tolist() == row
            if sep:
                assert slots[s, : len(row)].tolist() == list(range(1, len(row) + 1))
        counts = layout.multiplicity()
        assert counts.sum(axis=1).tolist() == [len(row) for row, _ in rows]


class TestFootprintMemo:
    def test_memo_equals_the_formula(self):
        profile = ReuseProfile.mixture([(1 * MB, 0.6, 2.5), (6 * MB, 0.4)])
        expected = max(c.settled_capacity() for c in profile.components)
        assert profile.footprint_bytes == expected
        assert profile.footprint_bytes == expected  # memo hit
        # The memo is not a field: equality and hashing ignore it.
        twin = ReuseProfile.mixture([(1 * MB, 0.6, 2.5), (6 * MB, 0.4)])
        assert twin == profile and hash(twin) == hash(profile)
