"""Tests for the range-limited idle-time histogram."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import IdleTimeHistogram
from repro.core.welford import Welford


class TestConstruction:
    def test_default_geometry_matches_paper(self):
        histogram = IdleTimeHistogram()
        assert histogram.range_minutes == 240.0
        assert histogram.bin_width_minutes == 1.0
        assert histogram.num_bins == 240
        # 240 four-byte integers = 960 bytes, the figure quoted in Section 6.
        assert histogram.metadata_bytes == 960

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            IdleTimeHistogram(range_minutes=0)
        with pytest.raises(ValueError):
            IdleTimeHistogram(bin_width_minutes=0)
        with pytest.raises(ValueError):
            IdleTimeHistogram(range_minutes=0.5, bin_width_minutes=1.0)

    def test_empty_histogram_state(self):
        histogram = IdleTimeHistogram()
        assert histogram.is_empty()
        assert histogram.total_count == 0
        assert histogram.oob_fraction == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(50)


class TestObservation:
    def test_observe_in_bounds(self):
        histogram = IdleTimeHistogram(range_minutes=10, bin_width_minutes=1)
        assert histogram.observe(3.5) is True
        assert histogram.counts[3] == 1
        assert histogram.in_bounds_count == 1
        assert histogram.oob_count == 0

    def test_observe_out_of_bounds(self):
        histogram = IdleTimeHistogram(range_minutes=10, bin_width_minutes=1)
        assert histogram.observe(10.0) is False
        assert histogram.observe(500.0) is False
        assert histogram.oob_count == 2
        assert histogram.in_bounds_count == 0
        assert histogram.oob_fraction == 1.0

    def test_negative_idle_time_rejected(self):
        with pytest.raises(ValueError):
            IdleTimeHistogram().observe(-1.0)

    def test_bin_index_boundaries(self):
        histogram = IdleTimeHistogram(range_minutes=5, bin_width_minutes=1)
        assert histogram.bin_index(0.0) == 0
        assert histogram.bin_index(0.999) == 0
        assert histogram.bin_index(1.0) == 1
        assert histogram.bin_index(4.999) == 4
        assert histogram.bin_index(5.0) is None

    def test_observe_many_returns_in_bounds_count(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        in_bounds = histogram.observe_many([1.0, 2.0, 50.0, 3.0])
        assert in_bounds == 3
        assert histogram.total_count == 4

    def test_reset(self):
        histogram = IdleTimeHistogram.from_idle_times([1, 2, 3, 300])
        histogram.reset()
        assert histogram.is_empty()
        assert histogram.oob_count == 0
        assert np.all(histogram.counts == 0)

    def test_decay_halves_counts(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe_many([2.5] * 8 + [20.0] * 4)
        histogram.decay(0.5)
        assert histogram.counts[2] == 4
        assert histogram.oob_count == 2
        assert histogram.total_count == 6


class TestPercentiles:
    def test_single_bin_percentiles(self):
        histogram = IdleTimeHistogram.from_idle_times([7.2] * 20, range_minutes=60)
        assert histogram.percentile(5, rounding="down") == 7.0
        assert histogram.percentile(99, rounding="up") == 8.0
        assert histogram.percentile(50, rounding="nearest") == 7.5

    def test_head_and_tail_cutoffs(self):
        # 100 observations at 2 minutes, 5 at 30 minutes: the head should sit
        # at the 2-minute bin and the tail at the 30-minute bin.
        idle_times = [2.1] * 100 + [30.4] * 5
        histogram = IdleTimeHistogram.from_idle_times(idle_times, range_minutes=60)
        assert histogram.head_cutoff(5) == 2.0
        assert histogram.tail_cutoff(99) == 31.0

    def test_percentile_ordering(self):
        rng = np.random.default_rng(0)
        histogram = IdleTimeHistogram.from_idle_times(rng.uniform(0, 200, size=500))
        p5 = histogram.percentile(5, rounding="down")
        p50 = histogram.percentile(50, rounding="nearest")
        p99 = histogram.percentile(99, rounding="up")
        assert p5 <= p50 <= p99

    def test_percentile_requires_in_bounds_data(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        histogram.observe(100.0)
        with pytest.raises(ValueError):
            histogram.percentile(50)

    def test_invalid_percentile_arguments(self):
        histogram = IdleTimeHistogram.from_idle_times([1.0])
        with pytest.raises(ValueError):
            histogram.percentile(101)
        with pytest.raises(ValueError):
            histogram.percentile(50, rounding="sideways")

    def test_mean_idle_time_uses_midpoints(self):
        histogram = IdleTimeHistogram.from_idle_times([1.2, 1.7], range_minutes=10)
        assert histogram.mean_idle_time() == pytest.approx(1.5)


class TestRepresentativenessSignal:
    def test_concentrated_histogram_has_high_cv(self):
        concentrated = IdleTimeHistogram.from_idle_times([5.5] * 50)
        assert concentrated.bin_count_cv > 10

    def test_flat_histogram_has_low_cv(self):
        histogram = IdleTimeHistogram(range_minutes=10, bin_width_minutes=1)
        histogram.observe_many([b + 0.5 for b in range(10)] * 3)
        assert histogram.bin_count_cv == pytest.approx(0.0, abs=1e-6)

    def test_cv_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        histogram = IdleTimeHistogram.from_idle_times(
            rng.exponential(20, size=300), range_minutes=120
        )
        counts = histogram.counts.astype(float)
        expected = counts.std() / counts.mean()
        assert histogram.bin_count_cv == pytest.approx(expected, rel=1e-9)


class TestMergeAndSnapshot:
    def test_merge_adds_counts(self):
        left = IdleTimeHistogram.from_idle_times([1, 2, 3], range_minutes=10)
        right = IdleTimeHistogram.from_idle_times([2, 50], range_minutes=10)
        merged = left.merge(right)
        assert merged.total_count == 5
        assert merged.oob_count == 1
        assert merged.counts[2] == 2

    def test_merge_requires_identical_geometry(self):
        with pytest.raises(ValueError):
            IdleTimeHistogram(range_minutes=10).merge(IdleTimeHistogram(range_minutes=20))

    def test_snapshot_is_independent_copy(self):
        histogram = IdleTimeHistogram.from_idle_times([1, 2], range_minutes=10)
        snapshot = histogram.snapshot()
        histogram.observe(3)
        assert snapshot.total_count == 2
        assert snapshot.counts.sum() == 2

    def test_normalized_peaks_at_one(self):
        histogram = IdleTimeHistogram.from_idle_times([4.5] * 10 + [9.5], range_minutes=20)
        normalized = histogram.normalized()
        assert normalized.max() == pytest.approx(1.0)
        assert normalized[9] == pytest.approx(0.1)

    def test_normalized_of_empty_is_zero(self):
        assert IdleTimeHistogram(range_minutes=5).normalized().max() == 0.0


class TestProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_are_conserved(self, idle_times):
        histogram = IdleTimeHistogram.from_idle_times(idle_times, range_minutes=240)
        assert histogram.total_count == len(idle_times)
        assert histogram.in_bounds_count == int(histogram.counts.sum())
        assert histogram.in_bounds_count + histogram.oob_count == len(idle_times)

    @given(
        st.lists(st.floats(min_value=0, max_value=239), min_size=2, max_size=200),
        st.floats(min_value=1, max_value=49),
        st.floats(min_value=50, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentiles_are_monotone(self, idle_times, low, high):
        histogram = IdleTimeHistogram.from_idle_times(idle_times)
        assert histogram.percentile(low, rounding="down") <= histogram.percentile(
            high, rounding="up"
        )

    @given(st.lists(st.floats(min_value=0, max_value=239), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_percentile_bounded_by_range(self, idle_times):
        histogram = IdleTimeHistogram.from_idle_times(idle_times)
        assert 0 <= histogram.percentile(99, rounding="up") <= histogram.range_minutes


def _zeros_welford(num_bins: int) -> Welford:
    """The bin statistics as first built: one ``add(0.0)`` per bin."""
    stats = Welford()
    stats.update_many([0.0] * num_bins)
    return stats


def _bits(stats: Welford) -> tuple[int, str, str]:
    return stats.count, stats.mean.hex(), stats.m2.hex()


#: Geometries the equivalence properties run on: the paper's default, a
#: half-minute grid, and a range that is not a multiple of the width.
GEOMETRY_VALUES = [(240.0, 1.0), (60.0, 0.5), (10.0, 3.0)]
GEOMETRIES = st.sampled_from(GEOMETRY_VALUES)
PERCENTILES = st.one_of(
    st.sampled_from([0.0, 5.0, 99.0, 100.0]), st.floats(min_value=0, max_value=100)
)


class TestCutoffsEquivalence:
    """``cutoffs`` is one pass over the counts and equals the two scalar calls."""

    @given(
        GEOMETRIES,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.02, 0.3, 1.0]),
        st.sampled_from([2, 10, 1000]),
        st.integers(min_value=0, max_value=50),
        PERCENTILES,
        PERCENTILES,
    )
    @settings(max_examples=80, deadline=None)
    def test_cutoffs_match_head_and_tail(
        self, geometry, seed, density, max_count, oob, head_q, tail_q
    ):
        range_minutes, width = geometry
        num_bins = IdleTimeHistogram(range_minutes, width).num_bins
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, max_count, size=num_bins) * (rng.random(num_bins) < density)
        counts[rng.integers(num_bins)] += 1  # at least one in-bounds observation
        histogram = IdleTimeHistogram.from_state(
            counts,
            oob_count=oob,
            range_minutes=range_minutes,
            bin_width_minutes=width,
            bin_stats=Welford.from_values(counts.astype(float)),
        )
        assert histogram.cutoffs(head_q, tail_q) == (
            histogram.head_cutoff(head_q),
            histogram.tail_cutoff(tail_q),
        )

    @given(st.lists(st.floats(min_value=0, max_value=300), max_size=80), PERCENTILES)
    @settings(max_examples=60, deadline=None)
    def test_cutoffs_match_after_observations(self, idle_times, q):
        histogram = IdleTimeHistogram.from_idle_times(idle_times)
        if histogram.in_bounds_count == 0:
            with pytest.raises(ValueError):
                histogram.cutoffs(q, q)
            return
        assert histogram.cutoffs(q, 100.0 - q) == (
            histogram.head_cutoff(q),
            histogram.tail_cutoff(100.0 - q),
        )

    def test_cutoffs_raise_on_empty_histogram(self):
        histogram = IdleTimeHistogram(range_minutes=10)
        with pytest.raises(ValueError, match="no in-bounds"):
            histogram.cutoffs(5, 99)
        histogram.observe(100.0)  # out of bounds only
        with pytest.raises(ValueError, match="no in-bounds"):
            histogram.cutoffs(5, 99)

    def test_cutoffs_reject_invalid_percentiles(self):
        histogram = IdleTimeHistogram.from_idle_times([1.0])
        with pytest.raises(ValueError, match="within"):
            histogram.cutoffs(101, 99)
        with pytest.raises(ValueError, match="within"):
            histogram.cutoffs(5, -1)


class TestLeanBinStatistics:
    """``Welford(count=n)`` is bit-identical to ``n`` additions of 0.0."""

    @pytest.mark.parametrize("geometry", GEOMETRY_VALUES)
    def test_construction_and_reset(self, geometry):
        histogram = IdleTimeHistogram(*geometry)
        reference = _zeros_welford(histogram.num_bins)
        assert _bits(histogram._bin_stats) == _bits(reference)
        histogram.observe_many([0.5, 1.5, 1.6])
        histogram.reset()
        assert _bits(histogram._bin_stats) == _bits(reference)
        assert histogram.bin_count_cv.hex() == reference.cv.hex()

    @given(
        GEOMETRIES,
        st.lists(st.floats(min_value=0, max_value=300), max_size=120),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_observation_trajectory(self, geometry, idle_times, reset_first):
        lean = IdleTimeHistogram(*geometry)
        if reset_first:
            lean.observe_many(idle_times[:3])
            lean.reset()
        old = IdleTimeHistogram(*geometry)
        old._bin_stats = _zeros_welford(old.num_bins)
        for value in idle_times:
            assert lean.observe(value) == old.observe(value)
            assert _bits(lean._bin_stats) == _bits(old._bin_stats)
            assert lean.bin_count_cv.hex() == old.bin_count_cv.hex()
