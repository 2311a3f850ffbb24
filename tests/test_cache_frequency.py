"""Tests for the sliding-window frequency estimator (paper section 3.2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.frequency import SlidingWindowFrequencyEstimator


class TestValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SlidingWindowFrequencyEstimator(window=0)

    def test_rejects_bad_aging_interval(self):
        with pytest.raises(ValueError):
            SlidingWindowFrequencyEstimator(aging_interval=0.0)

    def test_rejects_time_going_backwards(self):
        est = SlidingWindowFrequencyEstimator()
        est.record(10.0)
        with pytest.raises(ValueError):
            est.record(5.0)


class TestEstimation:
    def test_empty_estimator_is_zero(self):
        est = SlidingWindowFrequencyEstimator()
        assert est.value(100.0) == 0.0
        assert est.reference_count == 0

    def test_formula_with_full_window(self):
        # f = K' / (t - t_K'): 3 references at 0, 10, 20 -> at t=20,
        # f = 3 / 20.
        est = SlidingWindowFrequencyEstimator(window=3)
        est.record(0.0)
        est.record(10.0)
        f = est.record(20.0)
        assert f == pytest.approx(3 / 20)

    def test_window_drops_oldest(self):
        est = SlidingWindowFrequencyEstimator(window=2)
        est.record(0.0)
        est.record(10.0)
        f = est.record(20.0)  # window now [10, 20]
        assert f == pytest.approx(2 / 10)
        assert est.reference_count == 2

    def test_singleton_zero_elapsed_uses_prior(self):
        est = SlidingWindowFrequencyEstimator(aging_interval=600.0)
        f = est.record(5.0)
        assert f == pytest.approx(1 / 600.0)

    def test_lazy_aging_refresh(self):
        est = SlidingWindowFrequencyEstimator(window=3, aging_interval=100.0)
        est.record(0.0)
        est.record(10.0)
        # Within the aging interval the cached value is returned.
        cached = est.value(50.0)
        assert cached == est.peek()
        # Far beyond the interval, the estimate decays.
        decayed = est.value(1000.0)
        assert decayed == pytest.approx(2 / 1000)
        assert decayed < cached

    def test_value_does_not_refresh_before_interval(self):
        est = SlidingWindowFrequencyEstimator(window=3, aging_interval=1000.0)
        est.record(0.0)
        est.record(10.0)
        before = est.peek()
        est.value(500.0)  # < aging interval since last refresh at t=10
        assert est.peek() == before


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_estimate_always_nonnegative_and_finite(self, raw_times):
        times = sorted(raw_times)
        est = SlidingWindowFrequencyEstimator(window=3)
        for t in times:
            f = est.record(t)
            assert f >= 0.0
            assert f < float("inf")

    @given(st.integers(min_value=1, max_value=10))
    def test_reference_count_never_exceeds_window(self, window):
        est = SlidingWindowFrequencyEstimator(window=window)
        for i in range(50):
            est.record(float(i))
        assert est.reference_count == min(50, window)
