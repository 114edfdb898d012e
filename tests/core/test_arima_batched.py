"""Batched (stacked) ARIMA fitting against the per-row scalar reference.

The contract is stronger than the issue's 1e-9 tolerance: because the
scalar :class:`~repro.core.arima.ARIMA` delegates to the same stacked
kernels as a batch of one, the batched forecasts must be *bit-identical*
to looping ``auto_arima`` / the scalar forecaster row by row.  These
properties drive randomized short/irregular series — including constant
and degenerate series that collapse to the mean model — through both
paths and assert exact agreement (which trivially implies the 1e-9
contract).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arima import ARIMA, auto_arima
from repro.core.arima_batch import (
    auto_arima_forecast_stack,
    group_rows_by_length,
)
from repro.core.forecaster import IdleTimeForecaster, forecast_idle_times

# Idle times are non-negative minutes; keep magnitudes workload-shaped.
IDLE_VALUES = st.floats(
    min_value=0.0, max_value=5000.0, allow_nan=False, allow_infinity=False
)


def scalar_auto_arima_forecast(series: np.ndarray) -> float:
    """The scalar reference: grid-search a model, one-step forecast."""
    model = auto_arima(series)
    return float(model.forecast(series, steps=1)[0])


def scalar_forecaster_prediction(history: np.ndarray) -> float:
    forecaster = IdleTimeForecaster.from_history(
        history, max_history=max(len(history), 2)
    )
    return forecaster.predict_next_idle_time()[0]


class TestForecastStackEqualsScalar:
    @given(
        st.lists(st.lists(IDLE_VALUES, min_size=2, max_size=24), min_size=1, max_size=8)
    )
    @settings(max_examples=60, deadline=None)
    def test_random_irregular_series(self, rows):
        length = max(len(row) for row in rows)
        stack = np.asarray([row[:1] * (length - len(row)) + row for row in rows])
        batched = auto_arima_forecast_stack(stack)
        for row, value in zip(stack, batched):
            expected = scalar_auto_arima_forecast(row)
            assert value == expected or (np.isnan(value) and np.isnan(expected))

    @given(
        st.integers(min_value=1, max_value=6),
        IDLE_VALUES,
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_degenerate_constant_series_degrade_to_mean(self, rows, value, length):
        """Constant series: every candidate ties into the mean model."""
        stack = np.full((rows, length), value)
        batched = auto_arima_forecast_stack(stack)
        expected = scalar_auto_arima_forecast(stack[0])
        assert np.all(batched == expected)

    def test_single_observation_falls_back_to_value(self):
        stack = np.asarray([[7.5], [0.0], [123.0]])
        batched = auto_arima_forecast_stack(stack)
        expected = [scalar_auto_arima_forecast(row) for row in stack]
        assert batched.tolist() == expected

    @given(st.lists(IDLE_VALUES, min_size=4, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_batch_of_one_is_the_scalar_model(self, series):
        series = np.asarray(series)
        batched = auto_arima_forecast_stack(series[None, :])[0]
        expected = scalar_auto_arima_forecast(series)
        assert batched == expected or (np.isnan(batched) and np.isnan(expected))

    def test_candidate_selection_matches_scalar_tie_breaking(self):
        # A short ramp: several candidates fit with close AICs, so the
        # first-minimum rule decides.  The scalar and batched searches
        # must land on the same model (asserted through the forecast).
        series = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        model = auto_arima(series)
        fit = ARIMA(model.order).fit(series)
        assert fit.aic == model.fitted.aic
        assert auto_arima_forecast_stack(series[None, :])[0] == float(
            model.forecast(series)[0]
        )


class TestForecasterBatchAPI:
    @given(
        st.lists(st.lists(IDLE_VALUES, min_size=0, max_size=24), min_size=1, max_size=10)
    )
    @settings(max_examples=60, deadline=None)
    def test_variable_length_histories_match_scalar_forecaster(self, histories):
        histories = [np.asarray(h) for h in histories]
        batched = forecast_idle_times(histories)
        for history, value in zip(histories, batched):
            if history.size == 0:
                assert value == 0.0
                continue
            expected = scalar_forecaster_prediction(history)
            assert value == expected or (np.isnan(value) and np.isnan(expected))

    def test_short_histories_use_the_mean(self):
        histories = [np.asarray([5.0]), np.asarray([2.0, 4.0, 6.0])]
        predictions = forecast_idle_times(histories)
        assert predictions.tolist() == [5.0, 4.0]


class TestGroupRowsByLength:
    def test_partitions_all_indices(self):
        histories = [np.arange(n, dtype=float) for n in (3, 1, 3, 2, 1, 5)]
        groups = group_rows_by_length(histories)
        seen = np.concatenate([indices for indices, _ in groups])
        assert sorted(seen.tolist()) == list(range(len(histories)))
        for indices, stack in groups:
            for i, j in enumerate(indices):
                np.testing.assert_array_equal(stack[i], histories[j])

    def test_stack_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            auto_arima_forecast_stack(np.zeros(4))
        with pytest.raises(ValueError):
            auto_arima_forecast_stack(np.zeros((2, 0)))
